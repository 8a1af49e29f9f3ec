#include "attack/registry.hpp"

#include <stdexcept>

#include "attack/bbo.hpp"
#include "attack/dana.hpp"
#include "attack/fall.hpp"
#include "attack/periodic_attack.hpp"
#include "attack/sat_attack.hpp"
#include "attack/scope.hpp"
#include "attack/seq_attack.hpp"
#include "netlist/transform.hpp"

namespace cl::attack {
namespace {

using netlist::Netlist;

util::Json count(std::size_t n) {
  return util::Json::number(static_cast<std::uint64_t>(n));
}

/// The engine attacks that take nothing but the budget (BMC, KC2, RANE).
template <AttackResult (*Attack)(const Netlist&, const SequentialOracle&,
                                 const AttackBudget&)>
ModeResult run_engine(const Netlist& locked, const SequentialOracle& oracle,
                      const ModeOptions& options) {
  return {Attack(locked, oracle, options.budget), {}};
}

template <SatAttackOptions::Mode Mode>
ModeResult run_sat(const Netlist& locked, const SequentialOracle& oracle,
                   const ModeOptions& options) {
  SatAttackOptions o;
  o.budget = options.budget;
  o.mode = Mode;
  return {sat_attack(locked, oracle, o), {}};
}

using SatMode = SatAttackOptions::Mode;

const AttackMode k_attack_modes[] = {
    {"bmc", "INT", false, run_engine<bmc_attack>},
    {"kc2", "KC2", false, run_engine<kc2_attack>},
    {"rane", "RANE", false, run_engine<rane_attack>},
    {"sat", "SAT", true, run_sat<SatMode::Classic>},
    {"appsat", "AppSAT", true, run_sat<SatMode::AppSat>},
    {"double-dip", "Double-DIP", true, run_sat<SatMode::DoubleDip>},
    {"bbo", "BBO", false,
     [](const Netlist& locked, const SequentialOracle& oracle,
        const ModeOptions& options) -> ModeResult {
       BboOptions o;
       o.budget = options.budget;
       o.jobs = options.bbo_jobs;
       return {bbo_attack(locked, oracle, o), {}};
     }},
    {"fall", "FALL", false,
     [](const Netlist& locked, const SequentialOracle& oracle,
        const ModeOptions& options) -> ModeResult {
       FallOptions o;
       o.budget = options.budget;
       FallResult fr = fall_attack(locked, oracle, o);
       return {std::move(fr.result),
               {{"candidates", count(fr.candidates)},
                {"confirmed", count(fr.confirmed)}}};
     }},
    {"dana", "DANA", false,
     [](const Netlist& locked, const SequentialOracle&,
        const ModeOptions&) -> ModeResult {
       // Register clustering recovers no key: the outcome stays FAIL.
       const DanaResult dr = dana_attack(locked);
       AttackResult r;
       r.seconds = dr.seconds;
       r.iterations = dr.rounds;
       r.detail = std::to_string(dr.clusters.size()) + " clusters over " +
                  std::to_string(locked.dffs().size()) + " FFs";
       return {std::move(r), {{"clusters", count(dr.clusters.size())}}};
     }},
    {"scope", "SCOPE", false,
     [](const Netlist& locked, const SequentialOracle& oracle,
        const ModeOptions& options) -> ModeResult {
       // Oracle-free structural inference; the oracle only confirms a fully
       // decided key.
       ScopeOptions o;
       o.budget = options.budget;
       ScopeResult sr = scope_attack(locked, &oracle, o);
       return {std::move(sr.result),
               {{"decided", count(sr.decided)},
                {"verdicts", util::Json::string(sr.report.verdict_string())}}};
     }},
    {"periodic", "periodic", false,
     [](const Netlist& locked, const SequentialOracle& oracle,
        const ModeOptions& options) -> ModeResult {
       PeriodicAttackOptions o;
       o.budget = options.budget;
       o.max_period = options.max_period;
       PeriodicAttackResult pr = periodic_key_attack(locked, oracle, o);
       ModeResult out{std::move(pr.result), {}};
       if (pr.recovered_period != 0) {
         out.facts = {{"period", count(pr.recovered_period)},
                      {"schedule", schedule_to_json(pr.recovered_schedule)}};
       }
       return out;
     }},
};

}  // namespace

std::span<const AttackMode> attack_modes() { return k_attack_modes; }

const AttackMode& find_attack_mode(const std::string& name) {
  std::string names;
  for (const AttackMode& mode : k_attack_modes) {
    if (name == mode.name) return mode;
    names += (names.empty() ? "" : "/") + std::string(mode.name);
  }
  throw std::invalid_argument("unknown mode \"" + name + "\" (want " + names +
                              ")");
}

void check_mode_options(const AttackMode& mode, const ModeOptions& options) {
  if (std::string(mode.name) == "periodic" && options.max_period == 0) {
    throw std::invalid_argument(
        "periodic: max_period must be at least 1 (a bound of 0 tests no "
        "schedule)");
  }
}

void check_scan_interfaces(const Netlist& ls, const Netlist& rs) {
  if (ls.inputs().size() != rs.inputs().size() ||
      ls.outputs().size() != rs.outputs().size()) {
    throw std::runtime_error(
        "scan interfaces differ (" + std::to_string(ls.inputs().size()) +
        " vs " + std::to_string(rs.inputs().size()) + " inputs, " +
        std::to_string(ls.outputs().size()) + " vs " +
        std::to_string(rs.outputs().size()) +
        " outputs): the lock adds state elements, so the scan-model attacks "
        "do not apply; use bmc/kc2/rane instead");
  }
}

ModeResult run_attack_mode(const AttackMode& mode, const Netlist& locked,
                           const Netlist& reference,
                           const ModeOptions& options) {
  if (!mode.scan_model) {
    const SequentialOracle oracle(reference);
    return mode.run(locked, oracle, options);
  }
  const Netlist locked_scan = netlist::scan_expose(locked);
  const Netlist reference_scan = netlist::scan_expose(reference);
  check_scan_interfaces(locked_scan, reference_scan);
  const SequentialOracle oracle(reference_scan);
  return mode.run(locked_scan, oracle, options);
}

}  // namespace cl::attack
