#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "analysis/lint.hpp"
#include "attack/bbo.hpp"
#include "attack/seq_attack.hpp"
#include "sim/sequence.hpp"
#include "span.hpp"

namespace perfbench {

namespace {

/// Offset added to a harness lock seed for instance set `set` of workload
/// seed `seed`: a multiple of 2^20, above every harness offset (gates + k
/// stays below 2^20), and distinct for the first 2^16 sets of each seed.
std::uint64_t seed_offset(std::uint64_t seed, std::uint64_t set) {
  return ((seed << 16) + set) << 20;
}

/// bench::table_budget under CUTELOCK_BENCH_STABLE=1: deterministic
/// iteration, depth and conflict caps instead of wall deadlines, one SAT
/// worker, no preprocessing. Pinned here so the environment cannot move it.
cl::attack::AttackBudget stable_table_budget() {
  cl::attack::AttackBudget b;
  b.time_limit_s = 1e9;
  b.verify_time_limit_s = 1e9;
  b.max_iterations = 500;
  b.max_depth = 24;
  b.conflict_budget = 4'000'000;
  b.sat_workers = 1;
  b.sat_preprocess = false;
  return b;
}

/// bench_table_mega's reduced budget on top of the stable table budget.
cl::attack::AttackBudget mega_budget() {
  cl::attack::AttackBudget b = stable_table_budget();
  b.max_iterations = 6;
  b.max_depth = 4;
  b.conflict_budget = 200'000;
  return b;
}

CellSpec cell(const cl::benchgen::CircuitSpec& circuit, std::size_t keys,
              std::size_t bits, std::size_t max_locked_ffs,
              std::uint64_t lock_seed, Family attack,
              const cl::attack::AttackBudget& budget) {
  CellSpec c;
  c.circuit = circuit;
  c.lock.num_keys = keys;
  c.lock.key_bits = bits;
  c.lock.locked_ffs = max_locked_ffs;
  c.lock.seed = lock_seed;
  c.attack = attack;
  c.budget = budget;
  return c;
}

/// bench_validation_singlekey: five circuits x {single-key reduction,
/// multi-key} x {INT, KC2, BBO}, lock seeds 0x5111 + reduced.
Workload singlekey_verify(std::uint64_t offset) {
  Workload w{"singlekey-verify", {}, 1};
  for (const char* name : {"s27", "s298", "b01", "b03", "b06"}) {
    const cl::benchgen::CircuitSpec& spec = cl::benchgen::find_spec(name);
    for (const bool reduced : {true, false}) {
      for (const Family f : {Family::Int, Family::Kc2, Family::Bbo}) {
        CellSpec c = cell(spec, 4, 3, 2, 0x5111 + (reduced ? 1 : 0) + offset,
                          f, stable_table_budget());
        c.lock.single_key_reduction = reduced;
        w.cells.push_back(std::move(c));
      }
    }
  }
  return w;
}

/// bench_table_mega's syn64k k=2 row, INT and KC2, lock seed
/// 0x3e6a + gates + k.
Workload mega_encode(std::uint64_t offset) {
  Workload w{"mega-encode", {}, 1};
  const cl::benchgen::CircuitSpec& spec = cl::benchgen::find_spec("syn64k");
  const std::size_t k = 2;
  for (const Family f : {Family::Int, Family::Kc2}) {
    w.cells.push_back(cell(spec, k, 4, 4, 0x3e6a + spec.gates + k + offset,
                           f, mega_budget()));
  }
  return w;
}

/// bench_table4_str_logic_attacks under CUTELOCK_BENCH_SMALL=1: every
/// ISCAS'89 / ITC'99 circuit of at most 1200 gates, at the paper's (k, ki),
/// x {BBO, INT, KC2, RANE}, lock seed 0x57a + gates. Left out: s27 (the
/// harness leaves it out too) and b09, whose one-bit key (ki = 1) makes
/// some lock seeds unfit for a timed workload. Of the 40 lock seeds
/// 0x57a + gates + i * 2^20 (i < 40), three send its RANE cell to the
/// 500-iteration budget (26-48 s, against 3 s for the other 80 cells
/// together), and at i = 34 all four attacks recover a key.
Workload table4_cns(std::uint64_t offset) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  Workload w{"table4-cns", {}, std::min<std::size_t>(4, hw)};
  for (const auto* suite :
       {&cl::benchgen::iscas89_specs(), &cl::benchgen::itc99_specs()}) {
    for (const cl::benchgen::CircuitSpec& spec : *suite) {
      if (spec.gates > 1200 || spec.name == "s27" || spec.name == "b09") {
        continue;
      }
      for (const Family f :
           {Family::Bbo, Family::Int, Family::Kc2, Family::Rane}) {
        w.cells.push_back(cell(spec, spec.lock_keys, spec.lock_bits, 4,
                               0x57a + spec.gates + offset, f,
                               stable_table_budget()));
      }
    }
  }
  return w;
}

}  // namespace

const char* family_name(Family family) {
  switch (family) {
    case Family::Int: return "INT";
    case Family::Kc2: return "KC2";
    case Family::Rane: return "RANE";
    case Family::Bbo: return "BBO";
  }
  return "?";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "singlekey-verify", "mega-encode", "table4-cns"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t set) {
  const std::uint64_t offset = seed_offset(seed, set);
  if (name == "singlekey-verify") return singlekey_verify(offset);
  if (name == "mega-encode") return mega_encode(offset);
  if (name == "table4-cns") return table4_cns(offset);
  throw std::invalid_argument("unknown workload: " + name);
}

Instance::Instance(const CellSpec& spec, SetupSpans* spans) {
  {
    Span span(spans != nullptr ? &spans->make_circuit_s : nullptr);
    circuit = cl::benchgen::make_circuit(spec.circuit);
  }
  {
    Span span(spans != nullptr ? &spans->lock_s : nullptr);
    cl::core::StrOptions options = spec.lock;
    options.locked_ffs =
        std::min(options.locked_ffs, circuit.netlist.dffs().size());
    locked = cl::core::cute_lock_str(circuit.netlist, options);
  }
  {
    Span span(spans != nullptr ? &spans->lint_s : nullptr);
    const cl::analysis::LintReport report =
        cl::analysis::lint_attack_inputs(locked.locked, circuit.netlist);
    if (!report.ok()) {
      throw std::runtime_error("lint: " +
                               cl::analysis::format_diagnostics(report));
    }
  }
  {
    Span span(spans != nullptr ? &spans->compile_s : nullptr);
    oracle.emplace(circuit.netlist);
  }
}

cl::attack::AttackResult run_attack(const CellSpec& spec,
                                    const Instance& instance) {
  const cl::netlist::Netlist& locked = instance.locked.locked;
  const cl::attack::SequentialOracle& oracle = *instance.oracle;
  switch (spec.attack) {
    case Family::Int: return cl::attack::bmc_attack(locked, oracle, spec.budget);
    case Family::Kc2: return cl::attack::kc2_attack(locked, oracle, spec.budget);
    case Family::Rane:
      return cl::attack::rane_attack(locked, oracle, spec.budget);
    case Family::Bbo: {
      cl::attack::BboOptions options;
      options.budget = spec.budget;
      // Cells already share the Runner's workers; the harnesses pin BBO's
      // own screening threads to one as well.
      options.jobs = 1;
      return cl::attack::bbo_attack(locked, oracle, options);
    }
  }
  throw std::logic_error("run_attack: unknown attack family");
}

std::string check_verdict(const CellSpec& spec, const Instance& instance,
                          const cl::attack::AttackResult& result,
                          std::uint64_t seed) {
  const bool equal = result.outcome == cl::attack::Outcome::Equal;
  if (!spec.lock.single_key_reduction) {
    return equal ? "recovered a key from a multi-key lock" : "";
  }
  if (!equal) {
    return std::string("expected Equal, got ") +
           cl::attack::outcome_label(result.outcome);
  }
  // Any passing key counts (the one-key premise): compare behaviour with
  // the reference, not the key with the lock's secret.
  constexpr std::size_t kSequences = 32;
  constexpr std::size_t kCycles = 64;
  cl::util::Rng rng(seed);
  const cl::netlist::Netlist& reference = instance.circuit.netlist;
  for (std::size_t s = 0; s < kSequences; ++s) {
    const std::vector<cl::sim::BitVec> inputs =
        cl::sim::random_stimulus(rng, kCycles, reference.inputs().size());
    const int diverge = cl::sim::first_divergence(
        cl::sim::run_sequence(reference, inputs),
        cl::sim::run_sequence(instance.locked.locked, inputs, {result.key}));
    if (diverge != -1) {
      char reason[96];
      std::snprintf(reason, sizeof reason,
                    "Equal key diverges from the reference at cycle %d of "
                    "check sequence %zu",
                    diverge, s);
      return reason;
    }
  }
  return "";
}

}  // namespace perfbench
