// The attack registry: the one table from a mode name to its attack, its
// options and its threat model. The service's attack job, the table
// harnesses and the lock x attack matrix test all dispatch through it by
// name, so a mode means the same attack with the same defaults everywhere.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/result.hpp"
#include "netlist/netlist.hpp"
#include "util/json.hpp"

namespace cl::attack {

/// What a caller may set; every other option takes the mode's default.
struct ModeOptions {
  AttackBudget budget;
  std::size_t bbo_jobs = 1;    ///< BBO's screening threads
  std::size_t max_period = 8;  ///< periodic: largest hypothesized period
};

struct ModeResult {
  AttackResult result;
  /// The fields only this mode reports, in order: FALL `candidates` and
  /// `confirmed`, DANA `clusters`, SCOPE `decided` and `verdicts`, and
  /// periodic `period` and `schedule` once a schedule is recovered.
  std::vector<std::pair<std::string, util::Json>> facts;
};

struct AttackMode {
  const char* name;   ///< request name: "bmc", "kc2", ...
  const char* label;  ///< table column: "INT", "KC2", ...
  /// Runs on scan-exposed views of both circuits (the scan-access threat
  /// model), so it rejects locks that add state elements.
  bool scan_model;
  /// For a scan-model mode, `locked` and the oracle's reference are the
  /// scan-exposed views.
  ModeResult (*run)(const netlist::Netlist& locked,
                    const SequentialOracle& oracle, const ModeOptions& options);
};

/// Every mode, in table order.
std::span<const AttackMode> attack_modes();

/// Throws std::invalid_argument naming every mode when none is `name`.
const AttackMode& find_attack_mode(const std::string& name);

/// Throws std::invalid_argument when `options` cannot drive `mode` (periodic
/// with `max_period` 0 or above k_max_period_limit). Reads no circuit.
void check_mode_options(const AttackMode& mode, const ModeOptions& options);

/// Throws std::runtime_error when the scan-exposed views differ in input or
/// output count: the lock adds state, so the scan-model modes do not apply.
void check_scan_interfaces(const netlist::Netlist& locked_scan,
                           const netlist::Netlist& reference_scan);

/// Run `mode` on `locked` against an oracle of `reference`, on the
/// scan-exposed views of both (after check_scan_interfaces) for a
/// scan-model mode.
ModeResult run_attack_mode(const AttackMode& mode,
                           const netlist::Netlist& locked,
                           const netlist::Netlist& reference,
                           const ModeOptions& options);

}  // namespace cl::attack
