// The oracle-guided SAT attack (Subramanyan et al., HOST'15) and its
// AppSAT / Double-DIP descendants, in the scan-access threat model: the
// attack operates on a combinational circuit (sequential designs are first
// passed through netlist::scan_expose, which models full scan-chain access).
//
// Classic loop: find a discriminating input pattern (DIP) on which two
// consistent keys disagree, query the oracle, constrain both key copies,
// repeat until no DIP remains; any consistent key is then the correct key.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/result.hpp"

namespace cl::attack {

struct SatAttackOptions {
  AttackBudget budget;
  enum class Mode { Classic, AppSat, DoubleDip } mode = Mode::Classic;
  /// Structural key hints (key-bit index, value) installed as unit
  /// assumptions on the engine (OgEngine::set_hints): advisory, dropped on
  /// any contradiction, never able to flip a verdict. Empty = unhinted.
  std::vector<std::pair<std::size_t, bool>> hints;
  // AppSAT settling parameters (Shamsi et al., HOST'17): every
  // `appsat_sample_every` DIP rounds draw `appsat_samples` random queries;
  // if the current candidate's observed error rate is below the threshold,
  // settle on it as an approximate key.
  std::size_t appsat_sample_every = 4;
  std::size_t appsat_samples = 50;
  double appsat_error_threshold = 0.0;
  std::uint64_t seed = 0xa77acc;
};

/// `locked` must be combinational (scan-exposed); the oracle's reference
/// must have the same input/output interface.
AttackResult sat_attack(const netlist::Netlist& locked,
                        const SequentialOracle& oracle,
                        const SatAttackOptions& options = {});

}  // namespace cl::attack
