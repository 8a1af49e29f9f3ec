// Attack-success acceptance criteria — the one-key-premise layer.
//
// Hu et al. ("On the One-Key Premise of Logic Locking") observe that the
// standard scoreboard — did the attack return THE ground-truth key? —
// systematically overstates security for multi-key schemes: a lock with
// decoy or obfuscated bits (CAC 2.0, latch-based decoys, K-Gate encoding
// classes) has many functionally correct keys, and an attack that recovers
// any of them has broken the defense even though the bit-vector comparison
// says otherwise. This module makes the criterion explicit and pluggable:
//
//  * ExactKey      — the recovered key equals the ground truth bit-for-bit
//                    (the one-key premise; kept for comparison columns).
//  * AnyPassingKey — the locked circuit under the recovered key is
//                    functionally equivalent to the original
//                    (attack::verify_static_key: randomized simulation plus
//                    a bounded SAT equivalence miter).
//  * Approximate   — the observed output corruption rate on sampled (or,
//                    for small circuits, exhaustive) patterns is at most ε.
//                    An attack on an approximate lock (SFLL-style) "wins"
//                    when remaining corruption is below the target.
//
// verify_any_key always measures everything cheap (exactness when ground
// truth is provided, corruption rate on the compiled simulator) and runs the
// equivalence check when the criterion demands it, so one call yields both
// the one-key and the multi-key verdicts for a table cell.
#pragma once

#include <optional>
#include <string>

#include "attack/result.hpp"
#include "attack/verify.hpp"
#include "netlist/netlist.hpp"

namespace cl::attack {

enum class AcceptCriterion { ExactKey, AnyPassingKey, Approximate };

/// Parse "exact" / "any" / "approx"; nullopt on anything else.
std::optional<AcceptCriterion> parse_criterion(const std::string& name);
const char* criterion_name(AcceptCriterion criterion);

struct AcceptOptions {
  AcceptCriterion criterion = AcceptCriterion::AnyPassingKey;
  /// Approximate: maximum tolerated corruption rate (fraction of sampled
  /// cycles on which any output bit differs), inclusive.
  double epsilon = 0.0;
  /// Corruption sampling: this many random sequences of this many cycles.
  std::size_t sample_sequences = 64;
  std::size_t sample_cycles = 16;
  std::uint64_t seed = 0xacceb7ULL;
  /// Enumerate EVERY input word (held for sample_cycles from reset) instead
  /// of sampling. Only honored up to 2^16 words; used by brute-force
  /// cross-check tests on small circuits.
  bool exhaustive = false;
  /// Equivalence settings for the AnyPassingKey criterion.
  VerifyOptions verify;
};

struct AcceptReport {
  /// Verdict under `criterion`.
  bool accepted = false;
  AcceptCriterion criterion = AcceptCriterion::AnyPassingKey;
  /// Tri-state facts (-1 = not evaluated, or for any_key_pass also: the
  /// equivalence proof ran out of budget): recovered key equals ground
  /// truth; locked-under-key is functionally equivalent to the original.
  int key_exact = -1;
  int any_key_pass = -1;
  /// Fraction of simulated cycles with corrupted outputs; -1 when not
  /// measured (width-mismatched key).
  double corruption_rate = -1.0;
  std::string detail;
};

/// Judge `key` against the chosen acceptance criterion. `ground_truth` may
/// be null when the evaluator does not know the lock secret (then ExactKey
/// cannot accept and key_exact stays -1). A key whose width does not match
/// the locked circuit's key port is rejected under every criterion.
AcceptReport verify_any_key(const netlist::Netlist& locked,
                            const sim::BitVec& key,
                            const netlist::Netlist& original,
                            const sim::BitVec* ground_truth,
                            const AcceptOptions& options = {});

/// Copy the report's acceptance fields into an AttackResult (key_exact,
/// any_key_pass, corruption_rate), so the verdict travels with the result
/// into tables, BENCH JSON and the service protocol.
void apply_acceptance(const AcceptReport& report, AttackResult* result);

}  // namespace cl::attack
