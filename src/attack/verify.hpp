// Candidate-key verification. Every attack runs its recovered key through
// this check before claiming success, so "Equal" in the tables always means
// a genuinely working key.
#pragma once

#include <optional>

#include "attack/result.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace cl::attack {

struct VerifyOptions {
  std::size_t random_sequences = 32;  // fast rejection phase
  std::size_t sequence_cycles = 64;
  /// Bounded exact phase: a depth ladder up to sat_depth frames. Correct
  /// keys usually fold the miter to constant false (no solving at any
  /// depth); keys that leave logic behind pay CDCL proofs, which grow with
  /// depth (no induction), so the randomized phase carries the
  /// discriminating load beyond this bound.
  std::size_t sat_depth = 8;
  double time_limit_s = 5.0;          // SAT-phase wall-clock cap
  std::int64_t conflict_budget = 500'000;
  std::uint64_t seed = 0xdecafULL;
};

enum class Verdict : std::uint8_t {
  Equivalent,  // no divergence in simulation nor within sat_depth frames
  Different,   // a counterexample exists (see VerifyResult::counterexample)
  Unknown,     // the SAT phase ran out of budget before a proof
};

/// Lower-case verdict name ("equivalent", "different", "unknown").
const char* verdict_name(Verdict v);

/// The attack outcome a verdict concludes: Equal, WrongKey (x..x) or, when
/// the proof ran out of budget, Timeout (N/A).
Outcome verdict_outcome(Verdict v);

struct VerifyResult {
  Verdict verdict = Verdict::Unknown;
  /// When Different: an input sequence on which the outputs diverge.
  /// Empty otherwise.
  std::vector<sim::BitVec> counterexample;
  /// Size of the SAT phase's formula and the conflicts its proofs spent;
  /// all zero when simulation found the counterexample.
  std::uint64_t cnf_vars = 0;
  std::uint64_t cnf_clauses = 0;
  std::uint64_t conflicts = 0;
};

/// VerifyOptions inheriting the budget's verification caps — the one place
/// attack implementations derive verifier settings from an AttackBudget.
VerifyOptions verify_options_for(const AttackBudget& budget);

/// Is `locked` with the static `key` sequentially equivalent to `original`?
/// Phase 1: randomized simulation (cheap, catches almost everything).
/// Phase 2: SAT bounded-equivalence miter (cnf::EquivalenceMiter) up to
/// sat_depth frames; Unknown when its conflict or time cap runs out.
VerifyResult verify_static_key(const netlist::Netlist& locked,
                               const sim::BitVec& key,
                               const netlist::Netlist& original,
                               const VerifyOptions& options = {});

}  // namespace cl::attack
