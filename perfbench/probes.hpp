// Layer probes of the traced run. After a cell's attack returns, the probes
// replay that cell's inner layer calls on the cell's own instance, outside
// the attack's span, and time each call from the benchmark's side:
//
//   verify  attack::verify_static_key on an Equal key with
//           verify_options_for(budget), then once with sat_depth = 0 (the
//           simulation phase alone) and once with random_sequences = 0 (the
//           bounded-SAT phase alone)
//   miter   cnf::SequentialMiter built to the depth the engine attacks
//           start their search at (SeqAttackOptions::start_depth, capped by
//           the budget's depth), with a symbolic reset state for RANE cells
//   oracle  engine cells: one fact per fresh oracle query the attack paid,
//           in the attack's shape: the first min(warmup sequences, fresh
//           queries) are warmup-length traces queried in one query_batch,
//           the rest are miter-depth sequences queried one at a time (a
//           counterexample from the attack's verifier, which can be
//           longer, is replayed at that length too).
//           BBO cells: query_batch replaying the cell's oracle pattern count
//           at BBO's screening shape
//   facts   cnf::constrain_key_on_sequence of those facts on both key copies
//           of the miter
//   solve   one sat::Solver::solve on diff_within(depth) after the facts
//
// BBO cells build no CNF, so only the verify and oracle probes apply to them.
#pragma once

#include <cstdint>

#include "workloads.hpp"

namespace perfbench {

struct ProbeTotals {
  double verify_s = 0.0;
  double verify_sim_s = 0.0;
  double verify_sat_s = 0.0;
  std::uint64_t verify_calls = 0;
  double fact_encode_s = 0.0;
  std::uint64_t fact_vars = 0;
  std::uint64_t fact_clauses = 0;
  double miter_build_s = 0.0;
  std::uint64_t miter_vars = 0;
  std::uint64_t miter_clauses = 0;
  double solve_s = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  double oracle_query_s = 0.0;
  std::uint64_t oracle_patterns = 0;

  /// Probe time that stands for attack work (the split verify calls repeat
  /// the full one, so they are not counted twice).
  double covered_s() const {
    return verify_s + fact_encode_s + miter_build_s + solve_s + oracle_query_s;
  }
};

/// Run every probe that applies to the cell and add its numbers to `totals`.
/// `oracle_patterns` is the pattern count the cell's oracle served during
/// the attack (read for BBO cells); `seed` derives the probe stimuli.
void probe_cell(const CellSpec& spec, const Instance& instance,
                const cl::attack::AttackResult& result,
                std::uint64_t oracle_patterns, std::uint64_t seed,
                ProbeTotals& totals);

}  // namespace perfbench
