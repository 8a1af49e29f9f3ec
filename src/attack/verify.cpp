#include "attack/verify.hpp"

#include <stdexcept>

#include "cnf/miter.hpp"
#include "sim/sequence.hpp"

namespace cl::attack {

using netlist::Netlist;

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Equivalent:
      return "equivalent";
    case Verdict::Different:
      return "different";
    case Verdict::Unknown:
      break;
  }
  return "unknown";
}

Outcome verdict_outcome(Verdict v) {
  switch (v) {
    case Verdict::Equivalent:
      return Outcome::Equal;
    case Verdict::Different:
      return Outcome::WrongKey;
    case Verdict::Unknown:
      break;
  }
  return Outcome::Timeout;
}

VerifyOptions verify_options_for(const AttackBudget& budget) {
  VerifyOptions v;
  v.time_limit_s = budget.verify_time_limit_s;
  return v;
}

VerifyResult verify_static_key(const Netlist& locked, const sim::BitVec& key,
                               const Netlist& original,
                               const VerifyOptions& options) {
  if (key.size() != locked.key_inputs().size()) {
    throw std::invalid_argument("verify_static_key: key width mismatch");
  }
  // Phase 1: randomized simulation. Both circuits compile once for all
  // trials (the levelization is the expensive part on large netlists).
  VerifyResult out;
  util::Rng rng(options.seed);
  out.counterexample = sim::find_counterexample(
      sim::CompiledNetlist(original), sim::CompiledNetlist(locked), {key},
      rng, options.random_sequences, options.sequence_cycles);
  if (!out.counterexample.empty()) {
    out.verdict = Verdict::Different;
    return out;
  }
  // Phase 2: bounded SAT equivalence with the key folded in, as an
  // incremental depth ladder — each per-depth UNSAT proof reuses the learned
  // clauses of the previous one. A depth whose miter folded to constant
  // false is proven without a solve.
  sat::Solver solver;
  solver.set_conflict_budget(options.conflict_budget);
  solver.set_time_budget(options.time_limit_s);
  cnf::EquivalenceMiter miter(solver, locked, key, original);
  const auto conclude = [&](Verdict verdict) {
    out.verdict = verdict;
    out.cnf_vars = static_cast<std::uint64_t>(solver.num_vars());
    out.cnf_clauses = solver.num_clauses();
    out.conflicts = solver.num_conflicts();
    return out;
  };
  for (std::size_t depth = 1; depth <= options.sat_depth; ++depth) {
    miter.extend_to(depth);
    const sat::Lit diff = miter.diff_within(depth);
    if (diff == miter.constant(false)) continue;
    const sat::Result r = solver.solve({diff});
    if (r == sat::Result::Sat) {
      out.counterexample = miter.extract_inputs(depth);
      return conclude(Verdict::Different);
    }
    if (r == sat::Result::Unknown) {
      // Equivalence holds up to depth-1 but is unproven beyond.
      return conclude(Verdict::Unknown);
    }
  }
  return conclude(Verdict::Equivalent);
}

}  // namespace cl::attack
