#include "attack/verify.hpp"

#include <stdexcept>

#include "cnf/miter.hpp"

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
  util::Rng rng(options.seed);
  // Phase 1: randomized simulation. Both circuits compile once for all
  // trials (the levelization is the expensive part on large netlists), and
  // the trials ride wide pattern lanes: one chunk of up to 64 sequences per
  // eval pair instead of one eval pair per trial. Chunks of one lane word
  // keep the early exit cheap when divergence is common (the DIP loop's
  // refuted candidates). Trials are scanned in draw order, so the returned
  // counterexample is the one per-trial simulation would have found.
  const sim::CompiledNetlist compiled_original(original);
  const sim::CompiledNetlist compiled_locked(locked);
  for (std::size_t done = 0; done < options.random_sequences;) {
    const std::size_t chunk =
        std::min<std::size_t>(64, options.random_sequences - done);
    std::vector<std::vector<sim::BitVec>> stims;
    stims.reserve(chunk);
    for (std::size_t t = 0; t < chunk; ++t) {
      stims.push_back(sim::random_stimulus(rng, options.sequence_cycles,
                                           original.inputs().size()));
    }
    const auto want = sim::run_sequences_batched(compiled_original, stims);
    const auto got = sim::run_sequences_batched(compiled_locked, stims, {key});
    for (std::size_t t = 0; t < chunk; ++t) {
      const int diverge = sim::first_divergence(want[t], got[t]);
      if (diverge != -1) {
        VerifyResult r;
        r.verdict = Verdict::Different;
        r.counterexample.assign(stims[t].begin(),
                                stims[t].begin() + diverge + 1);
        return r;
      }
    }
    done += chunk;
  }
  // Phase 2: bounded SAT equivalence with the key folded in, as an
  // incremental depth ladder — each per-depth UNSAT proof reuses the learned
  // clauses of the previous one. A depth whose miter folded to constant
  // false is proven without a solve.
  sat::Solver solver;
  solver.set_conflict_budget(options.conflict_budget);
  solver.set_time_budget(options.time_limit_s);
  cnf::EquivalenceMiter miter(solver, locked, key, original);
  VerifyResult out;
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
