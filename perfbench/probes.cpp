#include "probes.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "attack/bbo.hpp"
#include "attack/seq_attack.hpp"
#include "attack/verify.hpp"
#include "cnf/miter.hpp"
#include "sat/solver.hpp"
#include "sim/sequence.hpp"
#include "span.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using Sequence = std::vector<cl::sim::BitVec>;

/// The shapes the attacks themselves use. An engine attack's first facts are
/// its warmup traces (bmc/kc2 take SeqAttackOptions' 2 of 12 cycles,
/// rane_attack 8 of 16); every later fact is a discriminating sequence as
/// long as the miter, which starts at SeqAttackOptions::start_depth. BBO
/// screens pools of 8 sequences x 32 cycles.
const cl::attack::SeqAttackOptions kSeq{};
constexpr std::size_t kRaneWarmupSequences = 8;
constexpr std::size_t kRaneWarmupCycles = 16;
const cl::attack::BboOptions kBbo{};

/// Seeded stand-ins for the facts an engine cell's attack paid for, one per
/// fresh oracle query: the warmup traces the attack queried in one batch,
/// then the discriminating sequences it queried one at a time.
struct Facts {
  std::vector<Sequence> warmup;
  std::vector<Sequence> dis;
};

Facts engine_facts(const CellSpec& spec, std::uint64_t fresh_queries,
                   std::size_t depth, std::size_t width, cl::util::Rng& rng) {
  const bool rane = spec.attack == Family::Rane;
  const std::uint64_t warmup = std::min<std::uint64_t>(
      rane ? kRaneWarmupSequences : kSeq.warmup_sequences, fresh_queries);
  const std::size_t warmup_cycles =
      rane ? kRaneWarmupCycles : kSeq.warmup_cycles;
  Facts facts;
  for (std::uint64_t q = 0; q < fresh_queries; ++q) {
    if (q < warmup) {
      facts.warmup.push_back(
          cl::sim::random_stimulus(rng, warmup_cycles, width));
    } else {
      facts.dis.push_back(cl::sim::random_stimulus(rng, depth, width));
    }
  }
  return facts;
}

void probe_verify(const CellSpec& spec, const Instance& instance,
                  const cl::attack::AttackResult& result, ProbeTotals& totals) {
  if (result.outcome != cl::attack::Outcome::Equal) return;
  const cl::netlist::Netlist& locked = instance.locked.locked;
  const cl::netlist::Netlist& reference = instance.circuit.netlist;
  const cl::attack::VerifyOptions full =
      cl::attack::verify_options_for(spec.budget);
  {
    Span span(&totals.verify_s);
    cl::attack::verify_static_key(locked, result.key, reference, full);
  }
  cl::attack::VerifyOptions sim_only = full;
  sim_only.sat_depth = 0;
  {
    Span span(&totals.verify_sim_s);
    cl::attack::verify_static_key(locked, result.key, reference, sim_only);
  }
  cl::attack::VerifyOptions sat_only = full;
  sat_only.random_sequences = 0;
  {
    Span span(&totals.verify_sat_s);
    cl::attack::verify_static_key(locked, result.key, reference, sat_only);
  }
  ++totals.verify_calls;
}

/// Queries the oracle for every fact in the attack's shape and returns the
/// responses in fact order (warmup first).
std::vector<Sequence> probe_engine_oracle(const Instance& instance,
                                          const Facts& facts,
                                          ProbeTotals& totals) {
  std::vector<Sequence> responses;
  {
    Span span(&totals.oracle_query_s);
    if (!facts.warmup.empty()) {
      responses = instance.oracle->query_batch(facts.warmup);
    }
    for (const Sequence& inputs : facts.dis) {
      responses.push_back(instance.oracle->query(inputs));
    }
  }
  totals.oracle_patterns += facts.warmup.size() + facts.dis.size();
  return responses;
}

void probe_cnf_and_sat(const CellSpec& spec, const Instance& instance,
                       const Facts& facts,
                       const std::vector<Sequence>& responses,
                       std::size_t depth, ProbeTotals& totals) {
  const cl::netlist::Netlist& locked = instance.locked.locked;
  const bool rane = spec.attack == Family::Rane;
  cl::sat::Solver solver;
  solver.set_conflict_budget(spec.budget.conflict_budget);

  std::optional<cl::cnf::SequentialMiter> miter;
  {
    Span span(&totals.miter_build_s);
    miter.emplace(solver, locked, rane);
    miter->extend_to(depth);
  }
  const std::uint64_t miter_vars = static_cast<std::uint64_t>(solver.num_vars());
  const std::uint64_t miter_clauses = solver.num_clauses();
  totals.miter_vars += miter_vars;
  totals.miter_clauses += miter_clauses;

  const std::vector<cl::sat::Var>* init =
      rane ? &miter->initial_state_vars() : nullptr;
  {
    Span span(&totals.fact_encode_s);
    for (std::size_t f = 0; f < responses.size(); ++f) {
      const Sequence& inputs = f < facts.warmup.size()
                                   ? facts.warmup[f]
                                   : facts.dis[f - facts.warmup.size()];
      cl::cnf::constrain_key_on_sequence(solver, locked, miter->keys_a(),
                                         inputs, responses[f], init);
      cl::cnf::constrain_key_on_sequence(solver, locked, miter->keys_b(),
                                         inputs, responses[f], init);
    }
  }
  totals.fact_vars += static_cast<std::uint64_t>(solver.num_vars()) - miter_vars;
  totals.fact_clauses += solver.num_clauses() - miter_clauses;

  const cl::sat::Solver::Stats before = solver.stats();
  {
    Span span(&totals.solve_s);
    solver.solve({miter->diff_within(depth)});
  }
  totals.conflicts += solver.stats().conflicts - before.conflicts;
  totals.propagations += solver.stats().propagations - before.propagations;
}

void probe_bbo_oracle(const Instance& instance, std::uint64_t patterns,
                      cl::util::Rng& rng, ProbeTotals& totals) {
  const std::size_t width = instance.oracle->num_inputs();
  while (patterns > 0) {
    const std::size_t lanes = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBbo.screen_sequences, patterns));
    std::vector<Sequence> batch;
    for (std::size_t j = 0; j < lanes; ++j) {
      batch.push_back(cl::sim::random_stimulus(rng, kBbo.screen_cycles, width));
    }
    {
      Span span(&totals.oracle_query_s);
      instance.oracle->query_batch(batch);
    }
    totals.oracle_patterns += lanes;
    patterns -= lanes;
  }
}

}  // namespace

void probe_cell(const CellSpec& spec, const Instance& instance,
                const cl::attack::AttackResult& result,
                std::uint64_t oracle_patterns, std::uint64_t seed,
                ProbeTotals& totals) {
  cl::util::Rng rng(seed);
  probe_verify(spec, instance, result, totals);
  if (spec.attack == Family::Bbo) {
    probe_bbo_oracle(instance, oracle_patterns, rng, totals);
    return;
  }
  const std::size_t depth = std::min(spec.budget.max_depth, kSeq.start_depth);
  const Facts facts = engine_facts(spec, result.fresh_queries, depth,
                                   instance.oracle->num_inputs(), rng);
  const std::vector<Sequence> responses =
      probe_engine_oracle(instance, facts, totals);
  probe_cnf_and_sat(spec, instance, facts, responses, depth, totals);
}

}  // namespace perfbench
