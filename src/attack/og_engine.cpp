#include "attack/og_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace cl::attack {

using netlist::Netlist;
using sat::Result;

namespace {
/// A banked fact the engine may use on `nl`: nonempty, one output frame per
/// input frame, every frame as wide as nl's inputs (outputs). A bank file is
/// untrusted input, and the fact encoder indexes every frame.
bool fits_circuit(const Netlist& nl, const std::vector<sim::BitVec>& inputs,
                  const std::vector<sim::BitVec>& outputs) {
  const auto all_of_width = [](const std::vector<sim::BitVec>& frames,
                               std::size_t width) {
    return std::all_of(frames.begin(), frames.end(),
                       [width](const sim::BitVec& f) { return f.size() == width; });
  };
  return !inputs.empty() && inputs.size() == outputs.size() &&
         all_of_width(inputs, nl.inputs().size()) &&
         all_of_width(outputs, nl.outputs().size());
}
}  // namespace

OgEngine::OgEngine(const Netlist& locked, const SequentialOracle& oracle,
                   const AttackBudget& budget, ObservationBank* bank)
    : locked_(locked), oracle_(oracle), budget_(budget), bank_(bank),
      rng_(0) {}

AttackResult OgEngine::run(DipStrategy& strategy) {
  spec_ = strategy.spec();
  if (spec_.combinational && !locked_.dffs().empty()) {
    throw std::invalid_argument(
        std::string(spec_.caller) +
        ": expects a combinational (scan-exposed) circuit");
  }
  if (locked_.key_inputs().empty()) {
    throw std::invalid_argument(std::string(spec_.caller) +
                                ": circuit has no key inputs");
  }
  rng_ = util::Rng(spec_.seed);
  result_ = AttackResult{};
  candidate_.clear();
  io_.clear();
  miter_.reset();  // references the solver: destroy before it
  solver_.reset();
  timer_.reset();
  compiled_.emplace(locked_);
  prepare_hints();
  return strategy.attack(*this);
}

void OgEngine::set_hints(std::vector<std::pair<std::size_t, bool>> hints) {
  hints_ = std::move(hints);
}

void OgEngine::prepare_hints() {
  const std::size_t bits = locked_.key_inputs().size();
  hints_.erase(std::remove_if(hints_.begin(), hints_.end(),
                              [bits](const std::pair<std::size_t, bool>& h) {
                                return h.first >= bits;
                              }),
               hints_.end());
  hints_active_ = !hints_.empty();
  result_.hinted_bits = hints_.size();
}

Result OgEngine::solve_hinted(std::vector<sat::Lit> assumptions,
                              bool drop_on_unsat) {
  if (!hints_active_) return solver_->solve(assumptions);
  std::vector<sat::Lit> with = assumptions;
  for (const auto& [bit, value] : hints_) {
    // Pin BOTH key copies: a hint is a claim about the key itself, and the
    // miter's two hypothesis keys must explore the same restricted space.
    const sat::Var a = miter_->keys_a()[bit];
    const sat::Var b = miter_->keys_b()[bit];
    with.push_back(value ? sat::pos(a) : sat::neg(a));
    with.push_back(value ? sat::pos(b) : sat::neg(b));
  }
  const Result r = solver_->solve(with);
  if (r != Result::Unsat || !drop_on_unsat) return r;
  // Consistency check: Unsat under hints means they contradict the recorded
  // oracle facts. They are no longer trustworthy — drop them for the rest of
  // the run and re-ask, so a Cns verdict is only ever concluded hint-free.
  // (Diff solves pass drop_on_unsat=false: there, Unsat just means the
  // hinted subspace is fully discriminated, and the loop routes that to the
  // consistency phase where external verification arbitrates.)
  hints_active_ = false;
  arm_deadline();
  return solver_->solve(assumptions);
}

bool OgEngine::out_of_budget() const {
  return budget_.cancelled() || timer_.seconds() > budget_.time_limit_s ||
         result_.iterations >= budget_.max_iterations;
}

double OgEngine::elapsed_s() const { return timer_.seconds(); }

double OgEngine::remaining_s() const {
  return std::max(0.0, budget_.time_limit_s - timer_.seconds());
}

void OgEngine::arm_deadline() { arm_deadline(*solver_); }

void OgEngine::arm_deadline(sat::Solver& solver) const {
  solver.set_time_budget(remaining_s());
}

VerifyOptions OgEngine::verify_options(bool clamp_to_remaining) const {
  VerifyOptions v = verify_options_for(budget_);
  if (clamp_to_remaining) {
    v.time_limit_s = std::min(remaining_s(), v.time_limit_s);
  }
  return v;
}

std::optional<std::vector<sim::BitVec>> OgEngine::bank_lookup(
    const std::vector<sim::BitVec>& inputs) {
  if (bank_ == nullptr) return std::nullopt;
  std::optional<std::vector<sim::BitVec>> banked = bank_->lookup(inputs);
  if (!banked || !fits_circuit(locked_, inputs, *banked)) return std::nullopt;
  ++result_.replayed_queries;
  return banked;
}

std::vector<sim::BitVec> OgEngine::query_oracle(
    const std::vector<sim::BitVec>& inputs) {
  // Exact repeats of a banked sequence (shared warmup traces, recurring
  // counterexamples) are answered from the bank, not the oracle.
  if (auto banked = bank_lookup(inputs)) return *std::move(banked);
  ++result_.fresh_queries;
  std::vector<sim::BitVec> outputs = oracle_.query(inputs);
  if (bank_ != nullptr) bank_->record(inputs, outputs);
  return outputs;
}

std::vector<std::vector<sim::BitVec>> OgEngine::query_oracle_batch(
    const std::vector<std::vector<sim::BitVec>>& sequences) {
  std::vector<std::vector<sim::BitVec>> outputs(sequences.size());
  // Bank hits are answered in place; the misses go to the oracle in wide
  // batches, grouped by sequence length (query_batch requires equal-length
  // lanes).
  std::vector<std::size_t> misses;
  for (std::size_t j = 0; j < sequences.size(); ++j) {
    if (auto banked = bank_lookup(sequences[j])) {
      outputs[j] = *std::move(banked);
      continue;
    }
    misses.push_back(j);
  }
  std::size_t group_begin = 0;
  while (group_begin < misses.size()) {
    std::size_t group_end = group_begin + 1;
    const std::size_t cycles = sequences[misses[group_begin]].size();
    while (group_end < misses.size() &&
           sequences[misses[group_end]].size() == cycles) {
      ++group_end;
    }
    std::vector<std::vector<sim::BitVec>> batch;
    batch.reserve(group_end - group_begin);
    for (std::size_t g = group_begin; g < group_end; ++g) {
      batch.push_back(sequences[misses[g]]);
    }
    std::vector<std::vector<sim::BitVec>> responses =
        oracle_.query_batch(batch);
    for (std::size_t g = group_begin; g < group_end; ++g) {
      const std::size_t j = misses[g];
      ++result_.fresh_queries;
      ++result_.batched_queries;
      if (bank_ != nullptr) bank_->record(sequences[j], responses[g - group_begin]);
      outputs[j] = std::move(responses[g - group_begin]);
    }
    ++result_.oracle_batches;
    group_begin = group_end;
  }
  return outputs;
}

void OgEngine::constrain_both_keys(const std::vector<sim::BitVec>& inputs,
                                   const std::vector<sim::BitVec>& outputs) {
  const std::vector<sat::Var>* init =
      spec_.symbolic_init ? &miter_->initial_state_vars() : nullptr;
  cnf::constrain_key_on_sequence(*solver_, *compiled_, miter_->keys_a(), inputs,
                                 outputs, init);
  cnf::constrain_key_on_sequence(*solver_, *compiled_, miter_->keys_b(), inputs,
                                 outputs, init);
}

void OgEngine::add_io(const std::vector<sim::BitVec>& inputs) {
  IoFact fact{inputs, query_oracle(inputs)};
  constrain_both_keys(fact.inputs, fact.outputs);
  io_.push_back(std::move(fact));
  ++result_.iterations;
}

void OgEngine::add_io_batch(
    const std::vector<std::vector<sim::BitVec>>& sequences) {
  std::vector<std::vector<sim::BitVec>> outputs = query_oracle_batch(sequences);
  for (std::size_t j = 0; j < sequences.size(); ++j) {
    constrain_both_keys(sequences[j], outputs[j]);
    io_.push_back(IoFact{sequences[j], std::move(outputs[j])});
    ++result_.iterations;
  }
}

std::unique_ptr<sat::Solver> OgEngine::make_solver() const {
  auto solver = std::make_unique<sat::Solver>();
  solver->set_conflict_budget(budget_.conflict_budget);
  // A cancelled job must not sit out a long solve: the budget's cancel flag
  // doubles as the solver's interrupt hook (solve returns Unknown, which the
  // loop routes to finish_timeout).
  if (budget_.cancel != nullptr) solver->set_interrupt(budget_.cancel);
  return solver;
}

void OgEngine::rebuild(std::size_t depth) {
  solver_ = make_solver();
  miter_ = std::make_unique<cnf::SequentialMiter>(*solver_, locked_,
                                                  spec_.symbolic_init);
  miter_->extend_to(depth);
  for (const IoFact& fact : io_) {
    constrain_both_keys(fact.inputs, fact.outputs);
  }
}

std::vector<Observation> OgEngine::banked_observations() {
  std::vector<Observation> out;
  if (bank_ == nullptr) return out;
  for (Observation& obs : bank_->snapshot()) {
    // Facts from a different interface cannot be recorded into this bank
    // (the registry keys on the locked/reference pair), but a loaded bank
    // file can hold anything.
    if (!fits_circuit(locked_, obs.inputs, obs.outputs)) continue;
    out.push_back(std::move(obs));
    // Startup constraints are prior knowledge, not avoided oracle calls:
    // counting them as replayed_queries would inflate the "queries answered
    // from the bank" statistic BENCH JSON defines as avoided oracle queries.
    ++result_.preloaded_facts;
  }
  return out;
}

void OgEngine::replay_bank() {
  for (const Observation& obs : banked_observations()) {
    constrain_both_keys(obs.inputs, obs.outputs);
    io_.push_back(IoFact{obs.inputs, obs.outputs});
  }
}

AttackResult OgEngine::finish(Outcome outcome, std::string detail) {
  result_.outcome = outcome;
  result_.seconds = timer_.seconds();
  result_.detail = std::move(detail);
  if (outcome == Outcome::Equal && !hints_.empty() && !result_.key.empty()) {
    // Ground truth is only available once a key verified: score the hints
    // against it so BENCH JSON can report how good the structural pass was.
    std::size_t correct = 0;
    for (const auto& [bit, value] : hints_) {
      if (bit < result_.key.size() && (result_.key[bit] != 0) == value) {
        ++correct;
      }
    }
    result_.hint_accuracy =
        static_cast<double>(correct) / static_cast<double>(hints_.size());
  }
  return result_;
}

AttackResult OgEngine::finish_timeout(std::string detail) {
  result_.key = candidate_;
  return finish(Outcome::Timeout, std::move(detail));
}

AttackResult OgEngine::run_dip_loop(DipStrategy& strategy) {
  rebuild(spec_.start_depth);
  replay_bank();
  if (spec_.warmup_sequences > 0 && !out_of_budget()) {
    // Simulation-guided warmup: random traces prune the hypothesis space
    // before the (expensive) discriminating-sequence search starts. Warmup
    // queries are real oracle queries, so they honour the budget too — a
    // job cancelled before its first solve must not pay any, and the batch
    // is capped at the iterations the budget has left. Stimuli are drawn in
    // the same RNG order as per-sequence warmup, and add_io_batch constrains
    // in element order, so the solver sees an identical clause stream — the
    // only change is that all bank misses ride one wide oracle pass.
    const std::uint64_t room = budget_.max_iterations - result_.iterations;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(spec_.warmup_sequences, room));
    std::vector<std::vector<sim::BitVec>> warm;
    warm.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      warm.push_back(sim::random_stimulus(rng_, spec_.warmup_cycles,
                                          oracle_.num_inputs()));
    }
    add_io_batch(warm);
  }

  const std::size_t depth = spec_.start_depth;
  if (!spec_.combinational && depth > budget_.max_depth) {
    return finish(Outcome::Fail, "start depth exceeds the budget's max depth");
  }
  std::size_t dip_rounds = 0;
  for (;;) {
    // DIS search at the current depth.
    bool dis_exhausted = false;
    while (!dis_exhausted) {
      if (out_of_budget()) {
        return finish_timeout(
            spec_.combinational
                ? "budget exhausted after " + std::to_string(dip_rounds) +
                      " DIP rounds"
                : "budget exhausted at depth " + std::to_string(depth));
      }
      arm_deadline();
      const Result r = solve_hinted({miter_->diff_within(depth)}, false);
      if (r == Result::Unknown) {
        return finish_timeout(
            spec_.combinational
                ? "solver conflict budget exhausted"
                : "solver budget exhausted at depth " + std::to_string(depth));
      }
      if (r == Result::Unsat) break;  // no DIP/DIS remains at this depth

      for (std::size_t d = 0; d < spec_.dips_per_round; ++d) {
        Result rr = r;
        if (d != 0) {
          // Every extra DIP of a multi-DIP round is a full solve: it gets
          // the same budget check and deadline re-arm as the first, or a
          // round with a large dips_per_round blows far past
          // time_limit_s/max_iterations.
          if (out_of_budget()) {
            return finish_timeout(
                spec_.combinational
                    ? "budget exhausted after " + std::to_string(dip_rounds) +
                          " DIP rounds"
                    : "budget exhausted at depth " + std::to_string(depth));
          }
          arm_deadline();
          rr = solve_hinted({miter_->diff_within(depth)}, false);
        }
        if (rr == Result::Unknown) {
          // Solver budget death mid-round is a timeout, not "no DIP remains"
          // — conflating the two let a starved round fall through to the
          // consistency phase and report a verdict it never earned.
          return finish_timeout(
              spec_.combinational
                  ? "solver conflict budget exhausted"
                  : "solver budget exhausted at depth " +
                        std::to_string(depth));
        }
        if (rr == Result::Unsat) break;
        add_io(miter_->extract_inputs(depth));
      }
      ++dip_rounds;

      AttackResult done;
      switch (strategy.after_round(*this, dip_rounds, &done)) {
        case DipStrategy::RoundAction::kContinue:
          break;
        case DipStrategy::RoundAction::kBreakDis:
          dis_exhausted = true;
          break;
        case DipStrategy::RoundAction::kDone:
          return done;
      }
    }

    // Keys are indistinguishable within `depth` under all recorded
    // responses: any consistent key is the attack's current answer.
    arm_deadline();
    const Result consistent = solve_hinted({}, true);
    if (consistent == Result::Unknown) {
      return finish_timeout(spec_.combinational
                                ? "consistency check exceeded solver budget"
                                : "consistency check exceeded budget");
    }
    if (consistent == Result::Unsat) {
      return finish(
          Outcome::Cns,
          spec_.combinational
              ? "no static key is consistent with the oracle responses"
              : "key space empty after " + std::to_string(io_.size()) +
                    " oracle sequences (depth " + std::to_string(depth) + ")");
    }
    const sim::BitVec key = miter_->extract_key_a();
    set_candidate(key);
    const VerifyResult v =
        verify_static_key(locked_, key, oracle_.reference(),
                          verify_options(!spec_.combinational));
    if (v.verdict == Verdict::Unknown) {
      // Neither proven nor refuted: the budget ran out, whatever the key.
      return finish_timeout("key verification exceeded its budget");
    }
    if (spec_.combinational && !hints_active_) {
      // Scan-model attacks conclude here, right or wrong: with no DIP left
      // there is nothing more the oracle can discriminate. (Only hint-free:
      // under hints, "no DIP left" covers the hinted subspace, not the key
      // space — the hint-failure branch below re-enters the search instead.)
      result_.key = key;
      return finish(verdict_outcome(v.verdict), "");
    }
    if (v.verdict == Verdict::Equivalent) {
      // Externally verified, so hints (if any) didn't have to be earned off.
      result_.key = key;
      return finish(Outcome::Equal,
                    spec_.combinational
                        ? ""
                        : "verified at depth " + std::to_string(depth));
    }
    // The candidate fails on a real sequence. Under hints, their subspace's
    // best candidate failing means the hints were wrong: drop them for the
    // rest of the run, so every terminal verdict from here on is reached
    // exactly as it would have been without hints. Then feed the
    // counterexample back as an oracle constraint (this is what drives
    // multi-key locks to CNS) and retry at the same depth.
    hints_active_ = false;
    add_io(v.counterexample);
    strategy.on_refuted(*this, key);
  }
}

AttackResult DipStrategy::attack(OgEngine& engine) {
  return engine.run_dip_loop(*this);
}

DipStrategy::RoundAction DipStrategy::after_round(OgEngine&, std::size_t,
                                                  AttackResult*) {
  return RoundAction::kContinue;
}

void DipStrategy::on_refuted(OgEngine&, const sim::BitVec&) {}

}  // namespace cl::attack
