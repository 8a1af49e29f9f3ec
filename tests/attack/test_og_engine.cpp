#include "attack/og_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

#include "analysis/key_infer.hpp"
#include "attack/sat_attack.hpp"
#include "attack/seq_attack.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/comb_locks.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/transform.hpp"

namespace cl::attack {
namespace {

using netlist::Netlist;

const char* k_s27 = R"(
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
)";

Netlist s27() { return netlist::read_bench_string(k_s27, "s27"); }

/// Strategy that plants a candidate, then starves the solver so the next
/// diff solve returns Unknown — the path that historically (sat_attack.cpp's
/// conflict-budget branch) dropped the candidate from the Timeout report.
class StarveAfterCandidateStrategy : public DipStrategy {
 public:
  const char* name() const override { return "starve"; }
  Spec spec() const override {
    Spec s;
    s.start_depth = 2;
    s.caller = "starve";
    return s;
  }
  RoundAction after_round(OgEngine& engine, std::size_t, AttackResult*) override {
    engine.set_candidate({1, 0, 1});
    // A zero propagation budget trips on the very next solve, regardless of
    // how easy the instance is (conflict budgets only trip on conflicts).
    engine.solver().set_propagation_budget(0);
    return RoundAction::kContinue;
  }
};

TEST(OgEngine, SolverBudgetTimeoutReportsTheCandidate) {
  // The historical sat_attack bug: the budget-exhausted *solver* path
  // (Result::Unknown) returned Timeout without the current best candidate,
  // unlike the wall-clock path. The engine reports it on every Timeout path.
  const Netlist nl = s27();
  util::Rng rng(3);
  const auto lr = lock::xor_lock(nl, 6, rng);
  SequentialOracle oracle(nl);
  AttackBudget budget;
  budget.time_limit_s = 30.0;
  OgEngine engine(lr.locked, oracle, budget);
  StarveAfterCandidateStrategy strategy;
  const AttackResult r = engine.run(strategy);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_EQ(r.key, sim::BitVec({1, 0, 1})) << "the candidate must survive "
                                              "into the Timeout report";
  EXPECT_NE(r.detail.find("solver budget exhausted"), std::string::npos)
      << r.detail;
}

TEST(OgEngine, SeqTimeoutWithNoCandidateReportsEmptyKey) {
  // The complementary case to the starvation test above: when the budget
  // trips before any consistency solve produced a candidate, the Timeout
  // report carries an empty key rather than an invented one.
  const Netlist nl = s27();
  util::Rng rng(11);
  const auto lr = lock::xor_lock(nl, 4, rng);
  SequentialOracle oracle(nl);
  AttackBudget b;
  b.time_limit_s = 30.0;
  b.max_iterations = 0;  // warmupless instant trip
  SeqAttackOptions o;
  o.budget = b;
  o.warmup_sequences = 0;
  const AttackResult r = seq_attack(lr.locked, oracle, o);
  EXPECT_EQ(r.outcome, Outcome::Timeout);
  EXPECT_TRUE(r.key.empty());  // no candidate existed yet: reported as-is
}

TEST(OgEngine, EngineAttacksMatchTheirLegacyContracts) {
  // The engine-based entry points keep their observable behaviour: classic
  // SAT recovers XOR-lock keys, Double-DIP agrees, BMC/KC2 break the
  // sequential lock and report identical keys for identical budgets.
  const Netlist nl = s27();
  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 6, rng);
  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist original_scan = netlist::scan_expose(nl);
  SequentialOracle oracle(original_scan);

  const AttackResult classic = sat_attack(locked_scan, oracle);
  EXPECT_EQ(classic.outcome, Outcome::Equal) << classic.summary();
  EXPECT_EQ(classic.key, lr.correct_key);
  EXPECT_EQ(classic.fresh_queries, classic.iterations);

  SatAttackOptions dd;
  dd.mode = SatAttackOptions::Mode::DoubleDip;
  const AttackResult doubled = sat_attack(locked_scan, oracle, dd);
  EXPECT_EQ(doubled.outcome, Outcome::Equal) << doubled.summary();
  EXPECT_EQ(doubled.key, lr.correct_key);
}

TEST(OgEngine, BatchedOracleQueriesMatchSerialAndCountTraffic) {
  // query_oracle_batch answers like N query_oracle calls, but groups the
  // misses into wide-lane oracle passes (consecutive equal lengths share a
  // pass) and accounts them as batched_queries / oracle_batches on top of
  // the fresh/replayed split.
  const Netlist nl = s27();
  util::Rng rng(5);
  const auto lr = lock::xor_lock(nl, 4, rng);
  SequentialOracle oracle(nl);
  ObservationBank bank;
  OgEngine engine(lr.locked, oracle, AttackBudget{}, &bank);

  std::vector<std::vector<sim::BitVec>> seqs;
  seqs.push_back(sim::random_stimulus(engine.rng(), 3, oracle.num_inputs()));
  seqs.push_back(sim::random_stimulus(engine.rng(), 3, oracle.num_inputs()));
  seqs.push_back(sim::random_stimulus(engine.rng(), 5, oracle.num_inputs()));

  const auto batched = engine.query_oracle_batch(seqs);
  ASSERT_EQ(batched.size(), seqs.size());
  EXPECT_EQ(engine.result().fresh_queries, 3u);
  EXPECT_EQ(engine.result().batched_queries, 3u);
  EXPECT_EQ(engine.result().oracle_batches, 2u);  // lengths {3,3} and {5}
  EXPECT_EQ(engine.result().replayed_queries, 0u);

  // Element-for-element equal to the serial path — which now answers every
  // repeat from the bank the batch recorded into, costing no fresh queries.
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(batched[i], engine.query_oracle(seqs[i])) << "sequence " << i;
  }
  EXPECT_EQ(engine.result().fresh_queries, 3u);
  EXPECT_EQ(engine.result().replayed_queries, 3u);

  // A second batch over already-banked sequences is all replays: no new
  // batches, no new oracle traffic.
  const auto replayed = engine.query_oracle_batch(seqs);
  EXPECT_EQ(replayed, batched);
  EXPECT_EQ(engine.result().fresh_queries, 3u);
  EXPECT_EQ(engine.result().batched_queries, 3u);
  EXPECT_EQ(engine.result().oracle_batches, 2u);
  EXPECT_EQ(engine.result().replayed_queries, 6u);
}

TEST(OgEngine, WarmupSequencesRideOneOracleBatch) {
  // The shared DIP loop's warmup stimuli retire in one wide oracle pass,
  // and the accounting shows up in the result (and from there in the BENCH
  // json).
  const Netlist nl = s27();
  util::Rng rng(7);
  const auto lr = lock::xor_lock(nl, 4, rng);
  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist original_scan = netlist::scan_expose(nl);
  SequentialOracle oracle(original_scan);
  SeqAttackOptions o;
  o.warmup_sequences = 6;
  o.warmup_cycles = 3;
  const AttackResult r = seq_attack(locked_scan, oracle, o);
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
  EXPECT_EQ(r.batched_queries, 6u);
  EXPECT_EQ(r.oracle_batches, 1u);
  EXPECT_GE(r.fresh_queries, r.batched_queries);
}

TEST(OgEngine, WarmupThatUsesUpTheIterationBudgetEndsNotApplicable) {
  // RANE's eight warmup traces leave no static key on this two-phase lock,
  // but with max_iterations = 8 they also use up the budget: the budget test
  // comes first, so the run ends N/A, not CNS.
  const Netlist nl = benchgen::make_circuit("b03").netlist;
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 3;
  options.seed = 7;
  const auto lr = core::cute_lock_str(nl, options);
  SequentialOracle oracle(nl);
  AttackBudget budget;
  budget.time_limit_s = 30.0;
  const AttackResult cns = rane_attack(lr.locked, oracle, budget);
  ASSERT_EQ(cns.outcome, Outcome::Cns) << cns.summary();
  ASSERT_EQ(cns.iterations, 8u);

  budget.max_iterations = 8;
  const AttackResult r = rane_attack(lr.locked, oracle, budget);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_EQ(r.detail, "budget exhausted at depth 2");
  EXPECT_EQ(r.iterations, 8u);
}

TEST(OgEngine, ValidationErrorsKeepTheirCallers) {
  const Netlist nl = s27();
  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 2, rng);
  SequentialOracle oracle(nl);
  // Sequential circuit into the scan-model attack: rejected.
  EXPECT_THROW(sat_attack(lr.locked, oracle), std::invalid_argument);
  // Key-less circuit into the sequential attack: rejected.
  EXPECT_THROW(bmc_attack(nl, oracle), std::invalid_argument);
}

/// A minimal custom strategy: proves the DipStrategy contract is genuinely
/// pluggable from outside the built-in attacks. It runs the shared loop as a
/// plain BMC but gives up (kDone) after the first round.
class OneRoundStrategy : public DipStrategy {
 public:
  const char* name() const override { return "one-round"; }
  Spec spec() const override {
    Spec s;
    s.start_depth = 2;
    s.caller = "one_round";
    return s;
  }
  RoundAction after_round(OgEngine& engine, std::size_t rounds,
                          AttackResult* done) override {
    rounds_seen = rounds;
    *done = engine.finish(Outcome::Fail, "gave up after one round");
    return RoundAction::kDone;
  }
  std::size_t rounds_seen = 0;
};

TEST(OgEngine, CustomStrategiesPlugIn) {
  const Netlist nl = s27();
  util::Rng rng(2);
  const auto lr = lock::xor_lock(nl, 4, rng);
  SequentialOracle oracle(nl);
  AttackBudget budget;
  budget.time_limit_s = 30.0;
  OgEngine engine(lr.locked, oracle, budget);
  OneRoundStrategy strategy;
  const AttackResult r = engine.run(strategy);
  EXPECT_EQ(strategy.rounds_seen, 1u);
  EXPECT_EQ(r.outcome, Outcome::Fail);
  EXPECT_EQ(r.detail, "gave up after one round");
  EXPECT_EQ(r.iterations, 1u);  // exactly one DIS was extracted and queried
}

TEST(OgEngine, BudgetHelperIsFloorFree) {
  // The historical per-attack lambdas armed a 0.05 s deadline even after the
  // budget was exhausted; the engine's helper reports zero instead.
  const Netlist nl = s27();
  util::Rng rng(2);
  const auto lr = lock::xor_lock(nl, 2, rng);
  SequentialOracle oracle(nl);
  AttackBudget budget;
  budget.time_limit_s = 0.0;  // exhausted on arrival
  OgEngine engine(lr.locked, oracle, budget);
  EXPECT_EQ(engine.remaining_s(), 0.0);
  EXPECT_TRUE(engine.out_of_budget());
  // And the attack as a whole reports Timeout rather than hanging on a
  // grace-period deadline.
  const AttackResult r = bmc_attack(lr.locked, oracle, budget);
  EXPECT_EQ(r.outcome, Outcome::Timeout);
}

/// Shared-loop strategy with a configurable multi-DIP round width — the
/// Double-DIP shape taken to an extreme, so the inner loop's budget
/// behaviour becomes observable.
class WideRoundStrategy : public DipStrategy {
 public:
  explicit WideRoundStrategy(std::size_t dips) : dips_(dips) {}
  const char* name() const override { return "wide"; }
  Spec spec() const override {
    Spec s;
    s.combinational = true;
    s.dips_per_round = dips_;
    s.caller = "wide";
    return s;
  }

 private:
  std::size_t dips_;
};

TEST(OgEngine, MultiDipInnerLoopHonoursIterationBudget) {
  // Regression: the multi-DIP inner loop issued its extra solves without
  // re-checking the budget or re-arming the deadline, so one wide round
  // (dips_per_round >> 1) could run arbitrarily far past max_iterations
  // before the next round's check noticed.
  const Netlist nl = s27();
  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 8, rng);
  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist original_scan = netlist::scan_expose(nl);
  SequentialOracle oracle(original_scan);
  AttackBudget budget;
  budget.time_limit_s = 30.0;
  budget.max_iterations = 3;
  OgEngine engine(locked_scan, oracle, budget);
  WideRoundStrategy strategy(1000);
  const AttackResult r = engine.run(strategy);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_EQ(r.iterations, 3u)
      << "the inner loop must stop exactly at the iteration budget";
}

/// Strategy that starves the solver after the first round of a multi-DIP
/// attack: the next round's diff solve returns Unknown *inside a
/// dips_per_round > 1 spec*, the path that historically read as "no DIP
/// remains" and fell through to the consistency phase.
class StarveSecondRoundStrategy : public DipStrategy {
 public:
  const char* name() const override { return "starve2"; }
  Spec spec() const override {
    Spec s;
    s.combinational = true;
    s.dips_per_round = 2;
    s.caller = "starve2";
    return s;
  }
  RoundAction after_round(OgEngine& engine, std::size_t, AttackResult*) override {
    engine.solver().set_propagation_budget(0);
    return RoundAction::kContinue;
  }
};

TEST(OgEngine, StarvedMultiDipRoundReportsTimeoutNotAVerdict) {
  const Netlist nl = s27();
  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 8, rng);
  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist original_scan = netlist::scan_expose(nl);
  SequentialOracle oracle(original_scan);
  AttackBudget budget;
  budget.time_limit_s = 30.0;
  OgEngine engine(locked_scan, oracle, budget);
  StarveSecondRoundStrategy strategy;
  const AttackResult r = engine.run(strategy);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_NE(r.detail.find("solver conflict budget exhausted"),
            std::string::npos)
      << r.detail;
}

TEST(OgEngine, PreSetCancelFlagAbortsBeforeAnyOracleQuery) {
  // The service's per-job kill switch: a budget whose cancel flag is already
  // set unwinds with Timeout before the attack pays a single oracle query.
  const Netlist nl = s27();
  util::Rng rng(3);
  const auto lr = lock::xor_lock(nl, 6, rng);
  SequentialOracle oracle(nl);
  std::atomic<bool> cancel{true};
  AttackBudget budget;
  budget.time_limit_s = 30.0;
  budget.cancel = &cancel;
  const AttackResult r = bmc_attack(lr.locked, oracle, budget);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_EQ(r.fresh_queries, 0u);
  EXPECT_EQ(oracle.num_queries(), 0u);
}

/// Cooperative cancellation mid-attack: the flag flips after the first
/// round, as a service connection thread would flip it from outside.
class CancelAfterFirstRoundStrategy : public DipStrategy {
 public:
  explicit CancelAfterFirstRoundStrategy(std::atomic<bool>* flag)
      : flag_(flag) {}
  const char* name() const override { return "cancel"; }
  Spec spec() const override {
    Spec s;
    s.start_depth = 2;
    s.caller = "cancel";
    return s;
  }
  RoundAction after_round(OgEngine&, std::size_t, AttackResult*) override {
    flag_->store(true, std::memory_order_relaxed);
    return RoundAction::kContinue;
  }

 private:
  std::atomic<bool>* flag_;
};

/// The shared loop as a plain scan-model attack — the shape under which the
/// structural key hints are observable.
class PlainCombStrategy : public DipStrategy {
 public:
  const char* name() const override { return "plain"; }
  Spec spec() const override {
    Spec s;
    s.combinational = true;
    s.caller = "plain";
    return s;
  }
};

TEST(OgEngine, CorrectHintsCutFreshQueriesToZero) {
  const Netlist nl = s27();
  util::Rng rng(5);
  const auto lr = lock::xor_lock(nl, 6, rng);
  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist original_scan = netlist::scan_expose(nl);

  SequentialOracle baseline_oracle(original_scan);
  OgEngine baseline(locked_scan, baseline_oracle, AttackBudget{});
  PlainCombStrategy strategy;
  const AttackResult plain = baseline.run(strategy);
  ASSERT_EQ(plain.outcome, Outcome::Equal) << plain.summary();
  ASSERT_GT(plain.fresh_queries, 0u);
  EXPECT_EQ(plain.hinted_bits, 0u);
  EXPECT_EQ(plain.hint_accuracy, -1.0);

  // Every key bit hinted correctly: the first diff solve is Unsat inside the
  // hinted subspace, the consistency solve names the key, and external
  // verification confirms it — no oracle query was ever needed.
  std::vector<std::pair<std::size_t, bool>> hints;
  for (std::size_t i = 0; i < lr.correct_key.size(); ++i) {
    hints.emplace_back(i, lr.correct_key[i] != 0);
  }
  SequentialOracle oracle(original_scan);
  OgEngine engine(locked_scan, oracle, AttackBudget{});
  engine.set_hints(hints);
  const AttackResult hinted = engine.run(strategy);
  EXPECT_EQ(hinted.outcome, Outcome::Equal) << hinted.summary();
  EXPECT_EQ(hinted.key, lr.correct_key);
  EXPECT_EQ(hinted.fresh_queries, 0u);
  EXPECT_EQ(hinted.hinted_bits, lr.correct_key.size());
  EXPECT_EQ(hinted.hint_accuracy, 1.0);
}

TEST(OgEngine, WrongHintsAreDroppedNotTrusted) {
  // One deliberately flipped hint: the hinted subspace's best candidate
  // fails verification, the engine sheds the hints, and the attack still
  // converges on the correct key — never a WrongKey verdict on hint say-so.
  const Netlist nl = s27();
  util::Rng rng(5);
  const auto lr = lock::xor_lock(nl, 6, rng);
  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist original_scan = netlist::scan_expose(nl);
  std::vector<std::pair<std::size_t, bool>> hints;
  for (std::size_t i = 0; i < lr.correct_key.size(); ++i) {
    const bool truth = lr.correct_key[i] != 0;
    hints.emplace_back(i, i == 0 ? !truth : truth);
  }
  SequentialOracle oracle(original_scan);
  OgEngine engine(locked_scan, oracle, AttackBudget{});
  engine.set_hints(hints);
  PlainCombStrategy strategy;
  const AttackResult r = engine.run(strategy);
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
  EXPECT_EQ(r.key, lr.correct_key);
  EXPECT_EQ(r.hinted_bits, lr.correct_key.size());
  // Accuracy is scored against the verified key: exactly one hint was wrong.
  EXPECT_NEAR(r.hint_accuracy, 5.0 / 6.0, 1e-9);
}

TEST(OgEngine, OutOfRangeHintsAreDiscardedAtRun) {
  const Netlist nl = s27();
  util::Rng rng(5);
  const auto lr = lock::xor_lock(nl, 6, rng);
  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist original_scan = netlist::scan_expose(nl);
  SequentialOracle oracle(original_scan);
  OgEngine engine(locked_scan, oracle, AttackBudget{});
  engine.set_hints({{lr.correct_key.size() + 7, true}});
  PlainCombStrategy strategy;
  const AttackResult r = engine.run(strategy);
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
  EXPECT_EQ(r.hinted_bits, 0u);
}

TEST(OgEngine, StructuralPassHintsCutOracleQueries) {
  // Hints come only from the caller: here SatAttackOptions::hints, set from
  // analysis::infer_key_hints. On an XOR lock the pass decides all bits, so
  // the hinted run needs strictly fewer oracle queries than the plain one,
  // which runs unhinted.
  const Netlist nl = s27();
  util::Rng rng(7);
  const auto lr = lock::xor_lock(nl, 6, rng);
  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist original_scan = netlist::scan_expose(nl);
  SequentialOracle oracle(original_scan);
  const AttackResult plain = sat_attack(locked_scan, oracle);
  ASSERT_EQ(plain.outcome, Outcome::Equal) << plain.summary();
  EXPECT_EQ(plain.hinted_bits, 0u);

  SatAttackOptions options;
  analysis::InferOptions infer;
  infer.time_limit_s = options.budget.time_limit_s / 4;
  options.hints =
      analysis::infer_key_hints(locked_scan, infer).decided_bits(0.75);
  const AttackResult hinted = sat_attack(locked_scan, oracle, options);

  EXPECT_EQ(hinted.outcome, Outcome::Equal) << hinted.summary();
  EXPECT_EQ(hinted.key, lr.correct_key);
  EXPECT_GT(hinted.hinted_bits, 0u);
  EXPECT_EQ(hinted.hint_accuracy, 1.0);
  EXPECT_LT(hinted.fresh_queries, plain.fresh_queries);
}

TEST(OgEngine, CancelFlagSetMidRunUnwindsWithTimeout) {
  const Netlist nl = s27();
  util::Rng rng(3);
  const auto lr = lock::xor_lock(nl, 6, rng);
  SequentialOracle oracle(nl);
  std::atomic<bool> cancel{false};
  AttackBudget budget;
  budget.time_limit_s = 30.0;
  budget.cancel = &cancel;
  OgEngine engine(lr.locked, oracle, budget);
  CancelAfterFirstRoundStrategy strategy(&cancel);
  const AttackResult r = engine.run(strategy);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_NE(r.detail.find("budget exhausted"), std::string::npos) << r.detail;
}

}  // namespace
}  // namespace cl::attack
