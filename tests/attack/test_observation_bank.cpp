#include "attack/observation_bank.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "attack/periodic_attack.hpp"
#include "attack/seq_attack.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/comb_locks.hpp"
#include "netlist/bench_io.hpp"

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

TEST(ObservationBank, RecordsDedupsAndSnapshots) {
  ObservationBank bank;
  const std::vector<sim::BitVec> in1 = {{1, 0}, {0, 1}};
  const std::vector<sim::BitVec> out1 = {{1}, {0}};
  const std::vector<sim::BitVec> in2 = {{0, 0}};
  const std::vector<sim::BitVec> out2 = {{0}};
  bank.record(in1, out1);
  bank.record(in2, out2);
  bank.record(in1, out1);  // exact duplicate: dropped
  EXPECT_EQ(bank.size(), 2u);
  const auto snap = bank.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].inputs, in1);
  EXPECT_EQ(snap[0].outputs, out1);
  EXPECT_EQ(snap[1].inputs, in2);
  bank.record({}, {});  // empty sequences are not facts
  EXPECT_EQ(bank.size(), 2u);
}

TEST(ObservationBank, RefusesIllFormedFacts) {
  ObservationBank bank;
  const std::vector<sim::BitVec> in = {{0, 1, 0, 1}, {1, 1, 0, 0}};
  bank.record(in, {{1}});                     // fewer output frames
  bank.record(in, {{1}, {0}, {1}});           // more output frames
  bank.record({{0, 1, 0, 1}, {1}}, {{1}, {0}});  // input width varies
  bank.record(in, {{1}, {0, 1}});             // output width varies
  EXPECT_EQ(bank.size(), 0u);
  bank.record(in, {{1}, {0}});
  EXPECT_EQ(bank.size(), 1u);
}

TEST(ObservationBank, LockInstanceKeySeparatesInstances) {
  const Netlist nl = s27();
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 2;
  opt.locked_ffs = 2;
  opt.seed = 1;
  const auto a = core::cute_lock_str(nl, opt);
  opt.seed = 2;
  const auto b = core::cute_lock_str(nl, opt);
  // Same circuit, same parameters, different lock seed: different banks.
  EXPECT_NE(lock_instance_key(a.locked), lock_instance_key(b.locked));
  EXPECT_NE(lock_instance_key(a.locked), lock_instance_key(nl));
  // Independently rebuilt identical instances: the same bank.
  opt.seed = 1;
  const auto a_again = core::cute_lock_str(nl, opt);
  EXPECT_EQ(lock_instance_key(a.locked), lock_instance_key(a_again.locked));
  // Bank identity covers the oracle too: the same locked structure queried
  // against a different reference chip must never share facts.
  EXPECT_EQ(bank_key(a.locked, nl), bank_key(a_again.locked, nl));
  EXPECT_NE(bank_key(a.locked, nl), bank_key(a.locked, b.locked));
}

TEST(ObservationBank, LockInstanceKeyIgnoresTheTopLevelName) {
  // The daemon names circuits by request field ("locked"), the one-shot CLI
  // by file stem — the same structure must map to the same bank either way,
  // or facts saved by one front-end never replay in the other.
  const Netlist by_stem = netlist::read_bench_string(k_s27, "s27");
  const Netlist by_field = netlist::read_bench_string(k_s27, "locked");
  EXPECT_EQ(lock_instance_key(by_stem), lock_instance_key(by_field));
  EXPECT_EQ(bank_key(by_stem, by_field), bank_key(by_field, by_stem));
}

TEST(ObservationBank, RegistryIsKeyedAndStable) {
  ObservationBank& b1 = observation_bank_for_key(0x1234);
  ObservationBank& b2 = observation_bank_for_key(0x5678);
  EXPECT_NE(&b1, &b2);
  EXPECT_EQ(&b1, &observation_bank_for_key(0x1234));
}

TEST(ObservationBank, DisabledWithoutEnvFlag) {
  ASSERT_EQ(getenv("CUTELOCK_OBS_BANK"), nullptr)
      << "test environment must not pre-set CUTELOCK_OBS_BANK";
  const Netlist nl = s27();
  EXPECT_EQ(observation_bank_for(nl, nl), nullptr);
}

TEST(ObservationBank, ReplaySavesFreshQueriesAndKeepsTheVerdict) {
  // The acceptance shape: attack the same locked instance twice. The second
  // run replays the first run's oracle facts as constraints and must reach
  // the same verdict with fewer fresh oracle queries.
  const Netlist nl = s27();
  util::Rng rng(5);
  const auto lr = lock::xor_lock(nl, 4, rng);
  const std::uint64_t key = bank_key(lr.locked, nl);

  AttackBudget budget;
  budget.time_limit_s = 30.0;
  budget.max_iterations = 200;
  budget.max_depth = 16;

  SequentialOracle oracle(nl);
  SeqAttackOptions options;
  options.budget = budget;

  ObservationBank& bank = observation_bank_for_key(key);
  ASSERT_EQ(bank.size(), 0u);

  // Baseline: bank disabled, count the fresh queries the attack needs.
  const AttackResult cold = seq_attack(lr.locked, oracle, options);
  EXPECT_EQ(cold.outcome, Outcome::Equal) << cold.summary();
  EXPECT_EQ(cold.replayed_queries, 0u);
  EXPECT_GT(cold.fresh_queries, 0u);

  // Bank enabled: one run populates the bank, the next replays from it.
  {
    set_observation_bank_forced(true);
    const AttackResult warmup = seq_attack(lr.locked, oracle, options);
    EXPECT_EQ(warmup.outcome, Outcome::Equal) << warmup.summary();
    EXPECT_GT(bank.size(), 0u);

    const AttackResult warm = seq_attack(lr.locked, oracle, options);
    set_observation_bank_forced(false);
    EXPECT_EQ(warm.outcome, Outcome::Equal) << warm.summary();
    EXPECT_EQ(warm.key, cold.key);
    EXPECT_GT(warm.replayed_queries, 0u);
    // Banked facts installed as startup constraints count separately from
    // replayed (avoided) queries: they are prior knowledge the attack never
    // asked for, and must not inflate the avoided-oracle-calls statistic.
    EXPECT_GT(warm.preloaded_facts, 0u);
    EXPECT_EQ(cold.preloaded_facts, 0u);
    EXPECT_LT(warm.fresh_queries, cold.fresh_queries) << warm.summary();
  }
}

TEST(ObservationBank, CrossAttackReplayDrivesMultiKeyLockToCnsCheaper) {
  // Table-harness shape: INT then KC2 on the same Cute-Lock-Str instance.
  // KC2 must still conclude CNS, now partly from INT's banked facts.
  const Netlist nl = s27();
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 2;
  opt.locked_ffs = 2;
  opt.seed = 0xba44;
  const auto lr = core::cute_lock_str(nl, opt);

  AttackBudget budget;
  budget.time_limit_s = 30.0;
  budget.max_iterations = 200;
  budget.max_depth = 16;
  SequentialOracle oracle(nl);

  const AttackResult kc2_cold = kc2_attack(lr.locked, oracle, budget);
  ASSERT_TRUE(defense_held(kc2_cold.outcome)) << kc2_cold.summary();

  set_observation_bank_forced(true);
  const AttackResult bmc = bmc_attack(lr.locked, oracle, budget);
  const AttackResult kc2_warm = kc2_attack(lr.locked, oracle, budget);
  set_observation_bank_forced(false);

  EXPECT_TRUE(defense_held(bmc.outcome)) << bmc.summary();
  EXPECT_TRUE(defense_held(kc2_warm.outcome)) << kc2_warm.summary();
  EXPECT_EQ(kc2_warm.outcome, kc2_cold.outcome);
  EXPECT_GT(kc2_warm.replayed_queries, 0u);
  EXPECT_LT(kc2_warm.fresh_queries, kc2_cold.fresh_queries)
      << "replay should substitute for fresh oracle queries: "
      << kc2_warm.summary();
}

lock::LockResult str_lock(const Netlist& nl, std::uint64_t seed) {
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 2;
  opt.locked_ffs = 2;
  opt.seed = seed;
  return core::cute_lock_str(nl, opt);
}

/// Six Cute-Lock-Str locks of s27 with pairwise distinct banks, none shared
/// with the tests above (nearby lock seeds can yield the same netlist, and
/// so the same bank).
const std::vector<lock::LockResult>& bank_test_locks() {
  static const std::vector<lock::LockResult> locks = [] {
    const Netlist nl = s27();
    std::set<std::uint64_t> used = {bank_key(str_lock(nl, 0xba44).locked, nl)};
    std::vector<lock::LockResult> out;
    for (std::uint64_t seed = 0xba51; out.size() < 6; ++seed) {
      lock::LockResult lr = str_lock(nl, seed);
      if (used.insert(bank_key(lr.locked, nl)).second) {
        out.push_back(std::move(lr));
      }
    }
    return out;
  }();
  return locks;
}

AttackBudget bank_budget() {
  AttackBudget budget;
  budget.time_limit_s = 30.0;
  budget.max_iterations = 200;
  budget.max_depth = 16;
  return budget;
}

PeriodicAttackOptions periodic_options() {
  PeriodicAttackOptions options;
  options.budget = bank_budget();
  options.max_period = 4;
  return options;
}

/// Each frame one bit wider: a well-formed fact no s27 lock can use.
std::vector<sim::BitVec> widened(std::vector<sim::BitVec> frames) {
  for (sim::BitVec& frame : frames) frame.push_back(0);
  return frames;
}

TEST(ObservationBank, FactsThatDoNotFitTheCircuitAreNotReplayed) {
  // Replay path: a banked fact whose widths differ from the circuit's (one
  // from a crafted bank file) is skipped at engine start, by the shared DIP
  // loop and by the periodic attack's pool alike, and the attack ends with
  // the verdict of a run without the bank.
  const Netlist nl = s27();
  const SequentialOracle oracle(nl);
  const auto& kc2_lock = bank_test_locks()[0];
  const auto& periodic_lock = bank_test_locks()[1];
  const AttackResult kc2_cold = kc2_attack(kc2_lock.locked, oracle, bank_budget());
  const PeriodicAttackResult periodic_cold =
      periodic_key_attack(periodic_lock.locked, oracle, periodic_options());

  util::Rng rng(3);
  for (const Netlist* locked : {&kc2_lock.locked, &periodic_lock.locked}) {
    ObservationBank& bank = observation_bank_for_key(bank_key(*locked, nl));
    ASSERT_EQ(bank.size(), 0u);
    const auto inputs = sim::random_stimulus(rng, 3, nl.inputs().size());
    bank.record(inputs, widened(sim::run_sequence(nl, inputs)));
    bank.record(widened(inputs), sim::run_sequence(nl, inputs));
    ASSERT_EQ(bank.size(), 2u);
  }
  set_observation_bank_forced(true);
  const AttackResult kc2_warm = kc2_attack(kc2_lock.locked, oracle, bank_budget());
  const PeriodicAttackResult periodic_warm =
      periodic_key_attack(periodic_lock.locked, oracle, periodic_options());
  set_observation_bank_forced(false);

  EXPECT_EQ(kc2_warm.outcome, kc2_cold.outcome) << kc2_warm.summary();
  EXPECT_EQ(kc2_warm.preloaded_facts, 0u);
  EXPECT_EQ(periodic_warm.result.outcome, periodic_cold.result.outcome)
      << periodic_warm.result.summary();
  EXPECT_EQ(periodic_warm.result.preloaded_facts, 0u);
}

TEST(ObservationBank, BankHitsThatDoNotFitTheCircuitAreQueriedFresh) {
  // Lookup path: the engine draws its warmup and periodic seed traces from a
  // fixed-seed RNG, so every s27 lock queries the same first sequences.
  // Bank those sequences for a second lock with outputs of the wrong width:
  // each hit is answered by the oracle instead, and the run matches a run
  // without the bank query for query.
  const Netlist nl = s27();
  const SequentialOracle oracle(nl);
  const auto& kc2_source = bank_test_locks()[2];
  const auto& kc2_lock = bank_test_locks()[3];
  const auto& periodic_source = bank_test_locks()[4];
  const auto& periodic_lock = bank_test_locks()[5];
  const AttackResult kc2_cold = kc2_attack(kc2_lock.locked, oracle, bank_budget());
  const PeriodicAttackResult periodic_cold =
      periodic_key_attack(periodic_lock.locked, oracle, periodic_options());

  for (const auto* lr : {&kc2_source, &kc2_lock, &periodic_source, &periodic_lock}) {
    ASSERT_EQ(observation_bank_for_key(bank_key(lr->locked, nl)).size(), 0u);
  }
  set_observation_bank_forced(true);
  kc2_attack(kc2_source.locked, oracle, bank_budget());
  periodic_key_attack(periodic_source.locked, oracle, periodic_options());
  std::vector<std::size_t> crafted;
  for (const auto& [source, locked] :
       {std::pair{&kc2_source.locked, &kc2_lock.locked},
        std::pair{&periodic_source.locked, &periodic_lock.locked}}) {
    ObservationBank& bank = observation_bank_for_key(bank_key(*locked, nl));
    for (const Observation& obs :
         observation_bank_for_key(bank_key(*source, nl)).snapshot()) {
      bank.record(obs.inputs, widened(obs.outputs));
    }
    crafted.push_back(bank.size());
    ASSERT_GT(crafted.back(), 0u);
  }
  const AttackResult kc2_warm = kc2_attack(kc2_lock.locked, oracle, bank_budget());
  const PeriodicAttackResult periodic_warm =
      periodic_key_attack(periodic_lock.locked, oracle, periodic_options());
  set_observation_bank_forced(false);

  for (const auto& [cold, warm] : {std::pair{&kc2_cold, &kc2_warm},
                                   std::pair{&periodic_cold.result,
                                             &periodic_warm.result}}) {
    EXPECT_EQ(warm->outcome, cold->outcome) << warm->summary();
    EXPECT_EQ(warm->iterations, cold->iterations);
    EXPECT_EQ(warm->fresh_queries, cold->fresh_queries);
    EXPECT_EQ(warm->replayed_queries, 0u);
    EXPECT_EQ(warm->preloaded_facts, 0u);
  }
  // Some fresh queries hit a crafted fact: their sequences were already in
  // the bank, so recording them added nothing.
  EXPECT_LT(observation_bank_for_key(bank_key(kc2_lock.locked, nl)).size(),
            crafted[0] + kc2_warm.fresh_queries);
  EXPECT_LT(observation_bank_for_key(bank_key(periodic_lock.locked, nl)).size(),
            crafted[1] + periodic_warm.result.fresh_queries);
}

}  // namespace
}  // namespace cl::attack
