#include "attack/bbo.hpp"

#include <gtest/gtest.h>

#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/cac_lock.hpp"
#include "lock/comb_locks.hpp"
#include "lock/lock_registry.hpp"
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

TEST(Bbo, ExhaustiveSearchFindsSingleKey) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(3);
  const auto lr = lock::xor_lock(nl, 5, rng);
  SequentialOracle oracle(nl);
  const AttackResult r = bbo_attack(lr.locked, oracle);
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
  EXPECT_EQ(r.key, lr.correct_key);
}

TEST(Bbo, MultiKeyCuteLockProvedUnsolvable) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 3;
  opt.locked_ffs = 2;
  opt.seed = 5;
  const auto lr = core::cute_lock_str(nl, opt);
  SequentialOracle oracle(nl);
  BboOptions opts;
  opts.screen_cycles = 48;
  opts.screen_sequences = 12;
  const AttackResult r = bbo_attack(lr.locked, oracle, opts);
  // The exhaustive screen may either kill every static key (CNS) or leave a
  // low-observability survivor that then fails exact verification. Either
  // way the defense holds.
  EXPECT_TRUE(defense_held(r.outcome)) << r.summary();
}

TEST(Bbo, SingleKeyReductionRecovered) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 3;
  opt.locked_ffs = 1;
  opt.seed = 6;
  opt.single_key_reduction = true;
  const auto lr = core::cute_lock_str(nl, opt);
  SequentialOracle oracle(nl);
  const AttackResult r = bbo_attack(lr.locked, oracle);
  EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
}

TEST(Bbo, PresetCancelFlagEndsNotApplicableBeforeScreening) {
  // The daemon's cancel op and shutdown drain set AttackBudget::cancel; BBO
  // must notice it at its round check, before screening a single batch.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 3;
  opt.locked_ffs = 1;
  opt.seed = 6;
  opt.single_key_reduction = true;
  const auto lr = core::cute_lock_str(nl, opt);
  SequentialOracle oracle(nl);
  const std::atomic<bool> cancel{true};
  BboOptions opts;
  opts.budget.cancel = &cancel;
  const AttackResult r = bbo_attack(lr.locked, oracle, opts);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Bbo, ParallelScreeningIsDeterministicAcrossJobCounts) {
  // The pool inside the attack must not change anything observable: outcome,
  // key, iteration accounting, and oracle pattern count are fixed by the
  // seed alone, for any job count.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 3;
  opt.locked_ffs = 2;
  opt.seed = 5;
  const auto lr = core::cute_lock_str(nl, opt);
  std::vector<AttackResult> results;
  std::vector<std::uint64_t> oracle_patterns;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    SequentialOracle oracle(nl);
    BboOptions opts;
    opts.screen_cycles = 24;
    opts.screen_sequences = 6;
    opts.jobs = jobs;
    results.push_back(bbo_attack(lr.locked, oracle, opts));
    oracle_patterns.push_back(oracle.num_queries());
  }
  EXPECT_EQ(results[0].outcome, results[1].outcome);
  EXPECT_EQ(results[0].key, results[1].key);
  EXPECT_EQ(results[0].iterations, results[1].iterations);
  EXPECT_EQ(results[0].detail, results[1].detail);
  EXPECT_EQ(oracle_patterns[0], oracle_patterns[1]);
}

TEST(Bbo, TimeBudgetRespected) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(7);
  const auto lr = lock::xor_lock(nl, 5, rng);
  SequentialOracle oracle(nl);
  BboOptions opts;
  opts.budget.time_limit_s = 0.0;
  const AttackResult r = bbo_attack(lr.locked, oracle, opts);
  EXPECT_EQ(r.outcome, Outcome::Timeout);
}

TEST(Bbo, UnprovenSurvivorEndsNotApplicable) {
  // CAC 2.0's inert comparator block keeps the verification miter from
  // folding, so a zero verification budget leaves every passing key
  // unproven. Such a survivor is not refuted: the attack must not conclude
  // CNS from an exhausted space.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(3);
  const auto lr = lock::cac_lock(nl, 4, 4, rng);
  BboOptions opts;
  opts.jobs = 1;
  {
    SequentialOracle oracle(nl);
    const AttackResult r = bbo_attack(lr.locked, oracle, opts);
    EXPECT_EQ(r.outcome, Outcome::Equal) << r.summary();
    EXPECT_EQ(r.iterations, 4u);
  }
  opts.budget.verify_time_limit_s = 0.0;
  SequentialOracle oracle(nl);
  const AttackResult r = bbo_attack(lr.locked, oracle, opts);
  EXPECT_EQ(r.outcome, Outcome::Timeout) << r.summary();
  EXPECT_EQ(r.iterations, 4u);
  // The 2^4 settings of the decoy bits all pass the screen.
  EXPECT_EQ(r.detail,
            "exhausted 2^8 static keys; none verified; unproven survivors: 16");
}

TEST(Bbo, ExhaustiveLimitAbove63Rejected) {
  // 64 key bits XORed onto one wire: an exhaustive limit of 64 would size
  // the space as 1 << 64.
  Netlist nl("xor64");
  netlist::SignalId wire = nl.add_input("a");
  for (int k = 0; k < 64; ++k) {
    wire = nl.add_xor(wire, nl.add_key_input("keyinput" + std::to_string(k)));
  }
  nl.add_output(wire);
  Netlist original("buf");
  original.add_output(original.add_input("a"));
  SequentialOracle oracle(original);
  BboOptions opts;
  opts.exhaustive_limit = 64;
  EXPECT_THROW(bbo_attack(nl, oracle, opts), std::invalid_argument);
  opts.exhaustive_limit = 63;
  opts.budget.max_iterations = 1;
  EXPECT_NO_THROW(bbo_attack(nl, oracle, opts));
}

TEST(Bbo, ZeroJobsRejected) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(3);
  const auto lr = lock::xor_lock(nl, 5, rng);
  SequentialOracle oracle(nl);
  BboOptions opts;
  EXPECT_EQ(opts.jobs, 1u);
  opts.jobs = 0;
  EXPECT_THROW(bbo_attack(lr.locked, oracle, opts), std::invalid_argument);
}

// Accounting pins: outcome, iterations and detail must not depend on how
// many batches share a simulation pass, nor on the job count.

struct Pin {
  Outcome outcome;
  std::uint64_t iterations;
  std::string detail;
};

void expect_pinned(const Netlist& locked, const Netlist& original,
                   BboOptions opts, const Pin& pin) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    SequentialOracle oracle(original);
    opts.jobs = jobs;
    const AttackResult r = bbo_attack(locked, oracle, opts);
    EXPECT_EQ(r.outcome, pin.outcome) << "jobs " << jobs << ": " << r.summary();
    EXPECT_EQ(r.iterations, pin.iterations) << "jobs " << jobs;
    EXPECT_EQ(r.detail, pin.detail) << "jobs " << jobs;
  }
}

core::StrOptions multi_key_8bit() {
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 8;
  opt.locked_ffs = 2;
  opt.seed = 5;
  return opt;
}

TEST(Bbo, ExhaustiveSpaceOfFourBatchesAccounting) {
  // 2^8 keys: 4 batches, half a simulation pass.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  const auto lr = core::cute_lock_str(nl, multi_key_8bit());
  expect_pinned(lr.locked, nl, BboOptions{},
                {Outcome::Cns, 4,
                 "exhausted 2^8 static keys; none matches the oracle"});
}

TEST(Bbo, RandomSearchOfThirteenBatchesAccounting) {
  // 13 batches: one full pass of 8 and a partial pass of 5.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  const auto lr = core::cute_lock_str(nl, multi_key_8bit());
  BboOptions opts;
  opts.exhaustive_limit = 4;
  opts.budget.max_iterations = 13;
  expect_pinned(lr.locked, nl, opts,
                {Outcome::Fail, 13,
                 "random search exhausted (832 keys screened)"});
}

TEST(Bbo, RefutedSurvivorNamedInExhaustedDetail) {
  // On the cl-str registry lock built from Rng(115), key 1010 passes the
  // oracle screen and verification then refutes it: the space is exhausted
  // with no key verified, but not because none matched the oracle.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(115);
  const auto lr = lock::find_lock("cl-str")->build(nl, rng);
  expect_pinned(lr.locked, nl, BboOptions{},
                {Outcome::Cns, 1,
                 "exhausted 2^4 static keys; 1 screened survivor refuted by "
                 "verification"});
  SequentialOracle oracle(nl);
  const AttackResult r = bbo_attack(lr.locked, oracle);
  EXPECT_EQ(sim::bits_to_string(r.key), "1010");
}

TEST(Bbo, KeyBeyondFirstPassAccounting) {
  // The correct key is 619 of 4096: batch 10, in the second pass.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(5);
  const auto lr = lock::xor_lock(nl, 12, rng);
  ASSERT_EQ(sim::bits_to_u64(lr.correct_key), 619u);
  expect_pinned(lr.locked, nl, BboOptions{}, {Outcome::Equal, 10, ""});
  SequentialOracle oracle(nl);
  EXPECT_EQ(bbo_attack(lr.locked, oracle).key, lr.correct_key);
}

TEST(Bbo, RandomKeyBeyondFirstPassAccounting) {
  // Random search over 2^8 keys: the correct key 5 is first drawn in batch
  // 12, the second pass of a three-job round and the second round at one.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(25);
  const auto lr = lock::xor_lock(nl, 8, rng);
  ASSERT_EQ(sim::bits_to_u64(lr.correct_key), 5u);
  BboOptions opts;
  opts.exhaustive_limit = 4;
  expect_pinned(lr.locked, nl, opts, {Outcome::Equal, 13, ""});
  SequentialOracle oracle(nl);
  EXPECT_EQ(bbo_attack(lr.locked, oracle, opts).key, lr.correct_key);
}

TEST(Bbo, TableFourS510ExhaustsItsSpace) {
  // Table IV's s510 cell: k = 8, ki = 19, 4 locked FFs, lock seed
  // 0x57a + gates. 2^19 consecutive keys, 1,024 passes of 8 batches.
  const benchgen::CircuitSpec& spec = benchgen::find_spec("s510");
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit(spec);
  core::StrOptions opt;
  opt.num_keys = spec.lock_keys;
  opt.key_bits = spec.lock_bits;
  opt.locked_ffs = 4;
  opt.seed = 0x57a + spec.gates;
  const auto lr = core::cute_lock_str(circuit.netlist, opt);
  ASSERT_EQ(lr.locked.key_inputs().size(), 19u);
  BboOptions opts;
  opts.budget.time_limit_s = 1e9;
  expect_pinned(lr.locked, circuit.netlist, opts,
                {Outcome::Cns, 8192,
                 "exhausted 2^19 static keys; none matches the oracle"});
}

}  // namespace
}  // namespace cl::attack
