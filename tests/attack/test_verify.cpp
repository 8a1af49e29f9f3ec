#include "attack/verify.hpp"

#include <gtest/gtest.h>

#include "attack/oracle.hpp"
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

TEST(Verify, AcceptsCorrectKey) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(3);
  const auto lr = lock::xor_lock(nl, 5, rng);
  const auto v = verify_static_key(lr.locked, lr.correct_key, nl);
  EXPECT_EQ(v.verdict, Verdict::Equivalent);
  EXPECT_TRUE(v.counterexample.empty());
}

TEST(Verify, RejectsWrongKeyWithCounterexample) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(3);
  const auto lr = lock::xor_lock(nl, 5, rng);
  sim::BitVec wrong = lr.correct_key;
  wrong[2] ^= 1;
  const auto v = verify_static_key(lr.locked, wrong, nl);
  EXPECT_EQ(v.verdict, Verdict::Different);
  ASSERT_FALSE(v.counterexample.empty());
  // The counterexample must genuinely distinguish.
  const auto want = sim::run_sequence(nl, v.counterexample);
  const auto got = sim::run_sequence(lr.locked, v.counterexample, {wrong});
  EXPECT_NE(sim::first_divergence(want, got), -1);
}

TEST(Verify, SatPhaseCatchesRarelyObservableDifferences) {
  // A lock whose corruption triggers on exactly one input pattern: random
  // simulation is unlikely to see it, the SAT phase must.
  const char* comb = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = AND(a, b, c, d)
)";
  const Netlist nl = netlist::read_bench_string(comb, "c");
  util::Rng rng(5);
  const auto lr = lock::sar_lock(nl, 4, rng);
  sim::BitVec wrong = lr.correct_key;
  wrong[0] ^= 1;
  VerifyOptions opts;
  opts.random_sequences = 1;  // cripple the simulation phase
  opts.sequence_cycles = 1;
  const auto v = verify_static_key(lr.locked, wrong, nl, opts);
  EXPECT_EQ(v.verdict, Verdict::Different);
}

TEST(Verify, UnprovenKeyIsUnknownNotDifferent) {
  // d = a ^ b spelled as AND/OR behind a key gate: equivalent under key 0,
  // but the hashed miter cannot fold it, so depth 2 needs the solver.
  const Netlist ref = netlist::read_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
d = XOR(a, b)
y = XOR(q, a)
)", "ref");
  const Netlist locked = netlist::read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(keyinput0)
OUTPUT(y)
q = DFF(d)
na = NOT(a)
nb = NOT(b)
t0 = AND(a, nb)
t1 = AND(na, b)
x = OR(t0, t1)
d = XOR(x, keyinput0)
y = XOR(q, a)
)", "locked");
  VerifyOptions opts;
  opts.conflict_budget = 0;
  const auto v = verify_static_key(locked, sim::BitVec{0}, ref, opts);
  EXPECT_EQ(v.verdict, Verdict::Unknown);
  EXPECT_TRUE(v.counterexample.empty());
  EXPECT_EQ(verify_static_key(locked, sim::BitVec{0}, ref).verdict,
            Verdict::Equivalent);
}

TEST(Verify, KeyWidthMismatchRejected) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  util::Rng rng(3);
  const auto lr = lock::xor_lock(nl, 5, rng);
  EXPECT_THROW(verify_static_key(lr.locked, sim::BitVec{1}, nl),
               std::invalid_argument);
}

TEST(Oracle, CountsQueriesAndRejectsKeyedReference) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  SequentialOracle oracle(nl);
  EXPECT_EQ(oracle.num_queries(), 0u);
  oracle.query({sim::BitVec{0, 0, 0, 0}});
  oracle.query_comb(sim::BitVec{1, 0, 1, 0});
  EXPECT_EQ(oracle.num_queries(), 2u);
  EXPECT_EQ(oracle.num_inputs(), 4u);

  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 2, rng);
  EXPECT_THROW(SequentialOracle{lr.locked}, std::invalid_argument);
}

TEST(Oracle, BatchedQueryCountsPatternsAndMatchesScalarQueries) {
  // num_queries() counts patterns (lanes actually used), not call sites: a
  // 70-sequence batch costs 70, exactly what 70 scalar queries would.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  SequentialOracle oracle(nl);
  util::Rng rng(9);
  std::vector<std::vector<sim::BitVec>> seqs;
  for (int j = 0; j < 70; ++j) {
    seqs.push_back(sim::random_stimulus(rng, 6, oracle.num_inputs()));
  }
  const auto batched = oracle.query_batch(seqs);
  EXPECT_EQ(oracle.num_queries(), 70u);
  ASSERT_EQ(batched.size(), seqs.size());
  SequentialOracle scalar(nl);
  for (std::size_t j = 0; j < seqs.size(); ++j) {
    EXPECT_EQ(batched[j], scalar.query(seqs[j])) << "sequence " << j;
  }
  EXPECT_EQ(scalar.num_queries(), 70u);
}

}  // namespace
}  // namespace cl::attack
