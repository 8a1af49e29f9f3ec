#include "netlist/optimize.hpp"

#include <gtest/gtest.h>

#include "benchgen/catalog.hpp"
#include "netlist/bench_io.hpp"
#include "sim/sequence.hpp"
#include "util/rng.hpp"

namespace cl::netlist {
namespace {

/// Behavioural equivalence over random stimulus (with keys if present).
void expect_equivalent(const Netlist& a, const Netlist& b, std::uint64_t seed) {
  util::Rng rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    const auto stim = sim::random_stimulus(rng, 32, a.inputs().size());
    std::vector<sim::BitVec> keys;
    if (!a.key_inputs().empty()) {
      keys.push_back(sim::random_bits(rng, a.key_inputs().size()));
    }
    EXPECT_EQ(sim::run_sequence(a, stim, keys), sim::run_sequence(b, stim, keys))
        << "trial " << trial;
  }
}

TEST(Optimize, ConstantPropagation) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
one = CONST1()
zero = CONST0()
t1 = AND(a, one)
t2 = OR(t1, zero)
t3 = XOR(t2, zero)
y = BUF(t3)
)";
  const Netlist nl = read_bench_string(text, "cp");
  const Netlist opt = optimize(nl);
  // Everything folds away: y == a.
  EXPECT_EQ(opt.stats().gates, 0u);
  expect_equivalent(nl, opt, 1);
}

TEST(Optimize, DominatedGatesBecomeConstants) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
zero = CONST0()
dead = AND(a, zero)
y = OR(dead, b)
)";
  const Netlist nl = read_bench_string(text, "dom");
  const Netlist opt = optimize(nl);
  EXPECT_EQ(opt.stats().gates, 0u);  // y == b
  expect_equivalent(nl, opt, 2);
}

TEST(Optimize, DoubleInverterRemoved) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
n1 = NOT(a)
n2 = NOT(n1)
y = BUF(n2)
)";
  const Netlist nl = read_bench_string(text, "dinv");
  const Netlist opt = optimize(nl);
  EXPECT_EQ(opt.stats().gates, 0u);
  expect_equivalent(nl, opt, 3);
}

TEST(Optimize, XorSelfCancels) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
t = XOR(a, a, b)
y = BUF(t)
)";
  const Netlist nl = read_bench_string(text, "xs");
  const Netlist opt = optimize(nl);
  EXPECT_EQ(opt.stats().gates, 0u);  // y == b
  expect_equivalent(nl, opt, 4);
}

TEST(Optimize, MuxSimplifications) {
  const char* text = R"(
INPUT(s)
INPUT(a)
OUTPUT(y1)
OUTPUT(y2)
zero = CONST0()
one = CONST1()
y1 = MUX(s, zero, one)
y2 = MUX(s, a, a)
)";
  const Netlist nl = read_bench_string(text, "mx");
  const Netlist opt = optimize(nl);
  // y1 == s, y2 == a; no MUX gates left.
  for (SignalId id = 0; id < opt.size(); ++id) {
    EXPECT_NE(opt.type(id), GateType::Mux);
  }
  expect_equivalent(nl, opt, 5);
}

TEST(Optimize, IdempotentAndDuplicateFanins) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
t = AND(a, a, b)
y = BUF(t)
)";
  const Netlist nl = read_bench_string(text, "idem");
  const Netlist opt = optimize(nl);
  EXPECT_EQ(opt.stats().gates, 1u);  // AND(a, b)
  expect_equivalent(nl, opt, 6);
}

TEST(Optimize, PreservesSequentialBehaviour) {
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("b03");
  const Netlist opt = optimize(circuit.netlist);
  EXPECT_LE(opt.stats().gates, circuit.netlist.stats().gates);
  expect_equivalent(circuit.netlist, opt, 7);
}

TEST(Optimize, PreservesInterface) {
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("b06");
  const Netlist opt = optimize(circuit.netlist);
  EXPECT_EQ(opt.inputs().size(), circuit.netlist.inputs().size());
  EXPECT_EQ(opt.outputs().size(), circuit.netlist.outputs().size());
}

TEST(Optimize, IsIdempotent) {
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("b06");
  const Netlist once = optimize(circuit.netlist);
  const Netlist twice = optimize(once);
  EXPECT_EQ(once.size(), twice.size());
}

TEST(Optimize, RandomCircuitsStayEquivalent) {
  for (const char* name : {"b01", "b08", "s298"}) {
    const benchgen::SyntheticCircuit circuit = benchgen::make_circuit(name);
    const Netlist opt = optimize(circuit.netlist);
    expect_equivalent(circuit.netlist, opt, 11);
  }
}

TEST(Optimize, StatsCountConstantPropagation) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
zero = CONST0()
dead = AND(a, zero)
n = NOT(dead)
y = AND(n, a)
)";
  const Netlist nl = read_bench_string(text, "st");
  OptimizeStats stats;
  const Netlist opt = optimize(nl, stats);
  // dead -> 0 and n -> 1 are constant folds; y collapses to a wire to a.
  EXPECT_GE(stats.constants_propagated, 2u);
  EXPECT_EQ(stats.gates_removed, nl.stats().gates - opt.stats().gates);
  EXPECT_EQ(stats.ffs_swept, 0u);
  EXPECT_GE(stats.rounds, 1u);
  expect_equivalent(nl, opt, 21);
}

TEST(Optimize, StatsCountSweptFlipFlops) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
dead_ff = DFF(a)
also_dead = AND(dead_ff, a)
y = BUF(a)
)";
  const Netlist nl = read_bench_string(text, "ffst");
  OptimizeStats stats;
  const Netlist opt = optimize(nl, stats);
  EXPECT_EQ(opt.stats().dffs, 0u);
  EXPECT_EQ(stats.ffs_swept, 1u);
  EXPECT_EQ(stats.gates_removed, nl.stats().gates - opt.stats().gates);
}

TEST(Optimize, StatsAreQuietOnIrreducibleCircuits) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
)";
  const Netlist nl = read_bench_string(text, "quiet");
  OptimizeStats stats;
  const Netlist opt = optimize(nl, stats);
  EXPECT_EQ(opt.stats().gates, 1u);
  EXPECT_EQ(stats.gates_removed, 0u);
  EXPECT_EQ(stats.constants_propagated, 0u);
  EXPECT_EQ(stats.ffs_swept, 0u);
}

// A constant that survives optimization is not a change: the pass stops at
// its fixpoint after one round instead of running all 8.
TEST(Optimize, SurvivingConstantReachesTheFixpointInOneRound) {
  const char* text = R"(
INPUT(s)
INPUT(a)
OUTPUT(y)
zero = CONST0()
y = MUX(s, zero, a)
)";
  const Netlist nl = read_bench_string(text, "keep0");
  OptimizeStats stats;
  const Netlist opt = optimize(nl, stats);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(opt.stats().gates, 1u);
  expect_equivalent(nl, opt, 22);
}

TEST(Optimize, StatsOverloadMatchesPlainOverload) {
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("b03");
  OptimizeStats stats;
  const Netlist with_stats = optimize(circuit.netlist, stats);
  const Netlist plain = optimize(circuit.netlist);
  EXPECT_EQ(with_stats.size(), plain.size());
  EXPECT_EQ(stats.gates_removed,
            circuit.netlist.stats().gates - with_stats.stats().gates);
}

}  // namespace
}  // namespace cl::netlist
