#include "attack/fall.hpp"

#include <gtest/gtest.h>

#include "core/cute_lock_str.hpp"
#include "lock/comb_locks.hpp"
#include "netlist/bench_io.hpp"

namespace cl::attack {
namespace {

using netlist::Netlist;

const char* k_comb = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
t1 = AND(a, b)
t2 = OR(c, d)
y = XOR(t1, t2)
)";

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

TEST(Fall, BreaksTtLock) {
  // The FALL result the original paper reports: point-function locks leak
  // their protected pattern structurally.
  const Netlist nl = netlist::read_bench_string(k_comb, "c");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const auto lr = lock::tt_lock(nl, 4, rng);
    SequentialOracle oracle(nl);
    const FallResult fr = fall_attack(lr.locked, oracle);
    EXPECT_GE(fr.candidates, 1u) << "seed " << seed;
    EXPECT_EQ(fr.result.outcome, Outcome::Equal)
        << "seed " << seed << ": " << fr.result.summary();
    EXPECT_EQ(fr.result.key, lr.correct_key) << "seed " << seed;
  }
}

TEST(Fall, BreaksSfllHd0) {
  const Netlist nl = netlist::read_bench_string(k_comb, "c");
  util::Rng rng(9);
  const auto lr = lock::sfll_hd(nl, 4, 0, rng);
  SequentialOracle oracle(nl);
  const FallResult fr = fall_attack(lr.locked, oracle);
  // h=0 degenerates to a point function; the comparator is findable.
  EXPECT_GE(fr.candidates, 1u);
  EXPECT_EQ(fr.result.outcome, Outcome::Equal) << fr.result.summary();
}

TEST(Fall, ZeroCandidatesOnCuteLockStr) {
  // Table V's FALL row: Cute-Lock-Str has no input-pattern comparator
  // feeding flip logic, so structural analysis extracts nothing.
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    core::StrOptions opt;
    opt.num_keys = 4;
    opt.key_bits = 2;
    opt.locked_ffs = 2;
    opt.seed = seed;
    const auto lr = core::cute_lock_str(nl, opt);
    SequentialOracle oracle(nl);
    const FallResult fr = fall_attack(lr.locked, oracle);
    EXPECT_EQ(fr.candidates, 0u) << "seed " << seed;
    EXPECT_EQ(fr.confirmed, 0u) << "seed " << seed;
    EXPECT_NE(fr.result.outcome, Outcome::Equal) << fr.result.summary();
  }
}

TEST(Fall, PresetCancelFlagEndsNotApplicable) {
  // A set cancel flag ends FALL N/A before it verifies any candidate: on a
  // TT-lock, whose comparator it would otherwise confirm, and on
  // Cute-Lock-Str, where the candidate loop has nothing to iterate.
  const std::atomic<bool> cancel{true};
  FallOptions options;
  options.budget.cancel = &cancel;

  const Netlist comb = netlist::read_bench_string(k_comb, "c");
  util::Rng rng(1);
  const auto tt = lock::tt_lock(comb, 4, rng);
  SequentialOracle comb_oracle(comb);
  const FallResult broken = fall_attack(tt.locked, comb_oracle, options);
  EXPECT_EQ(broken.result.outcome, Outcome::Timeout) << broken.result.summary();
  EXPECT_EQ(broken.result.iterations, 0u);

  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 2;
  opt.locked_ffs = 2;
  opt.seed = 1;
  const auto lr = core::cute_lock_str(nl, opt);
  SequentialOracle oracle(nl);
  const FallResult none = fall_attack(lr.locked, oracle, options);
  EXPECT_EQ(none.candidates, 0u);
  EXPECT_EQ(none.result.outcome, Outcome::Timeout) << none.result.summary();
  EXPECT_EQ(none.result.iterations, 0u);
}

TEST(Fall, XorLockYieldsNoPointFunctionCandidates) {
  // XOR key gates are not comparator structures either; FALL finds no
  // candidates (it was designed for stripped-functionality locks).
  const Netlist nl = netlist::read_bench_string(k_comb, "c");
  util::Rng rng(11);
  const auto lr = lock::xor_lock(nl, 3, rng);
  SequentialOracle oracle(nl);
  const FallResult fr = fall_attack(lr.locked, oracle);
  EXPECT_EQ(fr.confirmed, 0u);
  EXPECT_NE(fr.result.outcome, Outcome::Equal);
}

}  // namespace
}  // namespace cl::attack
