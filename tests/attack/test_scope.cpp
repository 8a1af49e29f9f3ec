#include "attack/scope.hpp"

#include <gtest/gtest.h>

#include <atomic>

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

TEST(Scope, BreaksXorLockWithOracleConfirmation) {
  const Netlist nl = netlist::read_bench_string(k_comb, "c");
  std::size_t equal = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const auto lr = lock::xor_lock(nl, 3, rng);
    SequentialOracle oracle(nl);
    const ScopeResult sr = scope_attack(lr.locked, &oracle);
    if (sr.result.outcome == Outcome::Equal) {
      ++equal;
      EXPECT_EQ(sr.result.key, lr.correct_key) << "seed " << seed;
    } else {
      // A partial verdict must still never contradict the real key.
      for (const auto& [bit, value] : sr.report.decided_bits()) {
        EXPECT_EQ(value, lr.correct_key[bit] != 0) << "seed " << seed;
      }
    }
  }
  EXPECT_GE(equal, 3u);  // >= 90% of bits overall: most seeds fully decided
}

TEST(Scope, BreaksMuxLockWithOracleConfirmation) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  std::size_t decided_total = 0, bits_total = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const auto lr = lock::mux_lock(nl, 4, rng);
    SequentialOracle oracle(nl);
    const ScopeResult sr = scope_attack(lr.locked, &oracle);
    bits_total += lr.correct_key.size();
    decided_total += sr.decided;
    for (const auto& [bit, value] : sr.report.decided_bits()) {
      EXPECT_EQ(value, lr.correct_key[bit] != 0) << "seed " << seed;
    }
  }
  EXPECT_GE(decided_total * 10, bits_total * 9)
      << decided_total << "/" << bits_total;
}

TEST(Scope, OracleFreeModeReportsVerdictsWithoutClaimingEqual) {
  const Netlist nl = netlist::read_bench_string(k_comb, "c");
  util::Rng rng(2);
  const auto lr = lock::xor_lock(nl, 3, rng);
  const ScopeResult sr = scope_attack(lr.locked);  // no oracle at all
  EXPECT_NE(sr.result.outcome, Outcome::Equal);
  for (const auto& [bit, value] : sr.report.decided_bits()) {
    EXPECT_EQ(value, lr.correct_key[bit] != 0);
  }
  EXPECT_NE(sr.result.detail.find("bits decided"), std::string::npos);
}

TEST(Scope, HoldsOnCuteLockStr) {
  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    core::StrOptions opt;
    opt.num_keys = 4;
    opt.key_bits = 2;
    opt.locked_ffs = 2;
    opt.seed = seed;
    const auto lr = core::cute_lock_str(nl, opt);
    SequentialOracle oracle(nl);
    const ScopeResult sr = scope_attack(lr.locked, &oracle);
    EXPECT_EQ(sr.decided, 0u) << "seed " << seed;
    EXPECT_NE(sr.result.outcome, Outcome::Equal)
        << "seed " << seed << ": " << sr.result.summary();
    // Every bit is unknown — the honest answer, not a wrong guess.
    for (const auto& h : sr.report.bits) {
      EXPECT_EQ(h.verdict, analysis::BitVerdict::Unknown) << "seed " << seed;
    }
  }
}

TEST(Scope, TimeoutWhenBudgetDiesMidSweep) {
  const Netlist nl = netlist::read_bench_string(k_comb, "c");
  util::Rng rng(4);
  const auto lr = lock::xor_lock(nl, 3, rng);
  ScopeOptions opt;
  opt.budget.time_limit_s = 1e-12;
  const ScopeResult sr = scope_attack(lr.locked, nullptr, opt);
  EXPECT_EQ(sr.result.outcome, Outcome::Timeout);
}

TEST(Scope, PresetCancelFlagEndsNotApplicable) {
  // A set cancel flag ends SCOPE N/A before its sweep: on XOR locks, which
  // it would otherwise decide and confirm, and on Cute-Lock-Str.
  const std::atomic<bool> cancel{true};
  ScopeOptions options;
  options.budget.cancel = &cancel;

  const Netlist comb = netlist::read_bench_string(k_comb, "c");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const auto lr = lock::xor_lock(comb, 3, rng);
    SequentialOracle oracle(comb);
    const ScopeResult sr = scope_attack(lr.locked, &oracle, options);
    EXPECT_EQ(sr.result.outcome, Outcome::Timeout)
        << "seed " << seed << ": " << sr.result.summary();
    EXPECT_EQ(sr.result.iterations, 0u) << "seed " << seed;
  }

  const Netlist nl = netlist::read_bench_string(k_s27, "s27");
  core::StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 2;
  opt.locked_ffs = 2;
  opt.seed = 1;
  const auto lr = core::cute_lock_str(nl, opt);
  SequentialOracle oracle(nl);
  const ScopeResult sr = scope_attack(lr.locked, &oracle, options);
  EXPECT_EQ(sr.result.outcome, Outcome::Timeout) << sr.result.summary();
  EXPECT_EQ(sr.result.iterations, 0u);
}

}  // namespace
}  // namespace cl::attack
