#include "lock/comb_locks.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "netlist/bench_io.hpp"
#include "netlist/topo.hpp"

namespace cl::lock {
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

// The scheme is a std::string rather than a const char* so gtest prints the
// parameter as ("mux", 3) instead of a pointer address, which would give the
// test a different name on every run under address-space randomisation.
class CombLockValidation
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(CombLockValidation, CorrectKeyTransparentWrongKeyCorrupts) {
  const auto& [scheme, seed] = GetParam();
  const Netlist nl = s27();
  util::Rng rng(seed);
  LockResult lr{Netlist(""), {}, {}, ""};
  if (scheme == "xor") lr = xor_lock(nl, 5, rng);
  else if (scheme == "mux") lr = mux_lock(nl, 4, rng);
  else if (scheme == "sar") lr = sar_lock(nl, 4, rng);
  else if (scheme == "antisat") lr = anti_sat(nl, 6, rng);
  else if (scheme == "tt") lr = tt_lock(nl, 4, rng);
  else if (scheme == "sfll") lr = sfll_hd(nl, 4, 1, rng);
  else FAIL() << "unknown scheme";
  const std::string err = validate_lock(nl, lr, rng);
  EXPECT_EQ(err, "") << scheme << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CombLockValidation,
    ::testing::Values(std::make_tuple("xor", 1ULL), std::make_tuple("xor", 2ULL),
                      std::make_tuple("mux", 3ULL), std::make_tuple("mux", 4ULL),
                      std::make_tuple("sar", 5ULL), std::make_tuple("sar", 6ULL),
                      std::make_tuple("antisat", 7ULL),
                      std::make_tuple("antisat", 8ULL),
                      std::make_tuple("tt", 9ULL), std::make_tuple("tt", 10ULL),
                      std::make_tuple("sfll", 11ULL),
                      std::make_tuple("sfll", 12ULL)));

TEST(CombLocks, XorLockAddsRequestedKeyBits) {
  const Netlist nl = s27();
  util::Rng rng(42);
  const LockResult lr = xor_lock(nl, 5, rng);
  EXPECT_EQ(lr.locked.key_inputs().size(), 5u);
  EXPECT_EQ(lr.correct_key.size(), 5u);
  EXPECT_FALSE(lr.is_dynamic());
  // Key gates present: 5 extra XOR/XNOR gates.
  EXPECT_EQ(lr.locked.stats().gates, nl.stats().gates + 5);
}

TEST(CombLocks, XorLockRejectsOversizedKeys) {
  const Netlist nl = s27();
  util::Rng rng(1);
  EXPECT_THROW(xor_lock(nl, 1000, rng), std::invalid_argument);
}

TEST(CombLocks, MuxLockNeverCreatesCycles) {
  const Netlist nl = s27();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(seed);
    const LockResult lr = mux_lock(nl, 5, rng);
    EXPECT_NO_THROW(netlist::topo_order(lr.locked)) << "seed " << seed;
  }
}

TEST(CombLocks, SarLockFlipsExactlyOnePatternPerWrongKey) {
  // On a combinational circuit, a wrong key corrupts exactly the input
  // minterm equal to that key (the SARLock signature).
  const char* comb = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = AND(a, b, c)
)";
  const Netlist nl = netlist::read_bench_string(comb, "c");
  util::Rng rng(9);
  const LockResult lr = sar_lock(nl, 3, rng);
  for (std::uint64_t wrong = 0; wrong < 8; ++wrong) {
    const sim::BitVec key = sim::u64_to_bits(wrong, 3);
    if (key == lr.correct_key) continue;
    int mismatches = 0;
    std::uint64_t mismatch_at = 99;
    for (std::uint64_t m = 0; m < 8; ++m) {
      const auto inp = sim::u64_to_bits(m, 3);
      const auto want = sim::run_sequence(nl, {inp});
      const auto got = sim::run_sequence(lr.locked, {inp}, {key});
      if (want != got) {
        ++mismatches;
        mismatch_at = m;
      }
    }
    EXPECT_EQ(mismatches, 1) << "key " << wrong;
    EXPECT_EQ(mismatch_at, wrong);
  }
}

TEST(CombLocks, AntiSatRequiresEvenKey) {
  const Netlist nl = s27();
  util::Rng rng(2);
  EXPECT_THROW(anti_sat(nl, 5, rng), std::invalid_argument);
}

TEST(CombLocks, AntiSatAnyEqualHalvesAreCorrect) {
  // The Anti-SAT property: any key with K1 == K2 unlocks.
  const char* comb = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n";
  const Netlist nl = netlist::read_bench_string(comb, "c");
  util::Rng rng(3);
  const LockResult lr = anti_sat(nl, 4, rng);
  for (std::uint64_t half = 0; half < 4; ++half) {
    sim::BitVec key = sim::u64_to_bits(half, 2);
    const sim::BitVec copy = key;
    key.insert(key.end(), copy.begin(), copy.end());
    for (std::uint64_t m = 0; m < 4; ++m) {
      const auto inp = sim::u64_to_bits(m, 2);
      EXPECT_EQ(sim::run_sequence(nl, {inp}),
                sim::run_sequence(lr.locked, {inp}, {key}))
          << "half " << half << " minterm " << m;
    }
  }
}

TEST(CombLocks, TtLockCorrectKeyIsProtectedPattern) {
  const char* comb = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
  const Netlist nl = netlist::read_bench_string(comb, "c");
  util::Rng rng(4);
  const LockResult lr = tt_lock(nl, 2, rng);
  // Wrong key corrupts exactly two minterms: the protected pattern and the
  // wrong-key pattern (classic TTLock signature).
  for (std::uint64_t wrong = 0; wrong < 4; ++wrong) {
    const sim::BitVec key = sim::u64_to_bits(wrong, 2);
    if (key == lr.correct_key) continue;
    int mismatches = 0;
    for (std::uint64_t m = 0; m < 4; ++m) {
      const auto inp = sim::u64_to_bits(m, 2);
      if (sim::run_sequence(nl, {inp}) !=
          sim::run_sequence(lr.locked, {inp}, {key})) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 2) << "key " << wrong;
  }
}

TEST(CombLocks, SfllHdRejectsBadDistance) {
  const Netlist nl = s27();
  util::Rng rng(5);
  EXPECT_THROW(sfll_hd(nl, 4, 5, rng), std::invalid_argument);
  EXPECT_THROW(sfll_hd(nl, 4, -1, rng), std::invalid_argument);
}

TEST(CombLocks, SfllHdZeroDegeneratesToPointFunction) {
  const char* comb = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n";
  const Netlist nl = netlist::read_bench_string(comb, "c");
  util::Rng rng(6);
  const LockResult lr = sfll_hd(nl, 2, 0, rng);
  util::Rng vrng(7);
  EXPECT_EQ(validate_lock(nl, lr, vrng), "");
}

}  // namespace
}  // namespace cl::lock
