#include "core/counter.hpp"

#include <gtest/gtest.h>

#include "sim/compiled.hpp"

namespace cl::core {
namespace {

using netlist::Netlist;

TEST(TimeBase, CounterBitsCeilLog) {
  EXPECT_EQ(counter_bits(2), 1);
  EXPECT_EQ(counter_bits(3), 2);
  EXPECT_EQ(counter_bits(4), 2);
  EXPECT_EQ(counter_bits(5), 3);
  EXPECT_EQ(counter_bits(16), 4);
  EXPECT_THROW(counter_bits(1), std::invalid_argument);
}

class TimeBaseSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TimeBaseSweep, CountsModuloKWithOneHotIndicators) {
  const std::size_t k = GetParam();
  Netlist nl("tb");
  const TimeBase tb = build_time_base(nl, k, "t");
  // Anchor the indicators so the netlist has outputs for cleanliness.
  for (auto s : tb.is_time) nl.add_output(s);
  nl.check();
  sim::WideSim sim(nl);
  for (std::size_t cycle = 0; cycle < 3 * k + 1; ++cycle) {
    sim.eval();
    const std::size_t expect = cycle % k;
    // Counter value.
    std::uint64_t value = 0;
    for (std::size_t b = 0; b < tb.counter_ffs.size(); ++b) {
      if (sim.get_word(tb.counter_ffs[b], 0) & 1ULL) value |= 1ULL << b;
    }
    EXPECT_EQ(value, expect) << "cycle " << cycle;
    // Indicators are one-hot at the current slot.
    for (std::size_t t = 0; t < k; ++t) {
      EXPECT_EQ(sim.get_word(tb.is_time[t], 0) & 1ULL,
                t == expect ? 1ULL : 0ULL)
          << "cycle " << cycle << " slot " << t;
    }
    sim.step();
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, TimeBaseSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16, 21));

TEST(TimeBase, NonPowerOfTwoPeriodsWrapToZeroNotIntoDeadStates) {
  // For k not a power of two the counter register can encode values
  // k..2^bits-1 that must never be visited: the wrap must jump from k-1
  // straight to 0. Checked for three full periods each.
  for (const std::size_t k : {std::size_t{3}, std::size_t{5}, std::size_t{6}}) {
    Netlist nl("wrap" + std::to_string(k));
    const TimeBase tb = build_time_base(nl, k, "t");
    for (auto s : tb.is_time) nl.add_output(s);
    nl.check();
    sim::WideSim sim(nl);
    std::size_t wraps_seen = 0;
    std::size_t prev = 0;
    for (std::size_t cycle = 0; cycle < 3 * k + 1; ++cycle) {
      sim.eval();
      std::uint64_t value = 0;
      for (std::size_t b = 0; b < tb.counter_ffs.size(); ++b) {
        if (sim.get_word(tb.counter_ffs[b], 0) & 1ULL) value |= 1ULL << b;
      }
      // Never inside the dead zone [k, 2^bits).
      ASSERT_LT(value, k) << "k=" << k << " cycle " << cycle;
      if (cycle > 0) {
        // Successor is +1 mod k; in particular k-1 -> 0, not k-1 -> k.
        EXPECT_EQ(value, (prev + 1) % k) << "k=" << k << " cycle " << cycle;
        if (prev == k - 1) {
          EXPECT_EQ(value, 0u);
          ++wraps_seen;
        }
      }
      // One-hot indicator agrees with the register value.
      for (std::size_t t = 0; t < k; ++t) {
        EXPECT_EQ(sim.get_word(tb.is_time[t], 0) & 1ULL,
                  t == value ? 1ULL : 0ULL)
            << "k=" << k << " cycle " << cycle << " slot " << t;
      }
      prev = value;
      sim.step();
    }
    EXPECT_EQ(wraps_seen, 3u) << "k=" << k;
  }
}

}  // namespace
}  // namespace cl::core
