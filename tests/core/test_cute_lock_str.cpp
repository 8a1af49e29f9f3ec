#include "core/cute_lock_str.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/catalog.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/topo.hpp"
#include "sim/compiled.hpp"

namespace cl::core {
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

class StrSweep : public ::testing::TestWithParam<
                     std::tuple<std::size_t, std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(StrSweep, CorrectScheduleIsTransparent) {
  const auto [k, ki, ffs, seed] = GetParam();
  const Netlist nl = s27();
  StrOptions opt;
  opt.num_keys = k;
  opt.key_bits = ki;
  opt.locked_ffs = ffs;
  opt.seed = seed;
  const auto lr = cute_lock_str(nl, opt);
  EXPECT_EQ(lr.key_schedule.size(), k);
  EXPECT_EQ(lr.locked.key_inputs().size(), ki);
  util::Rng rng(seed + 1000);
  EXPECT_EQ(validate_lock(nl, lr, rng), "")
      << "k=" << k << " ki=" << ki << " ffs=" << ffs << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrSweep,
    ::testing::Values(std::make_tuple(2, 2, 1, 1ULL), std::make_tuple(2, 4, 2, 2ULL),
                      std::make_tuple(3, 3, 1, 3ULL), std::make_tuple(4, 2, 1, 4ULL),
                      std::make_tuple(4, 4, 3, 5ULL), std::make_tuple(5, 3, 2, 6ULL),
                      std::make_tuple(6, 5, 3, 7ULL), std::make_tuple(8, 4, 2, 8ULL),
                      std::make_tuple(8, 8, 3, 9ULL),
                      std::make_tuple(16, 5, 2, 10ULL)));

TEST(CuteLockStr, EveryStaticKeyDerailsTheStateMachine) {
  // The core security property: because K[0] != K[1], no static key can
  // satisfy all counter slots, so every static assignment corrupts the
  // *state trajectory*. (Whether that reaches an output immediately depends
  // on the circuit's observability — s27 has a single, highly masking
  // output — so this test compares the functional registers directly.)
  const Netlist nl = s27();
  StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 3;
  opt.locked_ffs = 2;
  opt.seed = 77;
  const auto lr = cute_lock_str(nl, opt);
  util::Rng rng(123);
  for (std::uint64_t key = 0; key < 8; ++key) {
    bool state_diverged = false;
    for (int trial = 0; trial < 4 && !state_diverged; ++trial) {
      const auto stim = sim::random_stimulus(rng, 64, nl.inputs().size());
      sim::WideSim orig(nl);
      sim::WideSim locked(lr.locked);
      const auto kv = sim::u64_to_bits(key, 3);
      for (std::size_t t = 0; t < stim.size() && !state_diverged; ++t) {
        for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
          orig.set_word(nl.inputs()[i], 0, stim[t][i] ? ~0ULL : 0ULL);
          locked.set_word(lr.locked.inputs()[i], 0, stim[t][i] ? ~0ULL : 0ULL);
        }
        for (std::size_t b = 0; b < kv.size(); ++b) {
          locked.set_word(lr.locked.key_inputs()[b], 0, kv[b] ? ~0ULL : 0ULL);
        }
        orig.eval();
        locked.eval();
        for (netlist::SignalId q : nl.dffs()) {
          const netlist::SignalId lq = lr.locked.find(nl.signal_name(q));
          if ((orig.get_word(q, 0) ^ locked.get_word(lq, 0)) & 1ULL) {
            state_diverged = true;
          }
        }
        orig.step();
        locked.step();
      }
    }
    EXPECT_TRUE(state_diverged) << "static key " << key;
  }
}

TEST(CuteLockStr, SingleKeyReductionAcceptsStaticKey) {
  const Netlist nl = s27();
  StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 3;
  opt.locked_ffs = 2;
  opt.seed = 78;
  opt.single_key_reduction = true;
  const auto lr = cute_lock_str(nl, opt);
  // All schedule entries coincide.
  for (const auto& kv : lr.key_schedule) EXPECT_EQ(kv, lr.key_schedule[0]);
  util::Rng rng(124);
  const auto stim = sim::random_stimulus(rng, 48, nl.inputs().size());
  const auto want = sim::run_sequence(nl, stim);
  const auto got = sim::run_sequence(lr.locked, stim, {lr.key_schedule[0]});
  EXPECT_EQ(sim::first_divergence(want, got), -1);
}

TEST(CuteLockStr, PaperKeysOnS27) {
  // The paper's Table II configuration: s27 locked with keys 1, 3, 2, 0.
  // Our generator draws keys from the seed, so emulate by checking the
  // schedule has period 4 and width 2 and validates.
  const Netlist nl = s27();
  StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 2;
  opt.locked_ffs = 1;
  opt.seed = 2025;
  const auto lr = cute_lock_str(nl, opt);
  EXPECT_EQ(lr.key_schedule.size(), 4u);
  EXPECT_EQ(lr.key_schedule[0].size(), 2u);
  util::Rng rng(99);
  EXPECT_EQ(validate_lock(nl, lr, rng), "");
}

TEST(CuteLockStr, AddsCounterAndMuxTree) {
  const Netlist nl = s27();
  StrOptions opt;
  opt.num_keys = 4;
  opt.key_bits = 2;
  opt.locked_ffs = 1;
  opt.seed = 5;
  const auto lr = cute_lock_str(nl, opt);
  // 2 counter FFs for k=4.
  EXPECT_EQ(lr.locked.dffs().size(), nl.dffs().size() + 2);
  // MUX gates exist (layer 1 slots + upper layers).
  std::size_t muxes = 0;
  for (netlist::SignalId s = 0; s < lr.locked.size(); ++s) {
    if (lr.locked.type(s) == netlist::GateType::Mux) ++muxes;
  }
  EXPECT_GE(muxes, opt.num_keys);  // at least one slot MUX per time
  EXPECT_NO_THROW(netlist::topo_order(lr.locked));
}

TEST(CuteLockStr, WrongfulHardwareIsRepurposedNotDuplicated) {
  // Lock 1 FF of s27: the wrongful inputs of the layer-1 slots must be
  // pre-existing next-state signals (G10/G11/G13), not fresh logic clones.
  const Netlist nl = s27();
  StrOptions opt;
  opt.num_keys = 2;
  opt.key_bits = 2;
  opt.locked_ffs = 3;
  opt.seed = 6;
  const auto lr = cute_lock_str(nl, opt);
  // Gate growth should be bounded: counter + comparators + MUX trees only.
  // Duplicating even one next-state cone of s27 would add ~10 gates per
  // slot; the whole lock must stay well under that.
  const std::size_t added = lr.locked.stats().gates - nl.stats().gates;
  EXPECT_LT(added, 120u);
  util::Rng rng(7);
  EXPECT_EQ(validate_lock(nl, lr, rng), "");
}

TEST(CuteLockStr, OptionValidation) {
  const Netlist nl = s27();
  StrOptions opt;
  opt.num_keys = 1;
  EXPECT_THROW(cute_lock_str(nl, opt), std::invalid_argument);
  opt.num_keys = 2;
  opt.key_bits = 0;
  EXPECT_THROW(cute_lock_str(nl, opt), std::invalid_argument);
  opt.key_bits = 2;
  opt.locked_ffs = 0;
  EXPECT_THROW(cute_lock_str(nl, opt), std::invalid_argument);
  // No flip-flops at all:
  Netlist comb("c");
  const auto a = comb.add_input("a");
  comb.add_output(comb.add_not(a, "y"));
  StrOptions ok;
  EXPECT_THROW(cute_lock_str(comb, ok), std::invalid_argument);
}

TEST(CuteLockStr, DeterministicForSameSeed) {
  const Netlist nl = s27();
  StrOptions opt;
  opt.seed = 42;
  const auto a = cute_lock_str(nl, opt);
  const auto b = cute_lock_str(nl, opt);
  EXPECT_EQ(a.key_schedule, b.key_schedule);
  EXPECT_EQ(a.locked.size(), b.locked.size());
}

TEST(CuteLockStr, PicksTheSameFlipFlopsOnSyn64k) {
  // The lock rewires the FFs closest to an output in register hops. On
  // syn64k the FFs lie up to 7 hops deep (a fixpoint of one cone walk per
  // hop needs 10 rounds there), so the one reverse walk that ranks them
  // crosses many D pins. These are the FFs, in lock order cl_ff0..3, that
  // the per-hop fixpoint picked.
  const auto circuit = benchgen::make_circuit("syn64k");
  const Netlist& nl = circuit.netlist;
  StrOptions opt;
  opt.num_keys = 2;
  opt.key_bits = 4;
  opt.locked_ffs = 4;
  opt.seed = 0x3e6a + 65536 + 2;
  const auto lr = cute_lock_str(nl, opt);
  std::vector<std::string> rewired(opt.locked_ffs);
  for (const netlist::SignalId q : nl.dffs()) {
    if (lr.locked.dff_input(q) == nl.dff_input(q)) continue;
    const std::string d_net = lr.locked.signal_name(lr.locked.dff_input(q));
    ASSERT_EQ(d_net.rfind("cl_ff", 0), 0u) << d_net;
    const std::size_t index = std::stoul(d_net.substr(5));
    ASSERT_LT(index, rewired.size()) << d_net;
    rewired[index] = nl.signal_name(q);
  }
  EXPECT_EQ(rewired,
            (std::vector<std::string>{"w58_b5", "w72_b0", "w11_b0", "w83_b1"}));
}

TEST(CuteLockStr, AdjacentScheduleEntriesDiffer) {
  const Netlist nl = s27();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    StrOptions opt;
    opt.num_keys = 4;
    opt.key_bits = 2;
    opt.seed = seed;
    const auto lr = cute_lock_str(nl, opt);
    for (std::size_t t = 1; t < lr.key_schedule.size(); ++t) {
      EXPECT_NE(lr.key_schedule[t], lr.key_schedule[t - 1]) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace cl::core
