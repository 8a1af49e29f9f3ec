// Scale regression: the mega catalog's syn1m compiles to >= 10^6
// combinational gates and simulates through the sharded level-parallel path
// with results bit-identical to the serial path. This is the compiled
// engine's reason to exist; keep it cheap (a handful of evals) so it stays
// inside the CI budget.
#include <gtest/gtest.h>

#include "benchgen/catalog.hpp"
#include "sim/compiled.hpp"
#include "sim/kernels.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cl::sim {
namespace {

using netlist::SignalId;

TEST(CompiledScale, MillionGateSuiteSimulatesThroughShardedPath) {
  const auto circuit = benchgen::make_circuit("syn1m");
  const auto stats = circuit.netlist.stats();
  ASSERT_GE(stats.gates, 1'000'000u);

  const CompiledNetlist compiled(circuit.netlist);
  EXPECT_EQ(compiled.num_gates(), stats.gates);
  EXPECT_GT(compiled.num_levels(), 1u);
  // syn1m must actually be above the auto-shard threshold, so eval_auto
  // takes the sharded path on shard_pool().
  EXPECT_GE(compiled.num_gates(), k_shard_threshold);

  util::ThreadPool pool(4);
  util::Rng rng(11);
  std::vector<std::uint64_t> serial(compiled.buffer_words(1), 0);
  std::vector<std::uint64_t> sharded(compiled.buffer_words(1), 0);
  std::vector<std::uint64_t> automatic(compiled.buffer_words(1), 0);
  compiled.reset_words(serial.data(), 1);
  compiled.reset_words(sharded.data(), 1);
  compiled.reset_words(automatic.data(), 1);
  std::vector<std::uint64_t> scratch_a, scratch_b, scratch_c;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (SignalId i : compiled.inputs()) {
      const std::uint64_t w = rng.next_u64();
      serial[i] = w;
      sharded[i] = w;
      automatic[i] = w;
    }
    compiled.eval(serial.data(), 1);
    compiled.eval_sharded(sharded.data(), 1, pool);
    compiled.eval_auto(automatic.data(), 1);
    for (SignalId o : compiled.outputs()) {
      ASSERT_EQ(serial[o], sharded[o]) << "cycle " << cycle;
    }
    ASSERT_EQ(serial, sharded) << "cycle " << cycle;
    ASSERT_EQ(serial, automatic) << "cycle " << cycle;
    compiled.step_words(serial.data(), 1, scratch_a);
    compiled.step_words(sharded.data(), 1, scratch_b);
    compiled.step_words(automatic.data(), 1, scratch_c);
  }
  // The outputs must be alive (not stuck) for the suite to be useful in
  // attack studies.
  bool saw_one = false;
  for (SignalId o : compiled.outputs()) saw_one |= serial[o] != 0;
  EXPECT_TRUE(saw_one);
}

TEST(CompiledScale, MillionGateWideLanesMatchForcedGenericKernels) {
  // The lanes=1 test above never leaves the scalar kernels (SIMD needs at
  // least one full register per signal), so rerun the sharded path at 4 lane
  // words — wide enough for the AVX tiers on hosts that have them — once
  // under the host's active tier and once with the generic kernels forced,
  // and require bit-identical buffers. On a generic-only host both runs take
  // the same kernels and the test degenerates to a determinism check.
  const auto circuit = benchgen::make_circuit("syn1m");
  const CompiledNetlist compiled(circuit.netlist);
  constexpr std::size_t kLanes = 4;

  util::ThreadPool pool(4);
  util::Rng rng(23);
  util::AlignedVec<std::uint64_t> active(compiled.buffer_words(kLanes), 0);
  util::AlignedVec<std::uint64_t> generic(compiled.buffer_words(kLanes), 0);
  compiled.reset_words(active.data(), kLanes);
  compiled.reset_words(generic.data(), kLanes);

  const util::SimIsa before = kernels::active_isa();
  util::AlignedVec<std::uint64_t> scratch_a, scratch_g;
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (SignalId i : compiled.inputs()) {
      for (std::size_t w = 0; w < kLanes; ++w) {
        const std::uint64_t word = rng.next_u64();
        active[i * kLanes + w] = word;
        generic[i * kLanes + w] = word;
      }
    }
    ASSERT_TRUE(kernels::set_active_isa(before));
    compiled.eval_sharded(active.data(), kLanes, pool);
    compiled.step_words(active.data(), kLanes, scratch_a);
    ASSERT_TRUE(kernels::set_active_isa(util::SimIsa::Generic));
    compiled.eval_sharded(generic.data(), kLanes, pool);
    compiled.step_words(generic.data(), kLanes, scratch_g);
    ASSERT_TRUE(kernels::set_active_isa(before));
    // ASSERT_EQ would print millions of words on failure.
    ASSERT_TRUE(active == generic) << "buffers diverged at cycle " << cycle;
  }
}

TEST(CompiledScale, FullScaleB18B19Specs) {
  // Regression for the catalog lift: b18/b19 report full published scale
  // (previously generated at 1/4 and 1/8 gate count).
  const auto& b18 = benchgen::find_spec("b18");
  EXPECT_EQ(b18.gates, 114620u);
  EXPECT_EQ(b18.dffs, 3320u);
  const auto& b19 = benchgen::find_spec("b19");
  EXPECT_EQ(b19.gates, 231320u);
  EXPECT_EQ(b19.dffs, 6640u);

  // And the generator honours the lifted spec (interface exact, gate count
  // within the usual synthetic tolerance).
  const auto c = benchgen::make_circuit("b18");
  EXPECT_EQ(c.netlist.inputs().size(), b18.inputs);
  EXPECT_EQ(c.netlist.outputs().size(), b18.outputs);
  EXPECT_EQ(c.netlist.dffs().size(), b18.dffs);
  const double ratio = static_cast<double>(c.netlist.stats().gates) /
                       static_cast<double>(b18.gates);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.5);
}

TEST(CompiledScale, MegaSuiteSpecsResolvable) {
  EXPECT_EQ(benchgen::mega_specs().size(), 3u);
  EXPECT_NO_THROW(benchgen::find_spec("syn64k"));
  EXPECT_NO_THROW(benchgen::find_spec("syn256k"));
  EXPECT_NO_THROW(benchgen::find_spec("syn1m"));
}

}  // namespace
}  // namespace cl::sim
