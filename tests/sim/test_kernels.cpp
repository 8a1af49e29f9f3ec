// Randomized cross-check of the per-ISA simulation kernels: every Op code
// (including N-ary arities that exercise the fanin pool), every kernel tier
// available on the host, lane counts that hit full registers, scalar tails
// and sub-register widths, deliberately misaligned buffers, and spans that
// split runs. The SIMD tiers are pure bitwise logic, so the contract is
// exact bit equality with the generic tier — any mismatch is a kernel bug,
// never tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "benchgen/catalog.hpp"
#include "sim/compiled.hpp"
#include "sim/kernels.hpp"
#include "util/aligned.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace cl::sim {
namespace {

using kernels::EvalSpanFn;
using netlist::SignalId;
using util::SimIsa;

/// A hand-built program covering every opcode, in the compiled layout:
/// slots [0, num_inputs) are free inputs, gate g writes slot num_inputs + g,
/// and consecutive gates of one opcode within a layer form one Run. Layer 1
/// reads inputs only and holds runs of two gates per opcode; layer 2 reads
/// layer-1 outputs, so lane words chain through dependent gates like a
/// real levelized netlist.
struct Playground {
  static constexpr std::size_t num_inputs = 12;
  std::vector<Run> runs;
  std::vector<std::uint32_t> a, b, c;
  std::vector<std::uint32_t> pool;
  std::uint32_t layer1_end = 0;  // gates [0, layer1_end) read inputs only

  std::uint32_t gate(Op op, std::uint32_t x, std::uint32_t y = 0,
                     std::uint32_t z = 0) {
    const auto g = static_cast<std::uint32_t>(a.size());
    if (runs.empty() || runs.back().op != op || runs.back().end == layer1_end) {
      runs.push_back(Run{g, g, op});
    }
    ++runs.back().end;
    a.push_back(x);
    b.push_back(y);
    c.push_back(z);
    return static_cast<std::uint32_t>(num_inputs) + g;
  }
  std::uint32_t opn(Op op, const std::vector<std::uint32_t>& fanins) {
    const auto offset = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), fanins.begin(), fanins.end());
    return gate(op, offset, static_cast<std::uint32_t>(fanins.size()));
  }

  Playground() {
    // Layer 1: every opcode over raw inputs, two gates each.
    const std::uint32_t buf = gate(Op::Buf, 0);
    gate(Op::Buf, 11);
    const std::uint32_t inv = gate(Op::Not, 1);
    gate(Op::Not, 10);
    for (const Op op : {Op::And2, Op::Nand2, Op::Or2, Op::Nor2, Op::Xor2,
                        Op::Xnor2}) {
      const auto k = static_cast<std::uint32_t>(op);
      gate(op, k % 12, (k + 5) % 12);
      gate(op, (k + 3) % 12, (k + 7) % 12);
    }
    gate(Op::Mux, 1, 2, 3);
    gate(Op::Mux, 4, 5, 6);
    const std::uint32_t and2 = opn(Op::AndN, {0, 7});
    opn(Op::AndN, {3, 8, 11});
    const std::uint32_t xor3 = opn(Op::XorN, {1, 4, 9});
    opn(Op::XorN, {1, 2, 3, 4, 5, 6, 7, 8});
    opn(Op::NandN, {2, 5, 8});
    opn(Op::NandN, {9, 10});
    opn(Op::OrN, {3, 6, 9, 0, 1});
    opn(Op::OrN, {11, 10, 9});
    opn(Op::NorN, {0, 1, 2, 3, 4, 5, 6, 7, 8});
    opn(Op::NorN, {6, 5});
    opn(Op::XnorN, {10, 11, 0, 5, 7, 9, 2});
    opn(Op::XnorN, {4, 8, 0});
    layer1_end = static_cast<std::uint32_t>(a.size());
    // Layer 2: opcodes over layer-1 outputs.
    gate(Op::Xor2, buf, inv);
    gate(Op::Xor2, and2, xor3);
    gate(Op::Mux, and2, xor3, buf);
    opn(Op::XorN, {buf, inv, and2, xor3});
    opn(Op::AndN, {inv, and2, xor3});
  }

  std::size_t num_gates() const { return a.size(); }
  std::size_t num_signals() const { return num_inputs + num_gates(); }
  kernels::Stream stream() const {
    kernels::Stream s;
    s.runs = runs.data();
    s.runs_end = runs.data() + runs.size();
    s.a = a.data();
    s.b = b.data();
    s.c = c.data();
    s.pool = pool.data();
    s.base = num_inputs;
    return s;
  }
};

/// Evaluate the playground with `fn` at `lanes` words per slot, the value
/// block starting `offset` words into a 64-byte-aligned allocation (offset 1
/// = deliberately misaligned base, legal because all kernel loads/stores are
/// unaligned ops). With `chunked`, each layer is evaluated in spans of three
/// gates, last span first, as sharded evaluation may split and reorder a
/// level: the spans cut runs in the middle and at their ends. Returns the
/// full value buffer.
std::vector<std::uint64_t> run_playground(const Playground& pg, EvalSpanFn fn,
                                          std::size_t lanes, std::size_t offset,
                                          bool chunked) {
  util::AlignedVec<std::uint64_t> buf(pg.num_signals() * lanes + offset, 0);
  std::uint64_t* v = buf.data() + offset;
  util::Rng rng(0xc0ffee);  // same stimulus for every tier
  for (std::size_t s = 0; s < Playground::num_inputs; ++s) {
    for (std::size_t w = 0; w < lanes; ++w) v[s * lanes + w] = rng.next_u64();
  }
  const kernels::Stream stream = pg.stream();
  if (!chunked) {
    fn(stream, 0, pg.num_gates(), v, lanes);
    return {buf.begin(), buf.end()};
  }
  const std::size_t layers[] = {0, pg.layer1_end, pg.num_gates()};
  for (std::size_t l = 0; l < 2; ++l) {
    for (std::size_t end = layers[l + 1]; end > layers[l];) {
      const std::size_t begin = end - std::min<std::size_t>(3, end - layers[l]);
      fn(stream, begin, end, v, lanes);
      end = begin;
    }
  }
  return {buf.begin(), buf.end()};
}

TEST(Kernels, GenericTierAlwaysPresent) {
  EXPECT_TRUE(kernels::compiled_in(SimIsa::Generic));
  EXPECT_TRUE(kernels::available(SimIsa::Generic));
  EXPECT_EQ(kernels::eval_span_for(1, SimIsa::Generic),
            &kernels::eval_span_generic);
}

TEST(Kernels, SimdTiersMatchGenericBitForBit) {
  const Playground pg;
  // Layer 1 holds one run per opcode, layer 2 four runs.
  ASSERT_EQ(pg.runs.size(), static_cast<std::size_t>(Op::XnorN) + 1 + 4);
  const struct {
    SimIsa isa;
    EvalSpanFn fn;
  } tiers[] = {
      {SimIsa::Generic, &kernels::eval_span_generic},
      {SimIsa::Avx2, &kernels::eval_span_avx2},
      {SimIsa::Avx512, &kernels::eval_span_avx512},
  };
  for (const auto& tier : tiers) {
    if (!kernels::available(tier.isa)) {
      GTEST_LOG_(INFO) << util::sim_isa_name(tier.isa)
                       << " not available on this host; skipping";
      continue;
    }
    // Widths below, at, above and straddling both register sizes.
    for (const std::size_t lanes : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 16u}) {
      for (const std::size_t offset : {0u, 1u}) {
        const auto want = run_playground(pg, &kernels::eval_span_generic,
                                         lanes, offset, false);
        for (const bool chunked : {false, true}) {
          const auto got = run_playground(pg, tier.fn, lanes, offset, chunked);
          EXPECT_EQ(want, got)
              << util::sim_isa_name(tier.isa) << " lanes=" << lanes
              << " offset=" << offset << " chunked=" << chunked;
        }
      }
    }
  }
}

TEST(Kernels, DispatchRefusesTiersWiderThanTheLaneBlock) {
  // A tier is only eligible when one full register fits the lane count;
  // anything narrower falls through to the next tier down.
  for (const std::size_t lanes : {1u, 2u, 3u}) {
    EXPECT_EQ(kernels::eval_span_for(lanes, SimIsa::Avx512),
              &kernels::eval_span_generic)
        << lanes;
  }
  if (kernels::available(SimIsa::Avx2)) {
    EXPECT_EQ(kernels::eval_span_for(4, SimIsa::Avx2),
              &kernels::eval_span_avx2);
    // 7 lane words cannot feed a 512-bit register, so even an AVX-512
    // request degrades to the 256-bit tier.
    EXPECT_EQ(kernels::eval_span_for(7, SimIsa::Avx512),
              &kernels::eval_span_avx2);
  }
  if (kernels::available(SimIsa::Avx512)) {
    EXPECT_EQ(kernels::eval_span_for(8, SimIsa::Avx512),
              &kernels::eval_span_avx512);
    EXPECT_EQ(kernels::eval_span_for(16, SimIsa::Avx512),
              &kernels::eval_span_avx512);
  }
}

TEST(Kernels, SetActiveIsaRejectsUnavailableTiers) {
  const SimIsa before = kernels::active_isa();
  EXPECT_TRUE(kernels::set_active_isa(SimIsa::Generic));
  EXPECT_EQ(kernels::active_isa(), SimIsa::Generic);
  for (const SimIsa isa : {SimIsa::Avx2, SimIsa::Avx512}) {
    if (kernels::available(isa)) {
      EXPECT_TRUE(kernels::set_active_isa(isa));
      EXPECT_EQ(kernels::active_isa(), isa);
    } else {
      EXPECT_FALSE(kernels::set_active_isa(isa));
      EXPECT_NE(kernels::active_isa(), isa);
    }
  }
  EXPECT_TRUE(kernels::set_active_isa(before));
}

TEST(Kernels, WideSimIdenticalAcrossTiersOnRealCircuit) {
  // End-to-end: a real benchmark circuit through WideSim under every
  // available tier produces byte-identical buffers, sequential state
  // included (3 eval/step cycles).
  const auto circuit = benchgen::make_circuit("s5378");
  const SimIsa before = kernels::active_isa();
  std::vector<std::vector<std::uint64_t>> per_tier;
  for (const SimIsa isa :
       {SimIsa::Generic, SimIsa::Avx2, SimIsa::Avx512}) {
    if (!kernels::available(isa)) continue;
    ASSERT_TRUE(kernels::set_active_isa(isa));
    WideSim simulator(circuit.netlist, 16);
    util::Rng rng(99);
    std::vector<std::uint64_t> trace;
    for (int cycle = 0; cycle < 3; ++cycle) {
      for (SignalId i : circuit.netlist.inputs()) {
        for (std::size_t w = 0; w < 16; ++w) {
          simulator.set_word(i, w, rng.next_u64());
        }
      }
      simulator.eval();
      for (SignalId o : circuit.netlist.outputs()) {
        for (std::size_t w = 0; w < 16; ++w) {
          trace.push_back(simulator.get_word(o, w));
        }
      }
      simulator.step();
    }
    per_tier.push_back(std::move(trace));
  }
  ASSERT_TRUE(kernels::set_active_isa(before));
  for (std::size_t t = 1; t < per_tier.size(); ++t) {
    EXPECT_EQ(per_tier[0], per_tier[t]) << "tier index " << t;
  }
}

}  // namespace
}  // namespace cl::sim
