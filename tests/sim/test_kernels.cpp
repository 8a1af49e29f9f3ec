// Randomized cross-check of the per-ISA simulation kernels: every Op code
// (including N-ary arities that exercise the fanin pool), every kernel tier
// available on the host, lane counts that hit full registers, scalar tails
// and sub-register widths, and deliberately misaligned buffers. The SIMD
// tiers are pure bitwise logic, so the contract is exact bit equality with
// the generic tier — any mismatch is a kernel bug, never tolerance.
#include <gtest/gtest.h>

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

/// A hand-built instruction stream covering every opcode. Signals
/// [0, num_inputs) are free inputs; every instruction defines the next
/// signal, and the second half reads earlier instruction outputs so values
/// chain through the stream like a real levelized netlist.
struct Playground {
  static constexpr std::size_t num_inputs = 12;
  std::vector<Instr> instrs;
  std::vector<SignalId> pool;
  SignalId next = num_inputs;
  std::uint32_t layer1_end = 0;  // instrs[0, layer1_end) read inputs only

  SignalId op1(Op op, std::uint32_t a) {
    instrs.push_back(Instr{next, a, 0, 0, op});
    return next++;
  }
  SignalId op2(Op op, std::uint32_t a, std::uint32_t b) {
    instrs.push_back(Instr{next, a, b, 0, op});
    return next++;
  }
  SignalId mux(std::uint32_t sel, std::uint32_t d0, std::uint32_t d1) {
    instrs.push_back(Instr{next, sel, d0, d1, Op::Mux});
    return next++;
  }
  SignalId opn(Op op, const std::vector<SignalId>& fanins) {
    const auto offset = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), fanins.begin(), fanins.end());
    instrs.push_back(
        Instr{next, offset, static_cast<std::uint32_t>(fanins.size()), 0, op});
    return next++;
  }

  Playground() {
    // Layer 1: every opcode over raw inputs.
    const SignalId b = op1(Op::Buf, 0);
    const SignalId n = op1(Op::Not, 1);
    op2(Op::And2, 2, 3);
    op2(Op::Nand2, 4, 5);
    op2(Op::Or2, 6, 7);
    op2(Op::Nor2, 8, 9);
    op2(Op::Xor2, 10, 11);
    op2(Op::Xnor2, 0, 6);
    mux(1, 2, 3);
    const SignalId a2 = opn(Op::AndN, {0, 7});
    const SignalId x3 = opn(Op::XorN, {1, 4, 9});
    opn(Op::NandN, {2, 5, 8});
    opn(Op::OrN, {3, 6, 9, 0, 1});
    opn(Op::NorN, {0, 1, 2, 3, 4, 5, 6, 7, 8});
    opn(Op::XnorN, {10, 11, 0, 5, 7, 9, 2});
    layer1_end = static_cast<std::uint32_t>(instrs.size());
    // Layer 2: the same opcodes over layer-1 outputs, so lane words flow
    // through dependent instructions.
    op2(Op::Xor2, b, n);
    mux(a2, x3, b);
    opn(Op::XorN, {b, n, a2, x3});
    opn(Op::AndN, {n, a2, x3});
  }

  std::size_t num_signals() const { return next; }
};

/// Evaluate the playground with `fn` at `lanes` words per signal, the value
/// block starting `offset` words into a 64-byte-aligned allocation (offset 1
/// = deliberately misaligned base, legal because all kernel loads/stores are
/// unaligned ops). The index span walks the stream in reverse within each
/// layer, as a real evaluation order may reorder a level. Returns the full
/// value buffer.
std::vector<std::uint64_t> run_playground(const Playground& pg, EvalSpanFn fn,
                                          std::size_t lanes,
                                          std::size_t offset) {
  util::AlignedVec<std::uint64_t> buf(pg.num_signals() * lanes + offset, 0);
  std::uint64_t* v = buf.data() + offset;
  util::Rng rng(0xc0ffee);  // same stimulus for every tier
  for (std::size_t s = 0; s < Playground::num_inputs; ++s) {
    for (std::size_t w = 0; w < lanes; ++w) v[s * lanes + w] = rng.next_u64();
  }
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = pg.layer1_end; i-- > 0;) order.push_back(i);
  for (auto i = static_cast<std::uint32_t>(pg.instrs.size());
       i-- > pg.layer1_end;) {
    order.push_back(i);
  }
  fn(pg.instrs.data(), order.data(), order.data() + order.size(),
     pg.pool.data(), v, lanes);
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
  const struct {
    SimIsa isa;
    EvalSpanFn fn;
  } tiers[] = {
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
        const auto want =
            run_playground(pg, &kernels::eval_span_generic, lanes, offset);
        const auto got = run_playground(pg, tier.fn, lanes, offset);
        EXPECT_EQ(want, got)
            << util::sim_isa_name(tier.isa) << " lanes=" << lanes
            << " offset=" << offset;
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
