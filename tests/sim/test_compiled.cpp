// Randomized cross-checks of the compiled simulation engine against
// sim::ReferenceSim (the frozen pre-compilation evaluator): every GateType,
// DFF X-init, wide-lane widths W in {1, 4, 16}, sharded evaluation, and
// the op-grouped evaluation order on a 10k-gate catalog circuit.
#include "sim/compiled.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "benchgen/catalog.hpp"
#include "netlist/topo.hpp"
#include "sim/reference_sim.hpp"
#include "sim/sequence.hpp"
#include "sim/x_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cl::sim {
namespace {

using netlist::DffInit;
using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

/// Random sequential netlist exercising every GateType: sources (inputs,
/// key inputs, both constants), every combinational gate at arities 2..4
/// (plus Buf/Not/Mux), and DFFs with all three power-up inits.
Netlist random_netlist(util::Rng& rng, std::size_t gates) {
  Netlist nl("rand");
  std::vector<SignalId> sigs;
  for (int i = 0; i < 5; ++i) sigs.push_back(nl.add_input("pi" + std::to_string(i)));
  for (int i = 0; i < 3; ++i) {
    sigs.push_back(nl.add_key_input("k" + std::to_string(i)));
  }
  sigs.push_back(nl.add_const(false, "c0"));
  sigs.push_back(nl.add_const(true, "c1"));
  std::vector<SignalId> dffs;
  constexpr DffInit inits[] = {DffInit::Zero, DffInit::One, DffInit::X};
  for (int i = 0; i < 6; ++i) {
    const SignalId q = nl.add_dff(netlist::k_no_signal, inits[i % 3],
                                  "q" + std::to_string(i));
    dffs.push_back(q);
    sigs.push_back(q);
  }
  constexpr GateType kinds[] = {GateType::Buf, GateType::Not, GateType::And,
                                GateType::Nand, GateType::Or, GateType::Nor,
                                GateType::Xor, GateType::Xnor, GateType::Mux};
  const auto pick = [&] { return sigs[rng.next_below(sigs.size())]; };
  for (std::size_t g = 0; g < gates; ++g) {
    const GateType t = kinds[g % std::size(kinds)];
    std::vector<SignalId> fanins;
    if (t == GateType::Buf || t == GateType::Not) {
      fanins = {pick()};
    } else if (t == GateType::Mux) {
      fanins = {pick(), pick(), pick()};
    } else {
      const std::size_t arity = 2 + rng.next_below(3);  // 2..4
      for (std::size_t f = 0; f < arity; ++f) fanins.push_back(pick());
    }
    sigs.push_back(nl.add_gate(t, fanins, nl.fresh_name("g")));
  }
  for (SignalId q : dffs) nl.set_dff_input(q, pick());
  for (int o = 0; o < 4; ++o) nl.add_output(pick());
  nl.check();
  return nl;
}

std::uint64_t rand_word(util::Rng& rng) { return rng.next_u64(); }

TEST(CompiledNetlist, MatchesReferenceOnRandomCircuits) {
  util::Rng rng(0xc0de);
  for (int trial = 0; trial < 12; ++trial) {
    const Netlist nl = random_netlist(rng, 40 + 20 * trial);
    ReferenceSim ref(nl);
    WideSim fast(nl);
    for (int cycle = 0; cycle < 6; ++cycle) {
      for (SignalId i : nl.inputs()) {
        const std::uint64_t w = rand_word(rng);
        ref.set(i, w);
        fast.set_word(i, 0, w);
      }
      for (SignalId k : nl.key_inputs()) {
        const std::uint64_t w = rand_word(rng);
        ref.set(k, w);
        fast.set_word(k, 0, w);
      }
      ref.eval();
      fast.eval();
      for (SignalId s = 0; s < nl.size(); ++s) {
        ASSERT_EQ(fast.get_word(s, 0), ref.get(s))
            << "trial " << trial << " cycle " << cycle << " signal "
            << nl.signal_name(s);
      }
      ref.step();
      fast.step();
    }
  }
}

TEST(CompiledNetlist, WideLanesMatchPerWordReferenceRuns) {
  // W words per signal == W independent 64-lane simulations: word w of the
  // wide run must equal a separate ReferenceSim run driven with word w.
  util::Rng rng(0x31de);
  for (const std::size_t lane_words : {std::size_t{1}, std::size_t{4},
                                       std::size_t{16}}) {
    const Netlist nl = random_netlist(rng, 120);
    WideSim wide(nl, lane_words);
    std::vector<ReferenceSim> refs(lane_words, ReferenceSim(nl));
    for (int cycle = 0; cycle < 4; ++cycle) {
      for (SignalId s : nl.all_inputs()) {
        for (std::size_t w = 0; w < lane_words; ++w) {
          const std::uint64_t word = rand_word(rng);
          wide.set_word(s, w, word);
          refs[w].set(s, word);
        }
      }
      wide.eval();
      for (auto& r : refs) r.eval();
      for (SignalId s = 0; s < nl.size(); ++s) {
        for (std::size_t w = 0; w < lane_words; ++w) {
          ASSERT_EQ(wide.get_word(s, w), refs[w].get(s))
              << "W=" << lane_words << " word " << w << " signal "
              << nl.signal_name(s);
        }
      }
      wide.step();
      for (auto& r : refs) r.step();
    }
  }
}

TEST(CompiledNetlist, OpGroupedEvalOrderMatchesReferenceOnS35932) {
  // The kernels walk eval_order(), which regroups each level by opcode;
  // instructions() must keep netlist::levelize order, because the CNF
  // encoder's variable order (and so every SAT trajectory) follows it.
  const auto circuit = benchgen::make_circuit("s35932");
  const Netlist& nl = circuit.netlist;
  ASSERT_GE(nl.stats().gates, 10000u);
  const auto compiled = std::make_shared<const CompiledNetlist>(nl);
  const std::vector<Instr>& instrs = compiled->instructions();
  const netlist::Levelization lv = netlist::levelize(nl);
  ASSERT_EQ(instrs.size(), lv.order.size() - lv.level_begin[1]);
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    ASSERT_EQ(instrs[i].out, lv.order[lv.level_begin[1] + i]) << i;
  }

  // Gate level l spans the same positions of eval_order() as of
  // instructions(): the levelization's, less the sources of level 0.
  const std::vector<std::uint32_t>& order = compiled->eval_order();
  ASSERT_EQ(order.size(), instrs.size());
  ASSERT_GT(lv.num_levels(), 2u);
  for (std::size_t l = 1; l < lv.num_levels(); ++l) {
    const std::size_t first = lv.level_begin[l] - lv.level_begin[1];
    const std::size_t last = lv.level_begin[l + 1] - lv.level_begin[1];
    std::vector<std::uint32_t> level(order.begin() + first,
                                     order.begin() + last);
    for (std::size_t i = 1; i < level.size(); ++i) {
      const Instr& prev = instrs[level[i - 1]];
      const Instr& cur = instrs[level[i]];
      ASSERT_TRUE(prev.op < cur.op ||
                  (prev.op == cur.op && prev.out < cur.out))
          << "level " << l << " position " << i;
    }
    std::sort(level.begin(), level.end());
    for (std::size_t i = 0; i < level.size(); ++i) {
      ASSERT_EQ(level[i], first + i) << "level " << l;
    }
  }

  // W words per signal == W ReferenceSim runs, over several cycles.
  util::Rng rng(0x35932);
  for (const std::size_t lane_words :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    WideSim wide(compiled, lane_words);
    std::vector<ReferenceSim> refs(lane_words, ReferenceSim(nl));
    for (int cycle = 0; cycle < 4; ++cycle) {
      for (SignalId s : nl.all_inputs()) {
        for (std::size_t w = 0; w < lane_words; ++w) {
          const std::uint64_t word = rand_word(rng);
          wide.set_word(s, w, word);
          refs[w].set(s, word);
        }
      }
      wide.eval();
      for (auto& r : refs) r.eval();
      for (SignalId s = 0; s < nl.size(); ++s) {
        for (std::size_t w = 0; w < lane_words; ++w) {
          ASSERT_EQ(wide.get_word(s, w), refs[w].get(s))
              << "W=" << lane_words << " cycle " << cycle << " word " << w
              << " signal " << nl.signal_name(s);
        }
      }
      wide.step();
      for (auto& r : refs) r.step();
    }
  }
}

TEST(CompiledNetlist, ShardedEvalIsBitIdenticalToSerial) {
  util::Rng rng(0x5a5a);
  util::ThreadPool pool(3);
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist nl = random_netlist(rng, 150);
    const CompiledNetlist compiled(nl);
    const std::size_t lanes = 4;
    std::vector<std::uint64_t> serial(compiled.buffer_words(lanes), 0);
    std::vector<std::uint64_t> sharded(compiled.buffer_words(lanes), 0);
    compiled.reset_words(serial.data(), lanes);
    compiled.reset_words(sharded.data(), lanes);
    for (SignalId s : nl.all_inputs()) {
      for (std::size_t w = 0; w < lanes; ++w) {
        const std::uint64_t word = rand_word(rng);
        serial[s * lanes + w] = word;
        sharded[s * lanes + w] = word;
      }
    }
    compiled.eval(serial.data(), lanes);
    compiled.eval_sharded(sharded.data(), lanes, pool);
    EXPECT_EQ(serial, sharded) << "trial " << trial;
  }
}

TEST(CompiledNetlist, DffXInitIsZeroInWordSimAndXInXSim) {
  // The two-valued engines (Reference and compiled) treat X power-up as 0;
  // XSim preserves the X through the compiled instruction stream.
  Netlist nl("xinit");
  const SignalId a = nl.add_input("a");
  const SignalId qx = nl.add_dff(a, DffInit::X, "qx");
  const SignalId g = nl.add_gate(GateType::Buf, {qx}, "g");
  nl.add_output(g);
  WideSim fast(nl);
  ReferenceSim ref(nl);
  fast.eval();
  ref.eval();
  EXPECT_EQ(fast.get_word(g, 0), 0ULL);
  EXPECT_EQ(ref.get(g), 0ULL);
  XSim xs(nl);
  xs.set(a, Trit::One);
  xs.eval();
  EXPECT_EQ(xs.get(g), Trit::X);
  xs.step();
  xs.eval();
  EXPECT_EQ(xs.get(g), Trit::One);
}

TEST(CompiledNetlist, XSimMatchesBitSimLaneZeroWhenFullyDefined) {
  // With all inputs driven and no X power-up, Kleene semantics collapse to
  // two-valued: XSim over the compiled stream must track WideSim lane 0.
  util::Rng rng(0xfade);
  for (int trial = 0; trial < 4; ++trial) {
    Netlist nl = random_netlist(rng, 100);
    for (SignalId d : nl.dffs()) {
      if (nl.dff_init(d) == DffInit::X) nl.set_dff_init(d, DffInit::Zero);
    }
    WideSim bits(nl);
    XSim xs(nl);
    for (int cycle = 0; cycle < 5; ++cycle) {
      for (SignalId s : nl.all_inputs()) {
        const bool bit = rng.chance(1, 2);
        bits.set_word(s, 0, bit ? ~0ULL : 0ULL);
        xs.set(s, bit ? Trit::One : Trit::Zero);
      }
      bits.eval();
      xs.eval();
      for (SignalId s = 0; s < nl.size(); ++s) {
        const Trit want =
            (bits.get_word(s, 0) & 1ULL) ? Trit::One : Trit::Zero;
        ASSERT_EQ(xs.get(s), want) << nl.signal_name(s);
      }
      bits.step();
      xs.step();
    }
  }
}

TEST(CompiledNetlist, BatchedSequencesMatchIndividualRuns) {
  util::Rng rng(0xbeef);
  // Batched runs serve the oracle, which is key-free: build a keyless
  // random sequential netlist.
  Netlist plain("plain");
  {
    std::vector<SignalId> sigs;
    for (int i = 0; i < 6; ++i) {
      sigs.push_back(plain.add_input("pi" + std::to_string(i)));
    }
    std::vector<SignalId> dffs;
    for (int i = 0; i < 4; ++i) {
      const SignalId q = plain.add_dff(netlist::k_no_signal,
                                       i % 2 ? DffInit::One : DffInit::Zero,
                                       "q" + std::to_string(i));
      dffs.push_back(q);
      sigs.push_back(q);
    }
    const auto pick = [&] { return sigs[rng.next_below(sigs.size())]; };
    for (int g = 0; g < 60; ++g) {
      sigs.push_back(plain.add_xor(pick(), pick(), plain.fresh_name("g")));
      sigs.push_back(plain.add_and(pick(), pick(), plain.fresh_name("g")));
    }
    for (SignalId q : dffs) plain.set_dff_input(q, pick());
    for (int o = 0; o < 3; ++o) plain.add_output(pick());
    plain.check();
  }
  const CompiledNetlist compiled(plain);
  // 70 sequences -> 2 lane words.
  std::vector<std::vector<BitVec>> seqs;
  for (int j = 0; j < 70; ++j) {
    seqs.push_back(random_stimulus(rng, 8, plain.inputs().size()));
  }
  const auto batched = run_sequences_batched(compiled, seqs);
  ASSERT_EQ(batched.size(), seqs.size());
  for (std::size_t j = 0; j < seqs.size(); ++j) {
    EXPECT_EQ(batched[j], run_sequence(compiled, seqs[j])) << "sequence " << j;
  }
}

}  // namespace
}  // namespace cl::sim
