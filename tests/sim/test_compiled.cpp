// Randomized cross-checks of the compiled simulation engine against
// sim::ReferenceSim (the frozen pre-compilation evaluator): every GateType,
// DFF X-init, wide-lane widths W in {1, 4, 16}, sharded evaluation, the
// slot numbering, and the op-grouped evaluation order on a 10k-gate catalog
// circuit.
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
  // The kernels walk the evaluation order, which regroups each level by
  // opcode into runs; levelized() must keep netlist::levelize order, because
  // the CNF encoder's variable order (and so every SAT trajectory) follows
  // it.
  const auto circuit = benchgen::make_circuit("s35932");
  const Netlist& nl = circuit.netlist;
  ASSERT_GE(nl.stats().gates, 10000u);
  const auto compiled = std::make_shared<const CompiledNetlist>(nl);
  const netlist::Levelization lv = netlist::levelize(nl);
  const std::size_t sources = lv.level_begin[1];
  ASSERT_EQ(compiled->num_sources(), sources);
  const std::vector<std::uint32_t>& levelized = compiled->levelized();
  ASSERT_EQ(compiled->num_gates(), lv.order.size() - sources);
  ASSERT_EQ(levelized.size(), compiled->num_gates());
  for (std::size_t i = 0; i < levelized.size(); ++i) {
    ASSERT_EQ(compiled->instr(levelized[i]).out,
              compiled->slot(lv.order[sources + i]))
        << i;
  }

  // The signal behind each slot.
  std::vector<SignalId> signal_of(nl.size());
  for (SignalId s = 0; s < nl.size(); ++s) signal_of[compiled->slot(s)] = s;

  // Gate level l spans the same evaluation positions as levelize order
  // positions (the levelization's, less the sources of level 0), and holds
  // the same gates, grouped by ascending Op, ascending SignalId in a group.
  ASSERT_GT(lv.num_levels(), 2u);
  for (std::size_t l = 1; l < lv.num_levels(); ++l) {
    const std::size_t first = lv.level_begin[l] - sources;
    const std::size_t last = lv.level_begin[l + 1] - sources;
    for (std::size_t g = first + 1; g < last; ++g) {
      const Instr prev = compiled->instr(g - 1);
      const Instr cur = compiled->instr(g);
      ASSERT_TRUE(prev.op < cur.op ||
                  (prev.op == cur.op &&
                   signal_of[prev.out] < signal_of[cur.out]))
          << "level " << l << " position " << g;
    }
    std::vector<std::uint32_t> level(levelized.begin() + first,
                                     levelized.begin() + last);
    std::sort(level.begin(), level.end());
    for (std::size_t i = 0; i < level.size(); ++i) {
      ASSERT_EQ(level[i], first + i) << "level " << l;
    }
  }

  // The runs cover the evaluation order in order, one opcode each, and a
  // run ends where its opcode or its level does.
  std::vector<std::size_t> level_of_position(compiled->num_gates());
  for (std::size_t i = 0; i < levelized.size(); ++i) {
    level_of_position[levelized[i]] =
        static_cast<std::size_t>(lv.level[lv.order[sources + i]]);
  }
  const std::vector<sim::Run>& runs = compiled->runs();
  std::size_t next = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].begin, next) << "run " << r;
    ASSERT_LT(runs[r].begin, runs[r].end) << "run " << r;
    for (std::size_t g = runs[r].begin; g < runs[r].end; ++g) {
      ASSERT_EQ(compiled->instr(g).op, runs[r].op) << "position " << g;
      ASSERT_EQ(level_of_position[g], level_of_position[runs[r].begin])
          << "position " << g;
    }
    if (r > 0) {
      ASSERT_TRUE(runs[r - 1].op != runs[r].op ||
                  level_of_position[runs[r - 1].begin] !=
                      level_of_position[runs[r].begin])
          << "run " << r;
    }
    next = runs[r].end;
  }
  ASSERT_EQ(next, compiled->num_gates());

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
        serial[compiled.slot(s) * lanes + w] = word;
        sharded[compiled.slot(s) * lanes + w] = word;
      }
    }
    compiled.eval(serial.data(), lanes);
    compiled.eval_sharded(sharded.data(), lanes, pool);
    EXPECT_EQ(serial, sharded) << "trial " << trial;
  }
}

TEST(CompiledNetlist, SlotIsABijectionWithSourcesFirst) {
  // Every signal gets one slot; the sources (inputs, key inputs, DFF Qs
  // and constants) take [0, num_sources()), and gate g's output is slot
  // num_sources() + g. The port lists hold the ports' slots, and WideSim
  // and XSim set and get by SignalId through slot().
  util::Rng rng(0x5107);
  for (int trial = 0; trial < 4; ++trial) {
    const Netlist nl = random_netlist(rng, 60 + 30 * trial);
    const auto compiled = std::make_shared<const CompiledNetlist>(nl);
    ASSERT_EQ(compiled->num_signals(), nl.size());
    std::vector<std::uint8_t> taken(nl.size(), 0);
    std::size_t sources = 0;
    for (SignalId s = 0; s < nl.size(); ++s) {
      const std::uint32_t slot = compiled->slot(s);
      ASSERT_LT(slot, nl.size());
      ASSERT_FALSE(taken[slot]) << "slot " << slot << " taken twice";
      taken[slot] = 1;
      const bool source = !netlist::is_comb_gate(nl.type(s));
      sources += source ? 1 : 0;
      EXPECT_EQ(source, slot < compiled->num_sources()) << nl.signal_name(s);
    }
    EXPECT_EQ(compiled->num_sources(), sources);
    for (std::size_t g = 0; g < compiled->num_gates(); ++g) {
      EXPECT_EQ(compiled->instr(g).out, compiled->num_sources() + g);
    }
    const auto slots = [&](const std::vector<SignalId>& ids) {
      std::vector<std::uint32_t> out;
      for (const SignalId s : ids) out.push_back(compiled->slot(s));
      return out;
    };
    EXPECT_EQ(compiled->inputs(), slots(nl.inputs()));
    EXPECT_EQ(compiled->key_inputs(), slots(nl.key_inputs()));
    EXPECT_EQ(compiled->outputs(), slots(nl.outputs()));
    EXPECT_EQ(compiled->dff_qs(), slots(nl.dffs()));

    // set/get by SignalId round-trip, and land in the slot's words.
    constexpr std::size_t kLanes = 3;
    WideSim wide(compiled, kLanes);
    XSim xs(compiled);
    for (const SignalId s : nl.all_inputs()) {
      for (std::size_t w = 0; w < kLanes; ++w) {
        const std::uint64_t word = rand_word(rng);
        wide.set_word(s, w, word);
        EXPECT_EQ(wide.get_word(s, w), word);
        EXPECT_EQ(wide.words()[compiled->slot(s) * kLanes + w], word);
      }
      const Trit t = rng.chance(1, 2) ? Trit::One : Trit::Zero;
      xs.set(s, t);
      EXPECT_EQ(xs.get(s), t);
    }
    wide.eval();
    for (SignalId s = 0; s < nl.size(); ++s) {
      for (std::size_t w = 0; w < kLanes; ++w) {
        EXPECT_EQ(wide.get_word(s, w),
                  wide.words()[compiled->slot(s) * kLanes + w]);
      }
    }
  }
}

TEST(CompiledNetlist, DffXInitIsZeroInWordSimAndXInXSim) {
  // The two-valued engines (Reference and compiled) treat X power-up as 0;
  // XSim preserves the X through the compiled program.
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

TEST(CompiledNetlist, ResetLoadsTheSourcesAndEvalWritesEveryGate) {
  // reset_words writes words [0, num_sources() * lanes) only, with
  // ReferenceSim's power-up values; from there a buffer that held garbage
  // runs exactly like a zeroed one, slot by slot, cycle after cycle.
  util::Rng rng(0x5e7);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
    const Netlist nl = random_netlist(rng, 150);
    const CompiledNetlist compiled(nl);
    ReferenceSim power_up(nl);
    power_up.eval();  // loads the constants; every other source stays put
    const std::size_t sources = compiled.num_sources() * lanes;
    std::vector<std::uint64_t> zeroed(compiled.buffer_words(lanes), 0);
    std::vector<std::uint64_t> dirty(zeroed.size());
    for (std::uint64_t& word : dirty) word = rng.next_u64();
    const std::vector<std::uint64_t> garbage = dirty;
    compiled.reset_words(zeroed.data(), lanes);
    compiled.reset_words(dirty.data(), lanes);
    for (SignalId s = 0; s < nl.size(); ++s) {
      const std::size_t at = std::size_t{compiled.slot(s)} * lanes;
      if (at >= sources) continue;
      for (std::size_t w = 0; w < lanes; ++w) {
        EXPECT_EQ(dirty[at + w], power_up.get(s)) << nl.signal_name(s);
      }
    }
    EXPECT_TRUE(std::equal(dirty.begin() + sources, dirty.end(),
                           garbage.begin() + sources))
        << "reset_words wrote a gate word";
    std::vector<std::uint64_t> zeroed_step;
    std::vector<std::uint64_t> dirty_step(compiled.dff_qs().size() * lanes);
    for (std::uint64_t& word : dirty_step) word = rng.next_u64();
    for (int cycle = 0; cycle < 5; ++cycle) {
      for (const auto* ports : {&compiled.inputs(), &compiled.key_inputs()}) {
        for (const std::uint32_t slot : *ports) {
          for (std::size_t w = 0; w < lanes; ++w) {
            zeroed[slot * lanes + w] = dirty[slot * lanes + w] = rng.next_u64();
          }
        }
      }
      compiled.eval(zeroed.data(), lanes);
      compiled.eval(dirty.data(), lanes);
      ASSERT_EQ(dirty, zeroed) << "W=" << lanes << " cycle " << cycle;
      compiled.step_words(zeroed.data(), lanes, zeroed_step);
      compiled.step_words(dirty.data(), lanes, dirty_step);
    }
  }
}

TEST(CompiledNetlist, BatchedKeyedRunsMatchReferenceSim) {
  // run_sequences_batched resets once and trusts eval to write every gate:
  // each of 130 sequences (three lane words) under one static key, on a
  // netlist with both constants and all three power-up inits, must match
  // its own ReferenceSim run.
  util::Rng rng(0xba7c);
  const Netlist nl = random_netlist(rng, 200);
  const CompiledNetlist compiled(nl);
  const BitVec key = random_bits(rng, nl.key_inputs().size());
  std::vector<std::vector<BitVec>> seqs;
  for (int j = 0; j < 130; ++j) {
    seqs.push_back(random_stimulus(rng, 6, nl.inputs().size()));
  }
  const auto batched = run_sequences_batched(compiled, seqs, {key});
  ASSERT_EQ(batched.size(), seqs.size());
  const auto word = [](std::uint8_t bit) { return bit ? ~0ULL : 0ULL; };
  for (std::size_t j = 0; j < seqs.size(); ++j) {
    ReferenceSim ref(nl);
    for (std::size_t k = 0; k < key.size(); ++k) {
      ref.set(nl.key_inputs()[k], word(key[k]));
    }
    for (std::size_t c = 0; c < seqs[j].size(); ++c) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        ref.set(nl.inputs()[i], word(seqs[j][c][i]));
      }
      ref.eval();
      for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        EXPECT_EQ(batched[j][c][o], ref.get(nl.outputs()[o]) & 1ULL)
            << "sequence " << j << " cycle " << c << " output " << o;
      }
      ref.step();
    }
  }
}

}  // namespace
}  // namespace cl::sim
