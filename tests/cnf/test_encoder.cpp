#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "cnf/hashed_encoder.hpp"
#include "netlist/bench_io.hpp"
#include "sim/compiled.hpp"
#include "util/rng.hpp"

namespace cl::cnf {
namespace {

using netlist::Netlist;
using netlist::SignalId;
using sat::Lit;
using sat::Result;
using sat::Solver;

std::vector<Lit> fresh_lits(HashedEncoder& enc, std::size_t n) {
  std::vector<Lit> lits;
  for (std::size_t i = 0; i < n; ++i) lits.push_back(enc.fresh());
  return lits;
}

/// Property: for random source assignments, every signal literal of the
/// encoded frame takes the simulator's value.
void check_encoding_matches_sim(const Netlist& nl, std::uint64_t seed) {
  util::Rng rng(seed);
  Solver solver;
  HashedEncoder enc(solver);
  const std::vector<Lit> inputs = fresh_lits(enc, nl.inputs().size());
  const std::vector<Lit> keys = fresh_lits(enc, nl.key_inputs().size());
  const std::vector<Lit> states = fresh_lits(enc, nl.dffs().size());
  const sim::CompiledNetlist prog(nl);
  const std::vector<Lit> frame = enc.encode_frame(prog, inputs, keys, states);
  sim::WideSim sim(nl);

  for (int trial = 0; trial < 16; ++trial) {
    std::vector<Lit> assumptions;
    const auto drive = [&](const std::vector<SignalId>& sources,
                           const std::vector<Lit>& lits) {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const bool v = rng.chance(1, 2);
        sim.set_word(sources[i], 0, v ? ~0ULL : 0ULL);
        assumptions.push_back(v ? lits[i] : ~lits[i]);
      }
    };
    drive(nl.inputs(), inputs);
    drive(nl.key_inputs(), keys);
    // DFF outputs are frame sources too; WideSim holds their reset value 0.
    for (const Lit q : states) assumptions.push_back(~q);
    sim.eval();
    ASSERT_EQ(solver.solve(assumptions), Result::Sat);
    for (SignalId s = 0; s < nl.size(); ++s) {
      const bool sim_val = sim.get_word(s, 0) & 1ULL;
      EXPECT_EQ(solver.model_value(frame[prog.slot(s)]), sim_val)
          << nl.signal_name(s) << " trial " << trial;
    }
  }
}

TEST(Encoder, AllGateTypesMatchSimulation) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NOT(a)
n2 = AND(a, b, c)
n3 = NAND(a, b)
n4 = OR(n1, n2)
n5 = NOR(b, c)
n6 = XOR(a, b, c)
n7 = XNOR(n3, n4)
n8 = MUX(a, n5, n6)
n9 = BUF(n7)
y = AND(n8, n9)
)";
  check_encoding_matches_sim(netlist::read_bench_string(text, "gates"), 11);
}

TEST(Encoder, SequentialFrameExposesStateSources) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
q = DFF(d)
d = XOR(q, a)
y = NOT(q)
)";
  check_encoding_matches_sim(netlist::read_bench_string(text, "seq"), 13);
}

TEST(Encoder, ConstantsForced) {
  Netlist nl("c");
  const SignalId one = nl.add_const(true, "one");
  const SignalId zero = nl.add_const(false, "zero");
  const SignalId y = nl.add_and(one, zero, "y");
  nl.add_output(y);
  Solver solver;
  HashedEncoder enc(solver);
  const sim::CompiledNetlist prog(nl);
  const std::vector<Lit> frame = enc.encode_frame(prog, {}, {}, {});
  // Constants fold: the frame's signals are the encoder's constant literals.
  EXPECT_EQ(frame[prog.slot(one)], enc.constant(true));
  EXPECT_EQ(frame[prog.slot(zero)], enc.constant(false));
  EXPECT_EQ(frame[prog.slot(y)], enc.constant(false));
  ASSERT_EQ(solver.solve(), Result::Sat);
  EXPECT_TRUE(solver.model_value(frame[prog.slot(one)]));
  EXPECT_FALSE(solver.model_value(frame[prog.slot(zero)]));
  EXPECT_FALSE(solver.model_value(frame[prog.slot(y)]));
}

TEST(Encoder, SharedSourceVarsTieFramesTogether) {
  // Two frames with the same key literal: forcing the key in frame A fixes
  // the corresponding signal in frame B.
  const char* text = R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
y = XOR(a, keyinput0)
)";
  const Netlist nl = netlist::read_bench_string(text, "k");
  const sim::CompiledNetlist prog(nl);
  Solver solver;
  HashedEncoder enc(solver);
  const Lit key = enc.fresh();
  const Lit a_a = enc.fresh();
  const Lit a_b = enc.fresh();
  const std::vector<Lit> fa = enc.encode_frame(prog, {a_a}, {key}, {});
  const std::vector<Lit> fb = enc.encode_frame(prog, {a_b}, {key}, {});
  const std::uint32_t y = prog.slot(nl.find("y"));
  // a_A=0, y_A=1 => key=1 ; then a_B=1 must give y_B=0.
  ASSERT_EQ(solver.solve({~a_a, fa[y], a_b}), Result::Sat);
  EXPECT_TRUE(solver.model_value(key));
  EXPECT_FALSE(solver.model_value(fb[y]));
}

TEST(Encoder, SourceArityMismatchRejected) {
  const Netlist nl = netlist::read_bench_string(
      "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\nq = DFF(a)\ny = XOR(q, keyinput0)\n");
  const sim::CompiledNetlist prog(nl);
  Solver solver;
  HashedEncoder enc(solver);
  const Lit l = enc.fresh();
  EXPECT_NO_THROW(enc.encode_frame(prog, {l}, {l}, {l}));
  EXPECT_THROW(enc.encode_frame(prog, {l, l}, {l}, {l}),  // too many
               std::invalid_argument);
  EXPECT_THROW(enc.encode_frame(prog, {l}, {}, {l}), std::invalid_argument);
  EXPECT_THROW(enc.encode_frame(prog, {l}, {l}, {}), std::invalid_argument);
}

/// The frame a walk of the encoder's public and2/or2/xor2/mux gives over
/// `prog`'s gates in levelized() order, each gate's type and fanins read from
/// the netlist and N-ary gates folded left to right.
std::vector<Lit> reference_frame(HashedEncoder& enc,
                                 const sim::CompiledNetlist& prog,
                                 const std::vector<Lit>& inputs,
                                 const std::vector<Lit>& keys,
                                 const std::vector<Lit>& states) {
  const Netlist& nl = prog.source();
  std::vector<Lit> lit(prog.num_signals());
  std::vector<SignalId> signal_of(prog.num_signals());
  for (SignalId s = 0; s < nl.size(); ++s) {
    signal_of[prog.slot(s)] = s;
    if (nl.type(s) == netlist::GateType::Const0) lit[prog.slot(s)] = enc.constant(false);
    if (nl.type(s) == netlist::GateType::Const1) lit[prog.slot(s)] = enc.constant(true);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) lit[prog.slot(nl.inputs()[i])] = inputs[i];
  for (std::size_t i = 0; i < keys.size(); ++i) lit[prog.slot(nl.key_inputs()[i])] = keys[i];
  for (std::size_t i = 0; i < states.size(); ++i) lit[prog.slot(nl.dffs()[i])] = states[i];
  for (const std::uint32_t g : prog.levelized()) {
    const SignalId id = signal_of[prog.num_sources() + g];
    const auto fanins = nl.fanins(id);
    const auto in = [&](std::size_t k) { return lit[prog.slot(fanins[k])]; };
    const auto fold = [&](auto op) {
      Lit y = in(0);
      for (std::size_t k = 1; k < fanins.size(); ++k) y = op(y, in(k));
      return y;
    };
    const auto and_op = [&enc](Lit a, Lit b) { return enc.and2(a, b); };
    const auto or_op = [&enc](Lit a, Lit b) { return enc.or2(a, b); };
    const auto xor_op = [&enc](Lit a, Lit b) { return enc.xor2(a, b); };
    Lit y;
    switch (nl.type(id)) {
      case netlist::GateType::Buf: y = in(0); break;
      case netlist::GateType::Not: y = ~in(0); break;
      case netlist::GateType::And: y = fold(and_op); break;
      case netlist::GateType::Nand: y = ~fold(and_op); break;
      case netlist::GateType::Or: y = fold(or_op); break;
      case netlist::GateType::Nor: y = ~fold(or_op); break;
      case netlist::GateType::Xor: y = fold(xor_op); break;
      case netlist::GateType::Xnor: y = ~fold(xor_op); break;
      case netlist::GateType::Mux: y = enc.mux(in(0), in(1), in(2)); break;
      default: ADD_FAILURE() << "not a gate: " << nl.signal_name(id);
    }
    lit[prog.slot(id)] = y;
  }
  return lit;
}

/// A random netlist with every gate type: 2 to 4 fanins per AND..XNOR, a
/// fanin repeated now and then, both constants among the sources, and DFFs
/// of either power-up value.
Netlist random_gate_netlist(util::Rng& rng) {
  using netlist::GateType;
  Netlist nl("random");
  std::vector<SignalId> signals;
  for (int i = 0; i < 4; ++i) signals.push_back(nl.add_input("i" + std::to_string(i)));
  for (int i = 0; i < 3; ++i) signals.push_back(nl.add_key_input("k" + std::to_string(i)));
  std::vector<SignalId> dffs;
  for (int i = 0; i < 3; ++i) {
    dffs.push_back(nl.add_dff(netlist::k_no_signal,
                              rng.chance(1, 2) ? netlist::DffInit::One
                                               : netlist::DffInit::Zero,
                              "q" + std::to_string(i)));
    signals.push_back(dffs.back());
  }
  signals.push_back(nl.add_const(false, "zero"));
  signals.push_back(nl.add_const(true, "one"));
  constexpr GateType k_types[] = {GateType::Buf, GateType::Not,  GateType::And,
                                  GateType::Nand, GateType::Or,  GateType::Nor,
                                  GateType::Xor, GateType::Xnor, GateType::Mux};
  for (int g = 0; g < 60; ++g) {
    const GateType type = k_types[rng.next_below(std::size(k_types))];
    const std::size_t arity = type == GateType::Buf || type == GateType::Not ? 1
                              : type == GateType::Mux ? 3
                                                      : 2 + rng.next_below(3);
    std::vector<SignalId> fanins;
    for (std::size_t p = 0; p < arity; ++p) {
      fanins.push_back(p > 0 && rng.chance(1, 6)
                           ? fanins[rng.next_below(p)]
                           : signals[rng.next_below(signals.size())]);
    }
    signals.push_back(nl.add_gate(type, fanins, "g" + std::to_string(g)));
  }
  for (const SignalId q : dffs) {
    nl.set_dff_input(q, signals[signals.size() - 1 - rng.next_below(20)]);
  }
  nl.add_output(signals.back());
  return nl;
}

/// Source literals for `n` sources, appended to `drawn`: each a constant, a
/// fresh literal, or a repeat or complement of a literal drawn before. The
/// same seed on a fresh encoder gives the same literals.
std::vector<Lit> mixed_sources(HashedEncoder& enc, util::Rng& rng,
                               std::size_t n, std::vector<Lit>& drawn) {
  std::vector<Lit> lits;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t kind = rng.next_below(4);
    Lit l;
    if (kind == 0) {
      l = enc.constant(rng.chance(1, 2));
    } else if (kind == 1 || drawn.empty()) {
      l = enc.fresh();
    } else {
      l = drawn[rng.next_below(drawn.size())];
      if (kind == 3) l = ~l;
    }
    drawn.push_back(l);
    lits.push_back(l);
  }
  return lits;
}

TEST(Encoder, FrameMatchesAReferenceWalkOnRandomNetlists) {
  util::Rng netlists(0xe1c0de);
  for (int trial = 0; trial < 48; ++trial) {
    const Netlist nl = random_gate_netlist(netlists);
    const sim::CompiledNetlist prog(nl);
    const std::uint64_t seed = netlists.next_u64();
    Solver want_solver;
    Solver got_solver;
    HashedEncoder want_enc(want_solver);
    HashedEncoder got_enc(got_solver);
    std::vector<std::vector<Lit>> sources;
    for (HashedEncoder* enc : {&want_enc, &got_enc}) {
      util::Rng rng(seed);
      std::vector<Lit> drawn;
      for (const std::size_t n :
           {nl.inputs().size(), nl.key_inputs().size(), nl.dffs().size()}) {
        sources.push_back(mixed_sources(*enc, rng, n, drawn));
      }
    }
    ASSERT_EQ(sources[0], sources[3]);
    const std::vector<Lit> want =
        reference_frame(want_enc, prog, sources[0], sources[1], sources[2]);
    const std::vector<Lit> got =
        got_enc.encode_frame(prog, sources[3], sources[4], sources[5]);
    ASSERT_EQ(got.size(), want.size());
    for (SignalId s = 0; s < nl.size(); ++s) {
      EXPECT_EQ(got[prog.slot(s)].code(), want[prog.slot(s)].code())
          << nl.signal_name(s) << " trial " << trial;
    }
    EXPECT_EQ(got_solver.num_vars(), want_solver.num_vars()) << "trial " << trial;
    EXPECT_EQ(got_solver.num_clauses(), want_solver.num_clauses())
        << "trial " << trial;
  }
}

TEST(Encoder, AllConstantFrameAddsNothingAndMatchesSimulation) {
  util::Rng rng(0xc0457);
  for (int trial = 0; trial < 48; ++trial) {
    const Netlist nl = random_gate_netlist(rng);
    const sim::CompiledNetlist prog(nl);
    Solver solver;
    HashedEncoder enc(solver);
    sim::WideSim sim(nl);
    std::vector<Lit> inputs;
    std::vector<Lit> keys;
    for (const auto& [sources, lits] :
         {std::pair{&nl.inputs(), &inputs}, std::pair{&nl.key_inputs(), &keys}}) {
      for (const SignalId s : *sources) {
        const bool v = rng.chance(1, 2);
        sim.set_word(s, 0, v ? ~0ULL : 0ULL);
        lits->push_back(enc.constant(v));
      }
    }
    // The DFFs start at their power-up values, as WideSim's do.
    const std::vector<Lit> states = enc.power_up_state(prog);
    const int vars = solver.num_vars();
    const std::size_t clauses = solver.num_clauses();
    const std::vector<Lit> frame = enc.encode_frame(prog, inputs, keys, states);
    EXPECT_EQ(solver.num_vars(), vars) << "trial " << trial;
    EXPECT_EQ(solver.num_clauses(), clauses) << "trial " << trial;
    sim.eval();
    for (SignalId s = 0; s < nl.size(); ++s) {
      EXPECT_EQ(frame[prog.slot(s)], enc.constant(sim.get_word(s, 0) & 1))
          << nl.signal_name(s) << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace cl::cnf
