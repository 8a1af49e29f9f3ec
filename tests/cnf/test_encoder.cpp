#include <gtest/gtest.h>

#include "cnf/hashed_encoder.hpp"
#include "netlist/bench_io.hpp"
#include "sim/compiled.hpp"
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

}  // namespace
}  // namespace cl::cnf
