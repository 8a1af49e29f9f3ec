#include "cnf/hashed_encoder.hpp"

#include <gtest/gtest.h>

#include "benchgen/catalog.hpp"
#include "netlist/bench_io.hpp"
#include "sim/compiled.hpp"

namespace cl::cnf {
namespace {

using sat::Lit;
using sat::Result;
using sat::Solver;

TEST(HashedEncoder, OperationsMatchTruthTables) {
  // Every operand pair/triple over constants, literals, complements and
  // repeats — the cases the folding rules single out.
  Solver solver;
  HashedEncoder enc(solver);
  const Lit x = enc.fresh();
  const Lit y = enc.fresh();
  const Lit z = enc.fresh();
  const std::vector<Lit> operands = {enc.constant(false), enc.constant(true),
                                     x, ~x, y, ~y, z};
  struct Case {
    Lit out;
    int op;  // 0 and, 1 or, 2 xor, 3 mux
    Lit s, a, b;
  };
  std::vector<Case> cases;
  for (Lit a : operands) {
    for (Lit b : operands) {
      cases.push_back({enc.and2(a, b), 0, a, a, b});
      cases.push_back({enc.or2(a, b), 1, a, a, b});
      cases.push_back({enc.xor2(a, b), 2, a, a, b});
      for (Lit s : operands) cases.push_back({enc.mux(s, a, b), 3, s, a, b});
    }
  }
  for (int assignment = 0; assignment < 8; ++assignment) {
    const bool vx = assignment & 1, vy = assignment & 2, vz = assignment & 4;
    ASSERT_EQ(solver.solve({vx ? x : ~x, vy ? y : ~y, vz ? z : ~z}),
              Result::Sat);
    const auto value = [&](Lit l) {
      const Lit base = sat::pos(l.var());
      bool v = false;
      if (base == enc.constant(true)) v = true;
      else if (base == x) v = vx;
      else if (base == y) v = vy;
      else if (base == z) v = vz;
      return v != l.negated();
    };
    for (const Case& c : cases) {
      const bool s = value(c.s), a = value(c.a), b = value(c.b);
      const bool want = c.op == 0   ? (a && b)
                        : c.op == 1 ? (a || b)
                        : c.op == 2 ? (a != b)
                                    : (s ? b : a);
      EXPECT_EQ(solver.model_value(c.out), want)
          << "op " << c.op << " assignment " << assignment;
    }
  }
}

TEST(HashedEncoder, HashesCanonicalFormsOntoOneNode) {
  Solver solver;
  HashedEncoder enc(solver);
  const Lit a = enc.fresh();
  const Lit b = enc.fresh();
  const Lit ab = enc.and2(a, b);
  const Lit x = enc.xor2(a, b);
  const int vars = solver.num_vars();
  EXPECT_EQ(enc.and2(b, a), ab);
  EXPECT_EQ(enc.or2(~a, ~b), ~ab);
  EXPECT_EQ(enc.xor2(b, a), x);
  EXPECT_EQ(enc.xor2(~a, b), ~x);
  EXPECT_EQ(enc.xor2(~a, ~b), x);
  EXPECT_EQ(enc.mux(a, b, ~b), enc.xor2(a, b));
  EXPECT_EQ(solver.num_vars(), vars);
}

TEST(HashedEncoder, FrameRejectsSourceArityMismatch) {
  const netlist::Netlist nl = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  const sim::CompiledNetlist prog(nl);
  Solver solver;
  HashedEncoder enc(solver);
  EXPECT_THROW(enc.encode_frame(prog, {enc.fresh()}, {}, {}),
               std::invalid_argument);
}

TEST(HashedEncoder, AndAndXorNodesDoNotCollide) {
  // The structural hash keeps AND and XOR keys apart: the same operand pair
  // names two different nodes, and only the XOR absorbs complements.
  Solver solver;
  HashedEncoder enc(solver);
  const Lit x = enc.fresh();
  const Lit y = enc.fresh();
  const Lit a = enc.and2(x, y);
  const Lit e = enc.xor2(x, y);
  EXPECT_NE(a.var(), e.var());
  EXPECT_EQ(enc.xor2(~x, y), ~e);
  EXPECT_EQ(enc.and2(y, x), a);
  EXPECT_NE(enc.and2(~x, y).var(), a.var());
  for (int assignment = 0; assignment < 4; ++assignment) {
    const bool vx = assignment & 1, vy = assignment & 2;
    ASSERT_EQ(solver.solve({vx ? x : ~x, vy ? y : ~y}), Result::Sat);
    EXPECT_EQ(solver.model_value(a), vx && vy) << "assignment " << assignment;
    EXPECT_EQ(solver.model_value(e), vx != vy) << "assignment " << assignment;
  }
}

TEST(HashedEncoder, RepeatFrameAcrossTableGrowthAddsNothing) {
  // Three frames of b14 over fresh sources fill the table through several
  // doublings; encoding the same frames again must find every node.
  const netlist::Netlist nl = benchgen::make_circuit("b14").netlist;
  const sim::CompiledNetlist prog(nl);
  Solver solver;
  HashedEncoder enc(solver);
  const auto fresh_lits = [&](std::size_t n) {
    std::vector<Lit> lits;
    for (std::size_t i = 0; i < n; ++i) lits.push_back(enc.fresh());
    return lits;
  };
  struct Sources {
    std::vector<Lit> inputs, keys, states;
  };
  std::vector<Sources> sources;
  std::vector<std::vector<Lit>> first;
  for (int f = 0; f < 3; ++f) {
    sources.push_back({fresh_lits(nl.inputs().size()),
                       fresh_lits(nl.key_inputs().size()),
                       fresh_lits(nl.dffs().size())});
    const Sources& s = sources.back();
    first.push_back(enc.encode_frame(prog, s.inputs, s.keys, s.states));
  }
  const int vars = solver.num_vars();
  const std::size_t clauses = solver.num_clauses();
  ASSERT_GT(vars, 3 * 4096) << "too few nodes to grow the table";
  for (int f = 0; f < 3; ++f) {
    const Sources& s = sources[static_cast<std::size_t>(f)];
    EXPECT_EQ(enc.encode_frame(prog, s.inputs, s.keys, s.states),
              first[static_cast<std::size_t>(f)])
        << "frame " << f;
  }
  EXPECT_EQ(solver.num_vars(), vars);
  EXPECT_EQ(solver.num_clauses(), clauses);
}

}  // namespace
}  // namespace cl::cnf
