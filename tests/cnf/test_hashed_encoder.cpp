#include "cnf/hashed_encoder.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_io.hpp"
#include "netlist/topo.hpp"

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
  Solver solver;
  HashedEncoder enc(solver);
  EXPECT_THROW(enc.encode_frame(nl, netlist::topo_order(nl), {enc.fresh()},
                                {}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cl::cnf
