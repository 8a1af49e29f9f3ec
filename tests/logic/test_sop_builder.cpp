#include "logic/sop_builder.hpp"

#include <gtest/gtest.h>

#include "logic/minimize.hpp"
#include "sim/compiled.hpp"
#include "util/rng.hpp"

namespace cl::logic {
namespace {

using netlist::Netlist;
using netlist::SignalId;

/// Evaluate a single-output combinational netlist on minterm m (inputs in
/// declaration order, input i = bit i).
bool eval_netlist(const Netlist& nl, SignalId out, std::uint64_t m) {
  sim::WideSim bs(nl);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    bs.set_word(nl.inputs()[i], 0, ((m >> i) & 1ULL) ? ~0ULL : 0ULL);
  }
  bs.eval();
  return bs.get_word(out, 0) & 1ULL;
}

TEST(SopBuilder, BuildsCoverSemantics) {
  Netlist nl("sop");
  std::vector<SignalId> ins;
  for (int i = 0; i < 3; ++i) ins.push_back(nl.add_input("x" + std::to_string(i)));
  const Cover cover{Cube::parse("11-"), Cube::parse("--1")};
  const SignalId y = build_sop(nl, ins, cover, "f");
  nl.add_output(y);
  for (std::uint64_t m = 0; m < 8; ++m) {
    EXPECT_EQ(eval_netlist(nl, y, m), cover_eval(cover, static_cast<std::uint32_t>(m)))
        << "minterm " << m;
  }
}

TEST(SopBuilder, EmptyCoverIsConstZero) {
  Netlist nl("z");
  std::vector<SignalId> ins{nl.add_input("a")};
  const SignalId y = build_sop(nl, ins, {}, "f");
  nl.add_output(y);
  EXPECT_EQ(nl.type(y), netlist::GateType::Const0);
}

TEST(SopBuilder, TautologyCubeIsConstOne) {
  Netlist nl("t");
  std::vector<SignalId> ins{nl.add_input("a")};
  const SignalId y = build_sop(nl, ins, {Cube{}}, "f");
  nl.add_output(y);
  EXPECT_EQ(nl.type(y), netlist::GateType::Const1);
}

TEST(SopBuilder, InvertersAreShared) {
  Netlist nl("shared");
  std::vector<SignalId> ins{nl.add_input("a"), nl.add_input("b")};
  // Two cubes both needing a' — only one NOT gate should be created.
  const Cover cover{Cube::parse("00"), Cube::parse("01")};
  build_sop(nl, ins, cover, "f");
  std::size_t nots = 0;
  for (SignalId s = 0; s < nl.size(); ++s) {
    if (nl.type(s) == netlist::GateType::Not) ++nots;
  }
  // a' shared, b' appears once: exactly 2 inverters.
  EXPECT_EQ(nots, 2u);
}

TEST(SopBuilder, TreeBuildersBalance) {
  Netlist nl("tree");
  std::vector<SignalId> ins;
  for (int i = 0; i < 7; ++i) ins.push_back(nl.add_input("x" + std::to_string(i)));
  const SignalId y = build_and_tree(nl, ins, "t");
  nl.add_output(y);
  // AND of 7: result true only on all-ones.
  EXPECT_TRUE(eval_netlist(nl, y, 0x7f));
  EXPECT_FALSE(eval_netlist(nl, y, 0x3f));
  EXPECT_THROW(build_and_tree(nl, {}, "t"), std::invalid_argument);
  EXPECT_THROW(build_or_tree(nl, {}, "t"), std::invalid_argument);
}

TEST(SopBuilder, EqualsConstComparator) {
  Netlist nl("cmp");
  std::vector<SignalId> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(nl.add_input("x" + std::to_string(i)));
  const SignalId y = build_equals_const(nl, ins, 0b1010, "eq");
  nl.add_output(y);
  for (std::uint64_t m = 0; m < 16; ++m) {
    EXPECT_EQ(eval_netlist(nl, y, m), m == 0b1010) << m;
  }
}

TEST(SopBuilder, MinimizedRandomFunctionsMatchReference) {
  util::Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4;
    TruthTable tt(n);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) {
      if (rng.chance(1, 2)) tt.set(m, true);
    }
    const Cover cover = minimize(tt);
    Netlist nl("rand");
    std::vector<SignalId> ins;
    for (int i = 0; i < n; ++i) ins.push_back(nl.add_input("x" + std::to_string(i)));
    const SignalId y = build_sop(nl, ins, cover, "f");
    nl.add_output(y);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) {
      EXPECT_EQ(eval_netlist(nl, y, m), tt.get(m)) << "trial " << trial << " m " << m;
    }
  }
}

}  // namespace
}  // namespace cl::logic
