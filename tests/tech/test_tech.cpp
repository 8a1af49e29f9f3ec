#include <gtest/gtest.h>

#include "benchgen/s27.hpp"
#include "core/cute_lock_str.hpp"
#include "sim/sequence.hpp"
#include "tech/cell_library.hpp"
#include "tech/mapper.hpp"
#include "tech/overhead.hpp"
#include "util/rng.hpp"

namespace cl::tech {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

TEST(CellLibrary, AllCellsPresentWithSaneValues) {
  const CellLibrary& lib = CellLibrary::nangate45_like();
  for (const Cell& c : lib.cells()) {
    EXPECT_GT(c.area_um2, 0.0) << c.name;
    EXPECT_GT(c.leakage_nw, 0.0) << c.name;
    EXPECT_GE(c.switch_energy_fj, 0.0) << c.name;
  }
  // Relative sanity: a DFF is the largest leaf cell, an inverter the
  // smallest logic cell.
  EXPECT_GT(lib.cell(CellType::Dff).area_um2, lib.cell(CellType::Mux2).area_um2);
  EXPECT_LT(lib.cell(CellType::Inv).area_um2, lib.cell(CellType::Nand2).area_um2);
}

TEST(Mapper, TwoInputGatesMapOneToOne) {
  const Netlist nl = benchgen::make_s27();
  const MappedDesign m = map_to_cells(nl);
  // s27 is already 2-input: 10 gates + 3 DFFs = 13 cells.
  EXPECT_EQ(m.total_cells(), 13u);
  EXPECT_EQ(m.cell_counts.at(CellType::Dff), 3u);
}

TEST(Mapper, WideGatesDecomposeToTrees) {
  Netlist nl("wide");
  std::vector<SignalId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(nl.add_input("x" + std::to_string(i)));
  nl.add_output(nl.add_gate(GateType::And, ins, "y"));
  const MappedDesign m = map_to_cells(nl);
  // 5-input AND -> 4 AND2 cells (+1 BUF preserving the name).
  EXPECT_EQ(m.cell_counts.at(CellType::And2), 4u);
  for (SignalId s = 0; s < m.netlist.size(); ++s) {
    EXPECT_LE(m.netlist.node(s).fanins.size(), 3u);  // MUX has 3
  }
}

TEST(Mapper, WideNandGetsInvertedRoot) {
  Netlist nl("wnand");
  std::vector<SignalId> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(nl.add_input("x" + std::to_string(i)));
  nl.add_output(nl.add_gate(GateType::Nand, ins, "y"));
  const MappedDesign m = map_to_cells(nl);
  EXPECT_EQ(m.cell_counts.at(CellType::And2), 3u);
  EXPECT_EQ(m.cell_counts.at(CellType::Inv), 1u);
}

TEST(Mapper, MappedDesignIsFunctionallyEquivalent) {
  const Netlist nl = benchgen::make_s27();
  const MappedDesign m = map_to_cells(nl);
  util::Rng rng(5);
  const auto stim = sim::random_stimulus(rng, 64, nl.inputs().size());
  EXPECT_EQ(sim::run_sequence(nl, stim), sim::run_sequence(m.netlist, stim));
}

TEST(Mapper, WideXnorEquivalence) {
  Netlist nl("wx");
  std::vector<SignalId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(nl.add_input("x" + std::to_string(i)));
  nl.add_output(nl.add_gate(GateType::Xnor, ins, "y"));
  const MappedDesign m = map_to_cells(nl);
  util::Rng rng(6);
  const auto stim = sim::random_stimulus(rng, 64, nl.inputs().size());
  EXPECT_EQ(sim::run_sequence(nl, stim), sim::run_sequence(m.netlist, stim));
}

TEST(Overhead, ReportsPositiveNumbers) {
  const Netlist nl = benchgen::make_s27();
  const OverheadReport r = analyze_overhead(nl);
  EXPECT_GT(r.power_w, 0.0);
  EXPECT_GT(r.area_um2, 0.0);
  EXPECT_EQ(r.cells, 13u);
  EXPECT_EQ(r.ios, 4u + 1u + 1u);  // 4 PI + 1 PO + clk
}

TEST(Overhead, LockedCircuitCostsMore) {
  const Netlist nl = benchgen::make_s27();
  Netlist bigger = nl.clone("bigger");
  const SignalId k = bigger.add_key_input("keyinput0");
  const SignalId g17 = bigger.find("G17");
  const SignalId x = bigger.add_xor(g17, k, "locked_out");
  bigger.replace_all_readers(g17, x, {x});
  const OverheadReport base = analyze_overhead(nl);
  const OverheadReport locked = analyze_overhead(bigger);
  EXPECT_GT(locked.area_um2, base.area_um2);
  EXPECT_GT(locked.cells, base.cells);
  EXPECT_GT(locked.ios, base.ios);
  EXPECT_GT(locked.area_overhead_pct(base), 0.0);
  EXPECT_GT(locked.ios_overhead_pct(base), 0.0);
}

TEST(Overhead, PercentagesAgainstZeroBaseAreZero) {
  OverheadReport a, b;
  a.power_w = 1.0;
  EXPECT_EQ(a.power_overhead_pct(b), 0.0);
}

TEST(Overhead, SwitchingPowerIsPinned) {
  // Toggles count, per lane, each signal's flips between consecutive
  // evaluations from the second cycle on; these are the exact powers that
  // rule gives for s27 and one Cute-Lock-Str lock of it.
  const Netlist nl = benchgen::make_s27();
  core::StrOptions options;
  options.seed = 7;
  const Netlist locked = core::cute_lock_str(nl, options).locked;
  EXPECT_EQ(analyze_overhead(nl).power_w, 5.7866135912698419e-07);
  EXPECT_EQ(analyze_overhead(locked).power_w, 3.4391859126984127e-06);
}

TEST(Overhead, DeterministicForSameSeed) {
  const Netlist nl = benchgen::make_s27();
  const OverheadReport a = analyze_overhead(nl);
  const OverheadReport b = analyze_overhead(nl);
  EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
  EXPECT_DOUBLE_EQ(a.area_um2, b.area_um2);
}

}  // namespace
}  // namespace cl::tech
