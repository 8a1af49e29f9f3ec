// End-to-end integration: the full pipeline the bench harnesses rely on,
// exercised through the public API including .bench round trips.
#include <gtest/gtest.h>

#include "attack/bbo.hpp"
#include "attack/dana.hpp"
#include "attack/fall.hpp"
#include "attack/seq_attack.hpp"
#include "benchgen/catalog.hpp"
#include "benchgen/fsm_suite.hpp"
#include "core/cute_lock_beh.hpp"
#include "core/cute_lock_str.hpp"
#include "fsm/synth.hpp"
#include "netlist/bench_io.hpp"
#include "tech/overhead.hpp"

namespace cl {
namespace {

attack::AttackBudget quick_budget() {
  attack::AttackBudget b;
  b.time_limit_s = 15.0;
  b.max_iterations = 150;
  b.max_depth = 12;
  return b;
}

TEST(EndToEnd, LockSerializeReloadAttack) {
  // Generate -> lock -> write .bench -> read back -> attack the reloaded
  // netlist. Catches any information the serialization might drop.
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("b01");
  core::StrOptions options;
  options.num_keys = 2;
  options.key_bits = 2;
  options.locked_ffs = 1;
  options.seed = 99;
  const lock::LockResult locked = core::cute_lock_str(circuit.netlist, options);

  const std::string text = netlist::write_bench_string(locked.locked);
  const netlist::Netlist reloaded = netlist::read_bench_string(text, "b01_l");
  EXPECT_EQ(reloaded.key_inputs().size(), locked.locked.key_inputs().size());
  EXPECT_EQ(reloaded.dffs().size(), locked.locked.dffs().size());

  // The reloaded circuit behaves identically under the schedule.
  util::Rng rng(5);
  const auto stim = sim::random_stimulus(rng, 24, circuit.netlist.inputs().size());
  EXPECT_EQ(sim::run_sequence(reloaded, stim, locked.keys_for(24)),
            sim::run_sequence(circuit.netlist, stim));

  // And the attack verdict is the same: defense holds.
  attack::SequentialOracle oracle(circuit.netlist);
  const attack::AttackResult r = attack::bmc_attack(reloaded, oracle, quick_budget());
  EXPECT_TRUE(attack::defense_held(r.outcome)) << r.summary();
}

TEST(EndToEnd, BehFlowFromFsmToAttackedNetlist) {
  const fsm::Stg stg = benchgen::make_fsm(benchgen::find_fsm_spec("dmac"));
  core::BehOptions options;
  options.num_keys = 2;
  options.key_bits = 7;
  options.seed = 4;
  const core::BehLock lock(stg, options);
  const auto locked = lock.synthesize(fsm::SynthStyle::DirectTransitions, "dmac_l");
  const auto original = fsm::synthesize(stg, fsm::SynthStyle::DirectTransitions, "dmac");
  attack::SequentialOracle oracle(original);
  const attack::AttackResult kc2 =
      attack::kc2_attack(locked.locked, oracle, quick_budget());
  EXPECT_TRUE(attack::defense_held(kc2.outcome)) << kc2.summary();
  // The behavioral RTL emission stays syntactically plausible.
  const std::string rtl = lock.behavioral_verilog("dmac_l");
  EXPECT_NE(rtl.find("module dmac_l"), std::string::npos);
}

TEST(EndToEnd, OverheadPipelineOnLockedDesigns) {
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("b06");
  const tech::OverheadReport base = tech::analyze_overhead(circuit.netlist);
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 3;
  options.seed = 9;
  const lock::LockResult locked = core::cute_lock_str(circuit.netlist, options);
  const tech::OverheadReport r = tech::analyze_overhead(locked.locked);
  EXPECT_GT(r.cells, base.cells);
  EXPECT_GT(r.area_um2, base.area_um2);
  EXPECT_GT(r.power_w, base.power_w);
  EXPECT_EQ(r.ios, base.ios + 3);  // +ki key pins
}

TEST(EndToEnd, RemovalAttacksPipelineMatchesTableFive) {
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("b03");
  core::StrOptions options;
  options.num_keys = 2;
  options.key_bits = 4;
  options.locked_ffs = 4;
  options.seed = 10;
  const lock::LockResult locked = core::cute_lock_str(circuit.netlist, options);

  const auto dana_orig = attack::dana_attack(circuit.netlist);
  const auto dana_locked = attack::dana_attack(locked.locked);
  EXPECT_LT(attack::nmi_score(locked.locked, dana_locked, circuit.groups),
            attack::nmi_score(circuit.netlist, dana_orig, circuit.groups));

  attack::SequentialOracle oracle(circuit.netlist);
  const attack::FallResult fall = attack::fall_attack(locked.locked, oracle);
  EXPECT_EQ(fall.confirmed, 0u);
}

TEST(EndToEnd, ScaledSuiteMembersStayConsistent) {
  // Spot-check that the largest generated circuits build, simulate and map
  // without issues (b17 is the biggest unscaled ITC member).
  const benchgen::SyntheticCircuit big = benchgen::make_circuit("b17");
  EXPECT_GT(big.netlist.stats().gates, 20000u);
  util::Rng rng(11);
  const auto stim = sim::random_stimulus(rng, 4, big.netlist.inputs().size());
  EXPECT_EQ(sim::run_sequence(big.netlist, stim).size(), 4u);
  const tech::MappedDesign mapped = tech::map_to_cells(big.netlist);
  EXPECT_GT(mapped.total_cells(), 20000u);
}

}  // namespace
}  // namespace cl
