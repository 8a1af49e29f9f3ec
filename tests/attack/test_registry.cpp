#include "attack/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/bbo.hpp"
#include "attack/periodic_attack.hpp"
#include "attack/sat_attack.hpp"
#include "attack/seq_attack.hpp"
#include "benchgen/s27.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/comb_locks.hpp"
#include "netlist/transform.hpp"

namespace cl::attack {
namespace {

using netlist::Netlist;

/// attack::to_json of a result without its wall time.
std::string timeless(const AttackResult& r) {
  util::Json j = to_json(r);
  j.set("seconds", util::Json::null());
  return j.dump();
}

ModeOptions quick() {
  ModeOptions o;
  o.budget.time_limit_s = 30.0;
  o.budget.max_iterations = 200;
  o.budget.max_depth = 16;
  o.max_period = 3;
  return o;
}

TEST(AttackRegistry, ModesAreTheElevenTheCliListsInOrder) {
  const std::vector<std::string> want = {
      "bmc", "kc2", "rane", "sat", "appsat", "double-dip",
      "bbo", "fall", "dana", "scope", "periodic"};
  std::vector<std::string> names;
  std::set<std::string> unique;
  for (const AttackMode& mode : attack_modes()) {
    names.push_back(mode.name);
    unique.insert(mode.name);
    EXPECT_EQ(&find_attack_mode(mode.name), &mode);
  }
  EXPECT_EQ(names, want);
  EXPECT_EQ(unique.size(), names.size());
}

TEST(AttackRegistry, OnlyTheSatFamilyRunsTheScanModel) {
  for (const AttackMode& mode : attack_modes()) {
    const std::string name = mode.name;
    EXPECT_EQ(mode.scan_model,
              name == "sat" || name == "appsat" || name == "double-dip")
        << name;
  }
}

TEST(AttackRegistry, LabelsAreTheTableColumns) {
  for (const auto& [name, label] :
       {std::pair{"bmc", "INT"}, std::pair{"kc2", "KC2"},
        std::pair{"rane", "RANE"}, std::pair{"bbo", "BBO"},
        std::pair{"sat", "SAT"}, std::pair{"periodic", "periodic"}}) {
    EXPECT_STREQ(find_attack_mode(name).label, label) << name;
  }
}

TEST(AttackRegistry, UnknownModeThrowsNamingEveryMode) {
  try {
    find_attack_mode("nosuch");
    FAIL() << "find_attack_mode(\"nosuch\") did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown mode \"nosuch\""), std::string::npos) << what;
    for (const AttackMode& mode : attack_modes()) {
      EXPECT_NE(what.find(mode.name), std::string::npos) << mode.name;
    }
  }
}

TEST(AttackRegistry, PeriodicBoundZeroIsRejectedBeforeAnyCircuit) {
  ModeOptions o = quick();
  o.max_period = 0;
  EXPECT_THROW(check_mode_options(find_attack_mode("periodic"), o),
               std::invalid_argument);
  // The bound means nothing to the other modes.
  EXPECT_NO_THROW(check_mode_options(find_attack_mode("bmc"), o));
  EXPECT_NO_THROW(check_mode_options(find_attack_mode("periodic"), quick()));
}

TEST(AttackRegistry, PeriodicBoundAboveTheLimitIsRejectedBeforeAnyCircuit) {
  ModeOptions o = quick();
  o.max_period = k_max_period_limit + 1;
  EXPECT_THROW(check_mode_options(find_attack_mode("periodic"), o),
               std::invalid_argument);
  EXPECT_NO_THROW(check_mode_options(find_attack_mode("bmc"), o));
  o.max_period = k_max_period_limit;
  EXPECT_EQ(o.max_period, 64u);
  EXPECT_NO_THROW(check_mode_options(find_attack_mode("periodic"), o));
}

TEST(AttackRegistry, ScanModelRejectsALockThatAddsState) {
  const Netlist s27 = benchgen::make_s27();
  core::StrOptions options;
  options.num_keys = 2;
  options.key_bits = 2;
  options.seed = 3;
  const lock::LockResult lr = core::cute_lock_str(s27, options);
  try {
    run_attack_mode(find_attack_mode("sat"), lr.locked, s27, quick());
    FAIL() << "a scan-model mode ran on a state-adding lock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scan interfaces differ"),
              std::string::npos)
        << e.what();
  }
}

TEST(AttackRegistry, RunsEqualTheDirectEntryPoints) {
  // One XOR lock of s27: it adds no state, so the sequential modes and the
  // scan-model SAT attack all run on it.
  const Netlist s27 = benchgen::make_s27();
  util::Rng rng(11);
  const lock::LockResult lr = lock::xor_lock(s27, 4, rng);
  const ModeOptions o = quick();
  const auto via_registry = [&](const char* name) {
    return run_attack_mode(find_attack_mode(name), lr.locked, s27, o);
  };
  const SequentialOracle oracle(s27);

  EXPECT_EQ(timeless(via_registry("bmc").result),
            timeless(bmc_attack(lr.locked, oracle, o.budget)));
  EXPECT_EQ(timeless(via_registry("kc2").result),
            timeless(kc2_attack(lr.locked, oracle, o.budget)));
  EXPECT_EQ(timeless(via_registry("rane").result),
            timeless(rane_attack(lr.locked, oracle, o.budget)));

  BboOptions bbo;
  bbo.budget = o.budget;
  bbo.jobs = o.bbo_jobs;
  EXPECT_EQ(timeless(via_registry("bbo").result),
            timeless(bbo_attack(lr.locked, oracle, bbo)));

  const Netlist locked_scan = netlist::scan_expose(lr.locked);
  const Netlist s27_scan = netlist::scan_expose(s27);
  const SequentialOracle scan_oracle(s27_scan);
  SatAttackOptions sat;
  sat.budget = o.budget;
  EXPECT_EQ(timeless(via_registry("sat").result),
            timeless(sat_attack(locked_scan, scan_oracle, sat)));

  PeriodicAttackOptions periodic;
  periodic.budget = o.budget;
  periodic.max_period = o.max_period;
  const PeriodicAttackResult direct =
      periodic_key_attack(lr.locked, oracle, periodic);
  const ModeResult run = via_registry("periodic");
  EXPECT_EQ(timeless(run.result), timeless(direct.result));
  ASSERT_NE(direct.recovered_period, 0u) << direct.result.summary();
  ASSERT_EQ(run.facts.size(), 2u);
  EXPECT_EQ(run.facts[0].first, "period");
  EXPECT_EQ(run.facts[0].second.as_number(),
            static_cast<double>(direct.recovered_period));
  EXPECT_EQ(run.facts[1].first, "schedule");
  EXPECT_EQ(run.facts[1].second.dump(),
            schedule_to_json(direct.recovered_schedule).dump());
}

}  // namespace
}  // namespace cl::attack
