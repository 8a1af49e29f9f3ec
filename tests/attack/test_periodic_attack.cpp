#include "attack/periodic_attack.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "benchgen/s27.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/comb_locks.hpp"

namespace cl::attack {
namespace {

PeriodicAttackOptions quick(std::size_t max_period) {
  PeriodicAttackOptions o;
  o.max_period = max_period;
  o.budget.time_limit_s = 30.0;
  o.budget.max_iterations = 200;
  return o;
}

TEST(PeriodicAttack, RecoversCuteLockSchedule) {
  // The adaptive attacker who models the time base DOES break Cute-Lock —
  // the defense margin is the schedule-space blowup, not impossibility.
  const auto s27 = benchgen::make_s27();
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 2;
  options.locked_ffs = 2;
  options.seed = 3;
  const auto locked = core::cute_lock_str(s27, options);
  SequentialOracle oracle(s27);
  const PeriodicAttackResult r =
      periodic_key_attack(locked.locked, oracle, quick(4));
  ASSERT_EQ(r.result.outcome, Outcome::Equal) << r.result.summary();
  // Period 4 (or a divisor pattern that happens to work) with a schedule
  // that genuinely unlocks; the recovered schedule must replay the oracle.
  EXPECT_GE(r.recovered_period, 1u);
  EXPECT_LE(r.recovered_period, 4u);
  EXPECT_FALSE(r.recovered_schedule.empty());
}

TEST(PeriodicAttack, StaticLockIsPeriodOne) {
  const auto s27 = benchgen::make_s27();
  util::Rng rng(5);
  const auto locked = lock::xor_lock(s27, 4, rng);
  SequentialOracle oracle(s27);
  const PeriodicAttackResult r =
      periodic_key_attack(locked.locked, oracle, quick(3));
  ASSERT_EQ(r.result.outcome, Outcome::Equal) << r.result.summary();
  EXPECT_EQ(r.recovered_period, 1u);
  EXPECT_EQ(r.recovered_schedule[0], locked.correct_key);
}

TEST(PeriodicAttack, TooSmallPeriodHypothesisRefuted) {
  // Capping the hypothesized period below the real one must end in CNS,
  // not a bogus key.
  const auto s27 = benchgen::make_s27();
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 2;
  options.locked_ffs = 2;
  options.seed = 7;
  options.explicit_keys = {0, 1, 2, 3};  // genuinely period-4
  const auto locked = core::cute_lock_str(s27, options);
  SequentialOracle oracle(s27);
  const PeriodicAttackResult r =
      periodic_key_attack(locked.locked, oracle, quick(2));
  EXPECT_NE(r.result.outcome, Outcome::Equal) << r.result.summary();
}

TEST(PeriodicAttack, BoundZeroIsRejectedBeforeAnyOracleQuery) {
  // A bound of 0 tests no schedule, so it cannot prove CNS.
  const auto s27 = benchgen::make_s27();
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 4;
  options.seed = 1;
  const auto locked = core::cute_lock_str(s27, options);
  SequentialOracle oracle(s27);
  EXPECT_THROW(periodic_key_attack(locked.locked, oracle, quick(0)),
               std::invalid_argument);
  EXPECT_EQ(oracle.num_queries(), 0u);
}

}  // namespace
}  // namespace cl::attack
