#include "attack/periodic_attack.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "attack/og_engine.hpp"
#include "cnf/miter.hpp"
#include "sim/sequence.hpp"
#include "util/timer.hpp"

namespace cl::attack {

using netlist::Netlist;
using sat::Result;
using sat::Var;

namespace {

/// Adaptive periodic-key attacker: the one strategy whose hypothesis is not
/// a static key but a schedule K[t mod p], swept over periods p. It replaces
/// the engine's shared DIP loop wholesale and uses the engine services —
/// budget/deadline arming, bank-aware oracle queries, iteration accounting,
/// solver factory — directly.
class PeriodicScheduleStrategy : public DipStrategy {
 public:
  explicit PeriodicScheduleStrategy(const PeriodicAttackOptions& options)
      : options_(options) {}

  const char* name() const override { return "periodic"; }

  Spec spec() const override {
    Spec s;
    s.seed = 0x9e410d1c;  // schedule-validation RNG (historical constant)
    s.caller = "periodic_key_attack";
    return s;
  }

  AttackResult attack(OgEngine& engine) override {
    const sim::CompiledNetlist& compiled_locked = engine.compiled();
    const std::size_t ki = compiled_locked.key_inputs().size();
    const sim::CompiledNetlist compiled_reference(engine.oracle().reference());

    // Shared pool of oracle responses, reused across period hypotheses.
    // Banked facts from earlier attacks on this instance join it for free.
    std::vector<std::pair<std::vector<sim::BitVec>, std::vector<sim::BitVec>>>
        io;
    for (Observation& obs : engine.banked_observations()) {
      io.emplace_back(std::move(obs.inputs), std::move(obs.outputs));
    }
    const auto add_io = [&](const std::vector<sim::BitVec>& inputs) {
      io.emplace_back(inputs, engine.query_oracle(inputs));
      ++engine.result().iterations;
    };
    // Seed with a few random traces long enough to cover every hypothesis,
    // batched into one wide oracle pass (the stimuli were always drawn
    // unconditionally, so the RNG stream is unchanged).
    {
      std::vector<std::vector<sim::BitVec>> seeds;
      seeds.reserve(4);
      for (int i = 0; i < 4; ++i) {
        seeds.push_back(sim::random_stimulus(engine.rng(),
                                             2 * options_.max_period + 6,
                                             engine.oracle().num_inputs()));
      }
      auto outs = engine.query_oracle_batch(seeds);
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        io.emplace_back(std::move(seeds[i]), std::move(outs[i]));
        ++engine.result().iterations;
      }
    }

    for (std::size_t period = 1; period <= options_.max_period; ++period) {
      const auto solver = engine.make_solver();
      std::vector<std::vector<Var>> slots(period);
      for (auto& slot : slots) {
        for (std::size_t b = 0; b < ki; ++b) slot.push_back(solver->new_var());
      }
      std::size_t constrained = 0;
      const auto sync = [&]() {
        while (constrained < io.size()) {
          // Frame t runs under slots[t % period].
          cnf::constrain_key_on_sequence(*solver, compiled_locked, slots,
                                         io[constrained].first,
                                         io[constrained].second);
          ++constrained;
        }
      };
      for (;;) {
        if (engine.out_of_budget()) {
          return engine.finish_timeout("budget exhausted at period " +
                                       std::to_string(period));
        }
        sync();
        engine.arm_deadline(*solver);
        const Result r = solver->solve();
        if (r == Result::Unknown) {
          return engine.finish_timeout("");
        }
        if (r == Result::Unsat) break;  // period hypothesis refuted

        std::vector<sim::BitVec> schedule;
        for (const auto& slot : slots) {
          schedule.push_back(cnf::extract_bits(*solver, slot));
        }
        std::vector<sim::BitVec> keys(k_check_cycles);
        for (std::size_t t = 0; t < keys.size(); ++t) {
          keys[t] = schedule[t % schedule.size()];
        }
        std::vector<sim::BitVec> counterexample = sim::find_counterexample(
            compiled_reference, compiled_locked, keys, engine.rng(),
            k_check_sequences, k_check_cycles);
        if (counterexample.empty()) {
          recovered_period = period;
          recovered_schedule = std::move(schedule);
          if (!recovered_schedule.empty()) {
            engine.result().key = recovered_schedule[0];
          }
          return engine.finish(Outcome::Equal, "schedule recovered at period " +
                                                   std::to_string(period));
        }
        add_io(counterexample);
      }
    }
    return engine.finish(Outcome::Cns,
                         "no periodic schedule up to period " +
                             std::to_string(options_.max_period) +
                             " is consistent with the oracle");
  }

  std::size_t recovered_period = 0;
  std::vector<sim::BitVec> recovered_schedule;

 private:
  // Heavy randomized validation of a recovered schedule.
  static constexpr std::size_t k_check_sequences = 48;
  static constexpr std::size_t k_check_cycles = 64;

  PeriodicAttackOptions options_;
};

}  // namespace

PeriodicAttackResult periodic_key_attack(const Netlist& locked,
                                         const SequentialOracle& oracle,
                                         const PeriodicAttackOptions& options) {
  if (options.max_period == 0 || options.max_period > k_max_period_limit) {
    throw std::invalid_argument(
        "periodic_key_attack: max_period must be 1.." +
        std::to_string(k_max_period_limit));
  }
  PeriodicAttackResult out;
  OgEngine engine(locked, oracle, options.budget,
                  observation_bank_for(locked, oracle.reference()));
  PeriodicScheduleStrategy strategy(options);
  out.result = engine.run(strategy);
  out.recovered_period = strategy.recovered_period;
  out.recovered_schedule = std::move(strategy.recovered_schedule);
  return out;
}

}  // namespace cl::attack
