#include "attack/sat_attack.hpp"

#include <string>

#include "attack/og_engine.hpp"

namespace cl::attack {

using netlist::Netlist;
using sat::Result;

namespace {

/// Classic one-DIP-per-round scan-model SAT attack; Double-DIP is the same
/// strategy with two DIPs extracted per Sat round.
class CombDipStrategy : public DipStrategy {
 public:
  explicit CombDipStrategy(const SatAttackOptions& options)
      : options_(options) {}

  const char* name() const override {
    return options_.mode == SatAttackOptions::Mode::DoubleDip ? "double-dip"
                                                              : "sat";
  }

  Spec spec() const override {
    Spec s;
    s.combinational = true;
    s.start_depth = 1;
    s.dips_per_round =
        options_.mode == SatAttackOptions::Mode::DoubleDip ? 2 : 1;
    s.seed = options_.seed;
    s.caller = "sat_attack";
    return s;
  }

 protected:
  SatAttackOptions options_;
};

/// AppSAT (Shamsi et al., HOST'17): the classic loop plus periodic random
/// sampling; settle on the candidate once its observed error rate is low.
class AppSatStrategy : public CombDipStrategy {
 public:
  using CombDipStrategy::CombDipStrategy;

  const char* name() const override { return "appsat"; }

  RoundAction after_round(OgEngine& engine, std::size_t dip_rounds,
                          AttackResult* done) override {
    if (dip_rounds % options_.appsat_sample_every != 0) {
      return RoundAction::kContinue;
    }
    if (engine.solver().solve() != Result::Sat) {
      return RoundAction::kBreakDis;  // key space empty
    }
    engine.set_candidate(engine.miter().extract_key_a());
    // All samples are drawn first (the engine RNG is untouched by oracle
    // queries, so the draw order matches per-sample querying), then both the
    // candidate simulation and the oracle travel as wide-lane batches.
    // Failing samples constrain in draw order, preserving the clause stream
    // of the per-sample loop.
    std::vector<std::vector<sim::BitVec>> samples;
    samples.reserve(options_.appsat_samples);
    for (std::size_t s = 0; s < options_.appsat_samples; ++s) {
      samples.push_back(
          {sim::random_bits(engine.rng(), engine.locked().inputs().size())});
    }
    const auto got_all = sim::run_sequences_batched(
        engine.compiled(), samples, {engine.candidate()});
    const auto want_all = engine.query_oracle_batch(samples);
    std::size_t errors = 0;
    for (std::size_t s = 0; s < options_.appsat_samples; ++s) {
      if (got_all[s][0] != want_all[s][0]) {
        ++errors;
        // AppSAT reinforces with failing samples as additional constraints.
        engine.constrain_both_keys(samples[s], want_all[s]);
      }
    }
    const double error_rate = static_cast<double>(errors) /
                              static_cast<double>(options_.appsat_samples);
    if (error_rate <= options_.appsat_error_threshold) {
      // Settled: report the approximate key (verified exactly).
      const VerifyResult v = verify_static_key(
          engine.locked(), engine.candidate(), engine.oracle().reference(),
          engine.verify_options(false));
      engine.result().key = engine.candidate();
      *done = engine.finish(verdict_outcome(v.verdict),
                            "appsat settled, error rate " +
                                std::to_string(error_rate));
      return RoundAction::kDone;
    }
    return RoundAction::kContinue;
  }
};

}  // namespace

AttackResult sat_attack(const Netlist& locked, const SequentialOracle& oracle,
                        const SatAttackOptions& options) {
  OgEngine engine(locked, oracle, options.budget,
                  observation_bank_for(locked, oracle.reference()));
  if (!options.hints.empty()) engine.set_hints(options.hints);
  if (options.mode == SatAttackOptions::Mode::AppSat) {
    AppSatStrategy strategy(options);
    return engine.run(strategy);
  }
  CombDipStrategy strategy(options);
  return engine.run(strategy);
}

}  // namespace cl::attack
