// Lock x attack conformance matrix: every registered defense must run
// through the attack registry's bmc, kc2, rane, sat and bbo modes without
// crashing, produce lint-clean instances,
// and end in a documented verdict. The only allowed "does not apply" cell is
// the scan-model family (sat/appsat/double-dip) on locks that add their own
// state, where scan exposure changes the I/O interface — the same rejection
// the CLI and service give.
//
// The matrix is also where the one-key-premise gap (Hu et al.) must show up
// in the wild: at least one cell has to end with a functionally passing key
// that is NOT the ground-truth bit vector (any_key_pass = 1, key_exact = 0),
// which is exactly the regime where the classic scoreboard undercounts
// broken defenses.
//
// The sequential modes' CNS verdicts on their warmup traces are checked
// against brute force: every static key (and, for RANE, every reset state)
// simulated on the facts the run recorded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "attack/accept.hpp"
#include "attack/observation_bank.hpp"
#include "attack/registry.hpp"
#include "benchgen/catalog.hpp"
#include "benchgen/fsm_suite.hpp"
#include "core/cute_lock_beh.hpp"
#include "fsm/synth.hpp"
#include "lock/lock_registry.hpp"
#include "netlist/bench_io.hpp"
#include "sim/sequence.hpp"

namespace cl {
namespace {

attack::ModeOptions matrix_options() {
  attack::ModeOptions o;
  o.budget.time_limit_s = 5.0;
  o.budget.max_iterations = 80;
  o.budget.max_depth = 8;
  o.budget.verify_time_limit_s = 2.0;
  return o;
}

/// The matrix's attacks, by attack-registry mode name.
const char* const k_attacks[] = {"bmc", "kc2", "rane", "sat", "bbo"};

struct GapTally {
  std::size_t cells_run = 0;
  std::size_t skipped = 0;
  std::size_t gap_cells = 0;  // any_key_pass == 1 && key_exact == 0
};

void run_matrix(const netlist::Netlist& original, std::uint64_t seed,
                GapTally& tally) {
  for (const lock::RegisteredLock& entry : lock::lock_registry()) {
    util::Rng rng(seed);
    const lock::LockResult lr = entry.build(original, rng);
    EXPECT_EQ(lr.scheme, entry.scheme);
    EXPECT_EQ(lr.locked.dffs().size() > original.dffs().size(),
              entry.adds_state)
        << entry.name;
    EXPECT_EQ(lr.is_dynamic(), entry.dynamic_key) << entry.name;

    // Every instance must be lint-clean: no errors gating an attack, and no
    // dead-logic mislabeling of deliberate decoy structure.
    const analysis::LintReport inst = analysis::lint(lr.locked);
    EXPECT_EQ(inst.errors(), 0u)
        << entry.name << ":\n" << analysis::format_diagnostics(inst);
    const analysis::LintReport pair =
        analysis::lint_attack_inputs(lr.locked, original);
    EXPECT_EQ(pair.errors(), 0u)
        << entry.name << ":\n" << analysis::format_diagnostics(pair);

    for (const char* name : k_attacks) {
      SCOPED_TRACE(std::string(entry.name) + " x " + name);
      const attack::AttackMode& mode = attack::find_attack_mode(name);
      if (mode.scan_model && entry.adds_state) {
        // Scan exposure widens a state-adding lock's interface past the
        // oracle's: the scan-model attacks do not apply, and the registry
        // rejects the cell as the CLI and the service do.
        EXPECT_THROW(attack::run_attack_mode(mode, lr.locked, original,
                                             matrix_options()),
                     std::runtime_error);
        ++tally.skipped;
        continue;
      }
      const attack::AttackResult result =
          attack::run_attack_mode(mode, lr.locked, original, matrix_options())
              .result;
      ++tally.cells_run;
      if (entry.dynamic_key) {
        // No static key exists; an Equal here would be a verifier bug.
        EXPECT_TRUE(attack::defense_held(result.outcome)) << result.summary();
        continue;
      }
      if (result.outcome != attack::Outcome::Equal) continue;
      // The attack claims success: the acceptance layer must agree that the
      // reported key is functionally passing, whichever bits it picked for
      // the decoys.
      const attack::AcceptReport rep = attack::verify_any_key(
          lr.locked, result.key, original, &lr.correct_key);
      EXPECT_TRUE(rep.accepted) << rep.detail;
      EXPECT_EQ(rep.any_key_pass, 1);
      // No exactness assertion even for locks not flagged multi_key: two
      // XOR key gates placed in series on one path constrain only their
      // XOR-sum, so equivalence classes appear in any randomized placement.
      if (rep.any_key_pass == 1 && rep.key_exact == 0) ++tally.gap_cells;
    }
  }
}

TEST(LockAttackMatrix, S27EveryLockEveryAttack) {
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("s27");
  GapTally tally;
  run_matrix(circuit.netlist, 23, tally);
  EXPECT_GT(tally.cells_run, 0u);
  // The one-key-premise gap is not hypothetical: some attack on some
  // multi-key lock recovered a passing key that differs from the secret.
  EXPECT_GE(tally.gap_cells, 1u)
      << tally.cells_run << " cells run, " << tally.skipped << " skipped";
}

TEST(LockAttackMatrix, S298EveryLockEveryAttack) {
  const benchgen::SyntheticCircuit circuit = benchgen::make_circuit("s298");
  GapTally tally;
  run_matrix(circuit.netlist, 31, tally);
  EXPECT_GT(tally.cells_run, 0u);
}

// Cute-Lock-Beh locks an STG rather than a netlist, so it sits outside the
// registry; cover it the way the bench harnesses do — synthesize the locked
// and reference FSMs, then run the sequential attacks against the pair.
TEST(LockAttackMatrix, BehSynthesizedPairSurvivesSequentialAttacks) {
  const fsm::Stg stg = benchgen::make_fsm(benchgen::find_fsm_spec("dmac"));
  core::BehOptions options;
  options.num_keys = 2;
  options.key_bits = 7;
  options.seed = 6;
  const core::BehLock lock(stg, options);
  const lock::LockResult lr =
      lock.synthesize(fsm::SynthStyle::DirectTransitions, "dmac_l");
  const netlist::Netlist original =
      fsm::synthesize(stg, fsm::SynthStyle::DirectTransitions, "dmac");
  const analysis::LintReport pair =
      analysis::lint_attack_inputs(lr.locked, original);
  EXPECT_EQ(pair.errors(), 0u) << analysis::format_diagnostics(pair);
  for (const char* name : {"bmc", "kc2"}) {
    SCOPED_TRACE(name);
    const attack::AttackResult result =
        attack::run_attack_mode(attack::find_attack_mode(name), lr.locked,
                                original, matrix_options())
            .result;
    // The correct key is a per-cycle schedule; no static key can be Equal.
    EXPECT_TRUE(attack::defense_held(result.outcome)) << result.summary();
  }
}

/// Whether some static key reproduces every fact of `facts` on `locked`, by
/// simulating all 2^|key| keys at once. With `any_reset` the run may start
/// from any one reset state shared by all facts (RANE's threat model);
/// otherwise it starts from the power-up values, an X taking either value
/// afresh in each fact.
bool some_key_fits(const netlist::Netlist& locked,
                   const std::vector<attack::Observation>& facts,
                   bool any_reset) {
  const std::size_t key_bits = locked.key_inputs().size();
  const std::size_t keys = std::size_t{1} << key_bits;
  const std::size_t words = (keys + 63) / 64;
  std::vector<std::uint64_t> key_words(key_bits * words, 0);
  for (std::size_t j = 0; j < keys; ++j) {
    for (std::size_t k = 0; k < key_bits; ++k) {
      if ((j >> k) & 1) key_words[k * words + j / 64] |= 1ull << (j % 64);
    }
  }
  const std::vector<netlist::SignalId>& dffs = locked.dffs();
  std::vector<std::size_t> open;  // the DFFs each enumerated state assigns
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    if (any_reset || locked.dff_init(dffs[i]) == netlist::DffInit::X) {
      open.push_back(i);
    }
  }
  // Survivors over `runs` (stimuli, responses) with the open DFFs starting
  // from any state; one lane word per 64 keys.
  const auto survivors = [&](const std::vector<attack::Observation>& runs) {
    std::vector<std::vector<sim::BitVec>> stimuli, responses;
    for (const attack::Observation& run : runs) {
      stimuli.push_back(run.inputs);
      responses.push_back(run.outputs);
    }
    std::vector<std::uint64_t> any(words, 0);
    for (std::size_t state = 0; state < (std::size_t{1} << open.size());
         ++state) {
      netlist::Netlist start = locked;
      for (std::size_t b = 0; b < open.size(); ++b) {
        start.set_dff_init(dffs[open[b]], (state >> b) & 1
                                              ? netlist::DffInit::One
                                              : netlist::DffInit::Zero);
      }
      const sim::CompiledNetlist compiled(start);
      sim::ScreenBuffers buffers;
      const std::vector<std::uint64_t> alive =
          sim::StaticKeyScreen(compiled, stimuli, responses)
              .screen(key_words, keys, buffers);
      for (std::size_t w = 0; w < words; ++w) any[w] |= alive[w];
    }
    return any;
  };
  std::vector<std::uint64_t> fit(words, ~0ull);
  if (any_reset) {
    fit = survivors(facts);
  } else {
    for (const attack::Observation& fact : facts) {
      const std::vector<std::uint64_t> alive = survivors({fact});
      for (std::size_t w = 0; w < words; ++w) fit[w] &= alive[w];
    }
  }
  for (std::size_t w = 0; w < words; ++w) {
    if (fit[w] != 0) return true;
  }
  return false;
}

/// Warmup traces per sequential mode (seq_attack.cpp's defaults).
struct WarmupMode {
  const char* name;
  std::size_t warmup;
  bool symbolic_reset;
};
constexpr WarmupMode k_warmup_modes[] = {
    {"bmc", 2, false}, {"kc2", 2, false}, {"rane", 8, true}};

/// Attack `locked` with `mode` on a fresh observation bank, then check its
/// verdict against brute force over the warmup facts the bank recorded:
/// the run ends CNS after exactly its warmup traces iff no key fits them.
/// Returns whether some key fit.
bool check_warmup_verdict(const netlist::Netlist& locked,
                          const netlist::Netlist& original,
                          const WarmupMode& mode) {
  attack::ObservationBank& bank =
      attack::observation_bank_for_key(attack::bank_key(locked, original));
  EXPECT_EQ(bank.size(), 0u) << "the bank must start cold";
  attack::set_observation_bank_forced(true);
  const attack::AttackResult result =
      attack::run_attack_mode(attack::find_attack_mode(mode.name), locked,
                              original, matrix_options())
          .result;
  attack::set_observation_bank_forced(false);
  std::vector<attack::Observation> facts = bank.snapshot();
  EXPECT_GE(facts.size(), mode.warmup) << result.summary();
  facts.resize(std::min(facts.size(), mode.warmup));
  const bool fits = some_key_fits(locked, facts, mode.symbolic_reset);
  const bool settled = result.outcome == attack::Outcome::Cns &&
                       result.iterations == mode.warmup;
  EXPECT_EQ(settled, !fits) << result.summary();
  return fits;
}

TEST(LockAttackMatrix, WarmupCnsMatchesBruteForceOnS27) {
  const netlist::Netlist original = benchgen::make_circuit("s27").netlist;
  std::size_t cells = 0, fitting = 0;
  std::uint64_t seed = 101;
  for (const lock::RegisteredLock& entry : lock::lock_registry()) {
    for (const WarmupMode& mode : k_warmup_modes) {
      // A lock of its own per cell, so each run starts on a cold bank.
      util::Rng rng(seed++);
      const lock::LockResult lr = entry.build(original, rng);
      if (lr.locked.key_inputs().size() > 10) continue;
      SCOPED_TRACE(entry.name + " x " + mode.name);
      ++cells;
      if (check_warmup_verdict(lr.locked, original, mode)) ++fitting;
    }
  }
  // Both sides of the equivalence occur: static locks fit their facts, and
  // Cute-Lock-Str's time-base keys do not.
  EXPECT_GE(cells, 12u);
  EXPECT_GT(fitting, 0u);
  EXPECT_LT(fitting, cells);
}

TEST(LockAttackMatrix, RaneWarmupFitsOnlyFromAnotherResetState) {
  // The chip powers up with q = 1 and always answers y = 1. The locked
  // circuit powers up with q = 0, where y = k & a misses every cycle with
  // a = 0; from q = 1 with k = 0 it answers y = 1. So BMC and KC2 must end
  // CNS on their warmup, and RANE, whose reset state is a secret, must not:
  // a check that started RANE's facts from power-up would fail here.
  const netlist::Netlist original = netlist::read_bench_string(R"(
INPUT(a)
OUTPUT(y)
q = DFF(q)
y = OR(q, a)
# init q 1
)",
                                                             "chip");
  for (const WarmupMode& mode : k_warmup_modes) {
    SCOPED_TRACE(mode.name);
    // A gate name of its own per mode, so each run starts on a cold bank.
    const std::string t = std::string("t_") + mode.name;
    const netlist::Netlist locked = netlist::read_bench_string(
        "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\nq = DFF(q)\n" + t +
            " = AND(keyinput0, a)\ny = XOR(q, " + t + ")\n# init q 0\n",
        "chip_locked");
    EXPECT_EQ(check_warmup_verdict(locked, original, mode),
              mode.symbolic_reset);
  }
}

}  // namespace
}  // namespace cl
