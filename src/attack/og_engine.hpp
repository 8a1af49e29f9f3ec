// Unified oracle-guided attack engine.
//
// Every oracle-guided attack in the suite — SAT (HOST'15), Double-DIP,
// AppSAT, BMC/INT (ICCAD'17), KC2 (DATE'19), RANE (GLSVLSI'21), and the
// adaptive periodic-schedule attacker — is the same loop wearing different
// hats: build a miter over hypothesis copies of the locked circuit, solve
// for a discriminating input (sequence), query the oracle, constrain, and
// conclude when the hypothesis space is discriminated. OgEngine owns that
// loop once: solver + miter construction, budget and deadline arming,
// iteration accounting, candidate tracking, and candidate verification.
// What actually differs per attack is reduced to a DipStrategy — how many
// DIPs per round (Double-DIP), settling on an approximate key (AppSAT),
// blocking refuted candidates (KC2), a symbolic reset state (RANE), or
// replacing the
// static-key hypothesis with a periodic schedule sweep (periodic).
//
// The engine is also where the cross-attack ObservationBank plugs in: when a
// bank is attached, recorded oracle facts are installed as constraints
// before the first solve (counted as `preloaded_facts`), exact repeats of a
// banked input sequence are answered from the bank instead of the oracle
// (`replayed_queries`), and every genuine query is recorded for the attacks
// that follow (`fresh_queries`). All three counters land in AttackResult
// and, via bench::Runner, in BENCH_*.json.
//
// The public attack entry points (sat_attack, bmc_attack, kc2_attack,
// rane_attack, periodic_key_attack) are thin wrappers that pick a strategy
// and run it here; their signatures and semantics are unchanged.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attack/observation_bank.hpp"
#include "attack/oracle.hpp"
#include "attack/result.hpp"
#include "attack/verify.hpp"
#include "cnf/miter.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cl::attack {

class DipStrategy;

class OgEngine {
 public:
  /// Static description of a strategy's loop shape. The engine reads it once
  /// at run() and drives the shared loop accordingly.
  struct Spec {
    bool combinational = false;  ///< scan model: fixed depth 1
    bool symbolic_init = false;  ///< RANE: reset state as a shared secret
    std::size_t start_depth = 1;  ///< unroll depth of the DIS search
    std::size_t warmup_sequences = 0;  ///< random oracle traces before DIS
    std::size_t warmup_cycles = 0;
    std::size_t dips_per_round = 1;  ///< Double-DIP: 2
    std::uint64_t seed = 0;          ///< engine RNG (warmup, AppSAT samples)
    const char* caller = "attack";   ///< prefix of input-validation errors
  };

  /// `bank` may be nullptr (no cross-attack sharing; the default behaviour
  /// is then bit-identical to the pre-engine per-attack loops).
  OgEngine(const netlist::Netlist& locked, const SequentialOracle& oracle,
           const AttackBudget& budget, ObservationBank* bank = nullptr);

  /// Validate inputs against the strategy's Spec and run it to completion.
  AttackResult run(DipStrategy& strategy);

  // ---- services for strategies -------------------------------------------

  const netlist::Netlist& locked() const { return locked_; }
  /// The locked netlist compiled once per run() (after input validation):
  /// the program every oracle fact is encoded from and AppSAT and the
  /// periodic strategy simulate.
  const sim::CompiledNetlist& compiled() const { return *compiled_; }
  const SequentialOracle& oracle() const { return oracle_; }
  const AttackBudget& budget() const { return budget_; }
  const Spec& spec() const { return spec_; }
  AttackResult& result() { return result_; }
  util::Rng& rng() { return rng_; }
  ObservationBank* bank() { return bank_; }

  /// Engine-owned solver/miter; valid inside the shared DIP loop (the first
  /// rebuild happens when run_dip_loop starts).
  sat::Solver& solver() { return *solver_; }
  cnf::SequentialMiter& miter() { return *miter_; }

  // The one copy of the formerly per-attack budget lambdas.
  bool out_of_budget() const;
  double elapsed_s() const;
  /// Wall budget left: max(0, limit - elapsed). Deliberately floor-free — an
  /// exhausted budget arms a zero deadline (solve returns Unknown at entry)
  /// instead of the historical 0.05 s grace period.
  double remaining_s() const;
  void arm_deadline();
  void arm_deadline(sat::Solver& solver) const;
  /// VerifyOptions derived from the budget; `clamp_to_remaining` caps the
  /// SAT phase at the wall budget left (the sequential attacks' behaviour).
  VerifyOptions verify_options(bool clamp_to_remaining) const;

  /// Query the oracle on one input sequence: counts a fresh query, records
  /// the fact into the bank (when attached), returns the response.
  std::vector<sim::BitVec> query_oracle(const std::vector<sim::BitVec>& inputs);

  /// Batched query_oracle: element j of the result equals
  /// query_oracle(sequences[j]), with identical bank/accounting semantics
  /// (bank hits count replayed, misses fresh), but the bank misses travel to
  /// the oracle in wide-lane query_batch() passes — one per distinct
  /// sequence length — retiring up to 64*W sequences per eval charge. The
  /// batch traffic lands in AttackResult::batched_queries/oracle_batches.
  std::vector<std::vector<sim::BitVec>> query_oracle_batch(
      const std::vector<std::vector<sim::BitVec>>& sequences);

  /// Guarded snapshot of the attached bank: every fact whose frame widths
  /// match the locked circuit's inputs and outputs, each counted as one
  /// preloaded fact. Empty without a bank. The one place the replay
  /// guard/accounting lives — both the shared loop's constraint replay and
  /// custom strategies (periodic) pull their banked facts through here.
  std::vector<Observation> banked_observations();

  /// Oracle-consistency constraint on both key copies of the engine miter
  /// (honouring the Spec's symbolic reset state). Does not query the oracle.
  void constrain_both_keys(const std::vector<sim::BitVec>& inputs,
                           const std::vector<sim::BitVec>& outputs);

  /// The DIP-loop step: query the oracle, constrain both key copies, append
  /// to the replayable I/O log, count one iteration.
  void add_io(const std::vector<sim::BitVec>& inputs);

  /// add_io over many sequences with one batched oracle pass. Constraints
  /// are added and iterations counted in element order, so the solver sees
  /// the exact clause stream of per-sequence add_io calls.
  void add_io_batch(const std::vector<std::vector<sim::BitVec>>& sequences);

  /// Fresh solver + miter at `depth`, replaying the recorded I/O log.
  void rebuild(std::size_t depth);

  /// Best key candidate so far; every Timeout path reports it uniformly.
  const sim::BitVec& candidate() const { return candidate_; }
  void set_candidate(const sim::BitVec& key) { candidate_ = key; }

  /// Structural key hints (bit index, value) installed as unit assumptions
  /// on every solve, so the DIP search starts inside the hinted subspace.
  /// The moment the hints prove unreliable — they contradict a recorded
  /// oracle fact, or their subspace's best candidate fails external
  /// verification — they are dropped for the rest of the run, so every
  /// terminal verdict (Equal is externally verified; Cns and WrongKey are
  /// concluded hint-free) is as sound as an unhinted run. Call before run();
  /// without it the run is unhinted. Out-of-range bit indices are discarded
  /// at run().
  void set_hints(std::vector<std::pair<std::size_t, bool>> hints);

  /// Solver factory for strategies that manage their own instances (the
  /// periodic schedule sweep): conflict budget and cancel hook applied.
  std::unique_ptr<sat::Solver> make_solver() const;

  // Terminal results: stamp seconds (and, for timeouts, the candidate).
  AttackResult finish(Outcome outcome, std::string detail);
  AttackResult finish_timeout(std::string detail);

  /// The shared loop (DipStrategy::attack's default body): bank replay,
  /// warmup, DIS search, consistency check, verification, counterexample
  /// feedback.
  AttackResult run_dip_loop(DipStrategy& strategy);

 private:
  struct IoFact {
    std::vector<sim::BitVec> inputs;
    std::vector<sim::BitVec> outputs;
  };

  /// The bank's response to exactly `inputs` when its widths fit the locked
  /// circuit (counted as a replayed query), else nullopt.
  std::optional<std::vector<sim::BitVec>> bank_lookup(
      const std::vector<sim::BitVec>& inputs);
  void replay_bank();
  void prepare_hints();
  /// solver_->solve(assumptions) with the active hints appended as unit
  /// assumptions over BOTH key copies. With `drop_on_unsat` (the consistency
  /// solve), Unsat under hints drops them permanently, re-arms the deadline,
  /// and re-solves without; diff solves pass false — there Unsat means "the
  /// hinted subspace is discriminated" and external verification arbitrates.
  sat::Result solve_hinted(std::vector<sat::Lit> assumptions,
                           bool drop_on_unsat);

  const netlist::Netlist& locked_;
  const SequentialOracle& oracle_;
  AttackBudget budget_;
  Spec spec_;
  ObservationBank* bank_;
  util::Timer timer_;
  util::Rng rng_;
  AttackResult result_;
  sim::BitVec candidate_;
  std::vector<IoFact> io_;  // replayed on rebuild()
  std::vector<std::pair<std::size_t, bool>> hints_;
  bool hints_active_ = false;
  std::optional<sim::CompiledNetlist> compiled_;
  std::unique_ptr<sat::Solver> solver_;
  std::unique_ptr<cnf::SequentialMiter> miter_;
};

/// Per-attack behaviour plugged into the engine. Implementations live next
/// to their public entry points (sat_attack.cpp, seq_attack.cpp,
/// periodic_attack.cpp); see docs/attacks.md for the contract.
class DipStrategy {
 public:
  using Spec = OgEngine::Spec;

  /// What after_round tells the shared loop to do next.
  enum class RoundAction {
    kContinue,  ///< keep searching for DIPs at the current depth
    kBreakDis,  ///< stop the DIS search, go to the consistency phase
    kDone,      ///< attack finished; *done carries the result
  };

  virtual ~DipStrategy() = default;
  virtual const char* name() const = 0;
  virtual Spec spec() const = 0;

  /// Drive the attack. The default body is the engine's shared DIP loop;
  /// strategies whose outer structure is different (the periodic schedule
  /// hypothesis sweep) override this and use the engine services directly.
  virtual AttackResult attack(OgEngine& engine);

  /// Called after each DIP round (a Sat diff solve plus its oracle
  /// constraints). AppSAT's sampling/settling lives here.
  virtual RoundAction after_round(OgEngine& engine, std::size_t dip_rounds,
                                  AttackResult* done);

  /// Called when a consistent candidate failed verification and its
  /// counterexample was fed back (KC2 adds its blocking clause here).
  virtual void on_refuted(OgEngine& engine, const sim::BitVec& key);
};

}  // namespace cl::attack
