// Attack outcome taxonomy, mirroring the paper's colour legend:
//   Equal    (green)      — correct key recovered and verified
//   Cns      (light red)  — "condition not solvable": the attack proved that
//                           no static key is consistent with the oracle
//   WrongKey (deeper red)  — a key was reported but fails verification
//   Fail     (darkest red) — the attack aborted without any key
//   Timeout  (yellow)      — budget exhausted with no verdict ("N/A")
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sequence.hpp"
#include "util/json.hpp"

namespace cl::attack {

enum class Outcome : std::uint8_t { Equal, Cns, WrongKey, Fail, Timeout };

/// Table label in the paper's notation ("Equal", "CNS", "x..x", "FAIL",
/// "N/A").
const char* outcome_label(Outcome o);

/// True when the defense held (anything but Equal).
inline bool defense_held(Outcome o) { return o != Outcome::Equal; }

struct AttackResult {
  Outcome outcome = Outcome::Fail;
  sim::BitVec key;             // reported key, when any
  double seconds = 0.0;        // wall-clock attack time
  std::uint64_t iterations = 0;  // DIPs / oracle queries / candidates
  /// Oracle-query accounting for engine-based attacks (attack::OgEngine):
  /// `replayed_queries` counts queries the attack was about to pay that were
  /// answered from the cross-attack ObservationBank instead (genuinely
  /// avoided oracle calls); `fresh_queries` counts input sequences actually
  /// sent to the oracle; `preloaded_facts` counts banked facts installed as
  /// startup constraints before the first solve (prior knowledge, not
  /// avoided queries — the attack never asked for them). All zero for
  /// attacks that do not run on the engine (BBO, FALL, DANA).
  std::uint64_t replayed_queries = 0;
  std::uint64_t fresh_queries = 0;
  std::uint64_t preloaded_facts = 0;
  /// Wide-lane oracle accounting: of the fresh_queries above,
  /// `batched_queries` counts the sequences that travelled inside a
  /// query_batch() pass (each lane counts once, same unit as fresh_queries),
  /// and `oracle_batches` counts the passes themselves. A fully batched
  /// attack phase retires up to 64*W sequences per pass for one eval charge.
  /// Both zero for attacks (or phases) that query one sequence at a time.
  std::uint64_t batched_queries = 0;
  std::uint64_t oracle_batches = 0;
  /// Key bits pinned as startup unit assumptions from explicit structural
  /// hints (SatAttackOptions::hints, OgEngine::set_hints). Zero when no
  /// hints were injected.
  std::uint64_t hinted_bits = 0;
  /// Fraction of injected hints matching the verified key, computed when
  /// the attack ends Equal with hints active; -1 = not applicable.
  double hint_accuracy = -1.0;
  /// Acceptance-criterion facts filled by attack::apply_acceptance when an
  /// evaluation harness judges the reported key (see attack/accept.hpp);
  /// -1 = not evaluated. `key_exact`: key equals ground truth (the one-key
  /// premise). `any_key_pass`: key is functionally correct regardless of
  /// ground truth. `corruption_rate`: observed output-corruption fraction.
  int key_exact = -1;
  int any_key_pass = -1;
  double corruption_rate = -1.0;
  std::string detail;          // free-form diagnostics

  std::string summary() const;
};

/// The one JSON form of an attack result, written into BENCH_*.json records
/// and service/CLI attack results alike: every field above, in declaration
/// order, always present. `outcome` is the table label; a fact that was not
/// evaluated (`key` when none was reported, `hint_accuracy`, `key_exact`,
/// `any_key_pass`, `corruption_rate` at -1) is null.
util::Json to_json(const AttackResult& r);

/// A key schedule as JSON: one bit string per slot, in slot order.
util::Json schedule_to_json(const std::vector<sim::BitVec>& schedule);

/// Budget shared by all attacks. Attacks stop with Timeout when exceeded.
struct AttackBudget {
  double time_limit_s = 20.0;
  std::uint64_t max_iterations = 2000;
  std::size_t max_depth = 64;          // sequential unroll bound
  std::int64_t conflict_budget = 2'000'000;  // SAT conflicts per solve
  /// Wall cap of each candidate-key verification an attack runs (the SAT
  /// phase of verify_static_key). Kept separate from time_limit_s so bench
  /// harnesses can trade wall deadlines for deterministic budgets.
  double verify_time_limit_s = 5.0;
  /// Nothing reads sat_workers or sat_preprocess: every attack runs one
  /// sat::Solver without preprocessing. The fields stay declared only
  /// because the perfbench workloads assign them their defaults.
  std::size_t sat_workers = 1;
  bool sat_preprocess = false;
  /// Cooperative cancellation (the attack-service's per-job kill switch).
  /// When non-null, the engine checks the flag alongside its wall/iteration
  /// budgets and arms it as the solver's interrupt hook, so a set flag
  /// unwinds the attack with Timeout at the next budget check or solver
  /// step; BBO and FALL check it wherever they check time_limit_s, SCOPE
  /// before its sweep and before verifying. The pointee must outlive the
  /// attack. Null = never cancelled.
  const std::atomic<bool>* cancel = nullptr;

  /// True once `cancel` is set (one relaxed load).
  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

}  // namespace cl::attack
