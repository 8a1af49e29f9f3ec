#include "sat/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "sat/exchange.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace cl::sat {

namespace {

/// Process-wide race pool, shared by every PortfolioSolver. Distinct from
/// the bench::Runner pool, so an attack running as a Runner job can race a
/// portfolio without nesting wait() inside its own pool. solve() only ever
/// waits on this pool from non-portfolio threads (workers are plain
/// Solvers), so the TaskGroup barrier cannot deadlock. Sized by
/// CUTELOCK_JOBS (like every other pool) with a floor of 2 so a race is
/// always a race; races wider than the pool still complete, late workers
/// just start (and see the cancel flag) once a slot frees up.
util::ThreadPool& race_pool() {
  static util::ThreadPool pool(std::max<std::size_t>(2, util::jobs_from_env()));
  return pool;
}

/// Caps on learnt clauses imported from winning workers: per race (enough
/// to carry the derived knowledge forward) and over the solver's lifetime —
/// imports become permanent problem clauses that every later race clones,
/// so a long incremental attack loop must not accrete them without bound.
constexpr std::size_t k_max_imported_learnts_per_race = 2000;
constexpr std::size_t k_max_imported_learnts_total = 20000;

}  // namespace

PortfolioSolver::PortfolioSolver(std::size_t workers)
    : workers_(workers == 0 ? 1 : workers) {}

Solver::Config PortfolioSolver::worker_config(std::size_t index) {
  Config c;
  c.seed = 0x9E3779B97F4A7C15ULL * (index + 1);
  switch (index % 4) {
    case 0:
      break;  // reference configuration: the tuned single-solver defaults
    case 1:
      c.default_phase = true;
      c.restart_unit = 32;
      break;
    case 2:
      c.random_initial_phase = true;
      c.random_decision_freq = 0.02;
      c.restart_unit = 128;
      break;
    case 3:
      c.random_initial_phase = true;
      c.random_decision_freq = 0.01;
      c.use_best_phase = false;
      c.restart_unit = 256;
      break;
  }
  // Workers beyond the first cycle would otherwise repeat cases 0/1
  // verbatim (those configs never consult the RNG, so a distinct seed alone
  // changes nothing): force seeded randomness into every later cycle.
  if (index >= 4) {
    c.random_initial_phase = true;
    if (c.random_decision_freq == 0.0) {
      c.random_decision_freq = 0.005 * static_cast<double>(index / 4);
    }
  }
  return c;
}

Result PortfolioSolver::solve(const std::vector<Lit>& assumptions) {
  if (workers_ <= 1) return Solver::solve(assumptions);
  if (!ok_) return Result::Unsat;
  conflict_assumptions_.clear();
  backtrack(0);
  if (propagate() != k_cref_undef) {
    ok_ = false;
    return Result::Unsat;
  }
  // Workers get the problem via copy_problem_into, which does NOT carry
  // elimination records: revive assumption variables in the master first so
  // the replayed clause set constrains them.
  if (!remapper_.empty()) {
    for (const Lit& a : assumptions) {
      if (a.var() >= 0 && a.var() < num_vars() &&
          remapper_.eliminated(a.var())) {
        revive(a.var());
      }
    }
    if (!ok_) return Result::Unsat;
  }

  // Remaining budgets, translated from this solver's absolute counters to
  // the per-worker relative form.
  const std::int64_t conflicts_left =
      conflict_budget_ < 0
          ? -1
          : std::max<std::int64_t>(
                0, conflict_budget_ - static_cast<std::int64_t>(stats_.conflicts));
  const std::int64_t propagations_left =
      propagation_budget_ < 0
          ? -1
          : std::max<std::int64_t>(
                0, propagation_budget_ -
                       static_cast<std::int64_t>(stats_.propagations));
  double seconds_left = -1.0;
  if (time_budget_s_ >= 0) {
    seconds_left = std::max(
        0.0, std::chrono::duration<double>(deadline_ -
                                           std::chrono::steady_clock::now())
                 .count());
  }

  std::vector<std::unique_ptr<Solver>> workers;
  workers.reserve(workers_);
  std::atomic<bool> cancel{false};
  std::atomic<int> winner{-1};
  std::vector<Result> results(workers_, Result::Unknown);
  // Per-race exchange (only when sharing): lives on this frame until
  // group.wait() returns, so worker pointers into it never dangle.
  std::optional<ClauseExchange> exchange;
  if (share_) exchange.emplace();
  for (std::size_t i = 0; i < workers_; ++i) {
    auto w = std::make_unique<Solver>();
    copy_problem_into(*w);
    w->set_config(worker_config(i));
    w->set_conflict_budget(conflicts_left);
    w->set_propagation_budget(propagations_left);
    w->set_time_budget(seconds_left);
    w->set_interrupt(&cancel);
    if (share_) w->set_exchange(&*exchange, i);
    workers.push_back(std::move(w));
  }

  util::TaskGroup group(race_pool());
  for (std::size_t i = 0; i < workers_; ++i) {
    group.submit([this, i, &workers, &results, &assumptions, &cancel, &winner] {
      const Result r = workers[i]->solve(assumptions);
      results[i] = r;
      if (r != Result::Unknown) {
        int expected = -1;
        if (winner.compare_exchange_strong(expected, static_cast<int>(i))) {
          cancel.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  group.wait();

  const int win = winner.load();
  if (win < 0) return Result::Unknown;  // every worker ran out of budget

  Solver& w = *workers[static_cast<std::size_t>(win)];
  const Result verdict = results[static_cast<std::size_t>(win)];

  // Fold the winner's counters in: stats measure the race's critical path,
  // and the budget accounting stays comparable to a single solver's.
  stats_.conflicts += w.stats_.conflicts;
  stats_.decisions += w.stats_.decisions;
  stats_.random_decisions += w.stats_.random_decisions;
  stats_.propagations += w.stats_.propagations;
  stats_.restarts += w.stats_.restarts;
  stats_.learned += w.stats_.learned;
  stats_.learnts_deleted += w.stats_.learnts_deleted;
  stats_.glue_protected += w.stats_.glue_protected;
  stats_.minimized_literals += w.stats_.minimized_literals;
  stats_.shared_exported += w.stats_.shared_exported;
  stats_.shared_imported += w.stats_.shared_imported;
  stats_.vars_eliminated += w.stats_.vars_eliminated;
  stats_.clauses_subsumed += w.stats_.clauses_subsumed;
  stats_.vivified_lits += w.stats_.vivified_lits;
  stats_.arena_gc_bytes += w.stats_.arena_gc_bytes;
  if (exchange) {
    shared_published_ += exchange->published();
    shared_dropped_ += exchange->dropped();
  }

  // Keep the winner's derived knowledge: root-level units and low-LBD
  // learnts are implied by the shared problem clauses, so replaying them
  // into the master is sound and primes both the next race and the
  // incremental attack loop around it.
  if (w.ok_) {
    for (const Lit& unit : w.trail_) add_clause({unit});
    std::size_t imported = 0;
    for (const CRef c : w.learnts_) {
      if (w.arena_.lbd(c) > 2) continue;
      if (imported_learnts_ >= k_max_imported_learnts_total) break;
      if (++imported > k_max_imported_learnts_per_race) break;
      ++imported_learnts_;
      add_clause(w.arena_.lits(c));
      if (!ok_) break;
    }
  } else {
    // The winner refuted the problem independently of the assumptions.
    ok_ = false;
  }

  if (verdict == Result::Sat) {
    model_ = w.model_;
    // The workers never eliminate (no remapper records travel with the
    // problem copy), so eliminated variables are simply unconstrained in
    // their models: reconstruct them from the master's ledger.
    if (!remapper_.empty()) remapper_.extend(model_);
  } else {
    conflict_assumptions_ = w.conflict_assumptions_;
  }
  return verdict;
}

}  // namespace cl::sat
