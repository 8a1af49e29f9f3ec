// Portfolio CDCL solving behind the sat::Solver interface.
//
// A PortfolioSolver is a Solver: clauses, variables, budgets and models go
// through the inherited interface, so cnf::SequentialMiter and the attacks
// use it unchanged. solve() is overridden: with N > 1 workers it clones the
// problem (including everything learnt so far) into N fresh solvers with
// diversified configurations — different seeds, initial polarities, restart
// pacing and random-decision rates — and races them on a shared
// util::ThreadPool. The first worker to return Sat/Unsat raises the
// interrupt flag of the others (first-winner cancellation); the winner's
// model / failed-assumption set / statistics are folded back into this
// solver, and its low-LBD learnt clauses are imported so the next race (and
// the incremental attack loop around it) keeps the derived knowledge.
//
// While the race runs, workers additionally trade root units and glue
// learnts (LBD <= 2) through a lock-free bounded ClauseExchange: each worker
// publishes as it learns and imports the others' clauses at its restart
// boundaries, so a hard instance is attacked with the union of everyone's
// derived knowledge instead of N isolated searches. Sharing is on whenever
// a race runs (set_share(false) turns it off); there is no race under
// CUTELOCK_BENCH_STABLE=1 because stable mode forces workers = 1.
//
// Portfolio answers are deterministic in *verdict* (Sat/Unsat agree with the
// single solver) but not in *model* or timing — bench harnesses therefore
// force workers = 1 under CUTELOCK_BENCH_STABLE=1 (see bench_common).
#pragma once

#include <cstddef>

#include "sat/solver.hpp"

namespace cl::sat {

class PortfolioSolver : public Solver {
 public:
  /// `workers` <= 1 degrades to the plain (deterministic) Solver. Live
  /// clause sharing between the racing workers is on; override with
  /// set_share().
  explicit PortfolioSolver(std::size_t workers = 1);

  Result solve(const std::vector<Lit>& assumptions = {}) override;

  std::size_t workers() const { return workers_; }

  /// Live clause sharing during races (tests turn it off).
  void set_share(bool share) { share_ = share; }
  bool share() const { return share_; }

  /// Clauses traded through the exchange over this solver's lifetime
  /// (published by any worker / adopted by another worker).
  std::uint64_t shared_published() const { return shared_published_; }
  std::uint64_t shared_dropped() const { return shared_dropped_; }

  /// The diversified configuration handed to worker `index` (worker 0 runs
  /// the reference config). Exposed for tests and docs.
  static Config worker_config(std::size_t index);

 private:
  std::size_t workers_;
  bool share_ = true;
  std::size_t imported_learnts_ = 0;  // lifetime import budget consumed
  std::uint64_t shared_published_ = 0;
  std::uint64_t shared_dropped_ = 0;
};

}  // namespace cl::sat
