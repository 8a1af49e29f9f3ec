// Self-contained CDCL SAT solver.
//
// Features: arena clause storage (sat/arena.hpp — contiguous 32-bit-ref
// clause memory with compacting GC at reduce/restart boundaries),
// two-watched-literal propagation with blockers and a dedicated
// binary-clause watch scheme, VSIDS decision heuristic (activity heap) with
// phase saving and best-phase caching, first-UIP conflict analysis with
// recursive clause minimization, exact LBD (glue) computation with
// update-on-use and LBD/activity-driven learned-clause reduction, Luby
// restarts, incremental solving under assumptions (required by the KC2
// attack) and an external interrupt flag (a cancelled attack job stops its
// solve). No external dependencies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "sat/arena.hpp"
#include "sat/types.hpp"

namespace cl::sat {

class Solver {
 public:
  /// Counters over the solver's lifetime (cumulative across solve() calls).
  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
    std::uint64_t learnts_deleted = 0;  ///< learnt clauses dropped by reduce
    std::uint64_t glue_protected = 0;   ///< clauses the reduce sweep spared
                                        ///< only because LBD <= 2 (or binary)
    std::uint64_t minimized_literals = 0;  ///< literals removed from learnts
    std::uint64_t arena_gc_bytes = 0;  ///< bytes reclaimed by arena GC
  };

  Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Allocate a fresh variable.
  Var new_var();
  int num_vars() const { return static_cast<int>(activity_.size()); }

  /// Add a clause over existing variables. Returns false if the database is
  /// already unsatisfiable (the clause is still recorded as appropriate).
  /// The literals are read, sorted and simplified in solver-owned scratch,
  /// then copied into the clause arena: no heap allocation per clause.
  /// `lits` must not alias the solver's own storage. The braced form (and
  /// add_unit/add_binary/add_ternary) reads a stack array.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Solve under the given assumptions. Returns Unknown when a budget set via
  /// set_conflict_budget / set_propagation_budget is exhausted, the deadline
  /// passes, or the interrupt flag fires.
  Result solve(const std::vector<Lit>& assumptions = {});

  /// Model access after Result::Sat.
  bool model_value(Var v) const;
  bool model_value(Lit l) const;

  /// The literal's value when its variable is assigned at decision level 0
  /// (implied by the clauses and units added so far), LBool::Undef
  /// otherwise. Between solve() calls the trail holds only root assignments,
  /// so values the search chose read Undef.
  LBool root_value(Lit l) const {
    const auto v = static_cast<std::size_t>(l.var());
    if (assigns_[v] == LBool::Undef || level_[v] != 0) return LBool::Undef;
    return (assigns_[v] == LBool::True) != l.negated() ? LBool::True
                                                        : LBool::False;
  }

  /// After Unsat under assumptions: the subset of assumption literals that
  /// participate in the final conflict (analogous to MiniSat's conflict
  /// clause over assumptions).
  const std::vector<Lit>& unsat_assumptions() const { return conflict_assumptions_; }

  /// Budgets: negative = unlimited. Budgets are consumed across solve calls
  /// until reset by another set_* call.
  void set_conflict_budget(std::int64_t max_conflicts);
  void set_propagation_budget(std::int64_t max_propagations);

  /// Wall-clock deadline for solve(); checked every few hundred conflicts.
  /// Negative disables. solve() returns Unknown when exceeded.
  void set_time_budget(double seconds);

  /// External cancellation: solve() polls `flag` once per conflict (and at
  /// entry) and returns Unknown when it reads true. The pointed-to flag must
  /// outlive the solve call; nullptr disables. The attack engine arms a
  /// job's cancel flag here.
  void set_interrupt(const std::atomic<bool>* flag) { interrupt_ = flag; }

  /// Learnt-DB reduction threshold (default 4000; each reduction raises it
  /// by 10%). Tests shrink it to force frequent reductions.
  void set_max_learnts(std::size_t max_learnts) { max_learnts_ = max_learnts; }

  /// Branch only on variables below `limit` (negative: on every variable,
  /// the default). solve() then reports Sat once those variables are all
  /// assigned without conflict, and a variable propagation left unassigned
  /// reads false in the model. Unsat stays exact; Sat is exact when every
  /// other variable is decided by propagation from those below the limit,
  /// as in a cnf::HashedEncoder circuit whose sources all lie below it.
  void set_decision_limit(Var limit);

  /// Arena GC trigger: collect when `frac` of the arena words are wasted.
  /// Default 0.25, or CUTELOCK_SAT_GC_FRAC (the ASan stress jobs set it very
  /// low so compaction runs constantly).
  void set_gc_frac(double frac) { gc_frac_ = frac; }

  // Statistics.
  const Stats& stats() const { return stats_; }
  std::uint64_t num_conflicts() const { return stats_.conflicts; }
  std::uint64_t num_decisions() const { return stats_.decisions; }
  std::uint64_t num_propagations() const { return stats_.propagations; }
  std::uint64_t num_learned() const { return stats_.learned; }
  std::size_t num_clauses() const { return clauses_.size(); }
  std::size_t num_learnts() const { return learnts_.size(); }
  std::size_t arena_bytes() const { return arena_.size_bytes(); }

 private:
  struct Watcher {
    CRef clause;
    Lit blocker;
  };
  /// Binary clauses get their own watch lists: the implied literal is read
  /// straight from the watcher, so propagation over binaries never touches
  /// clause memory. The clause ref survives only to serve as a reason /
  /// conflict object for analyze().
  struct BinWatcher {
    Lit other;
    CRef clause;
  };

  LBool lit_value(Lit l) const;
  void new_decision_level() { level_limits_.push_back(static_cast<int>(trail_.size())); }
  int decision_level() const { return static_cast<int>(level_limits_.size()); }
  void attach(CRef c);
  void detach(CRef c);
  void enqueue(Lit l, CRef reason);
  CRef propagate();
  void analyze(CRef conflict, std::vector<Lit>& learnt, int& backtrack_level);
  bool literal_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(Var v);
  void decay_var_activity() { var_inc_ /= 0.95; }
  void bump_clause(CRef c);
  int clause_lbd(const std::vector<Lit>& lits);
  int clause_lbd(CRef c);  ///< same, reading literals straight from the arena
  void reduce_db();
  void analyze_final(Lit p);
  bool interrupted() const {
    return interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed);
  }
  static double luby(double y, int i);

  // ---- arena GC -----------------------------------------------------------

  void gc_arena();
  void maybe_gc() {
    if (arena_.gc_due(gc_frac_)) gc_arena();
  }

  // Heap of variables ordered by activity.
  void heap_insert(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void heap_percolate_up(int i);
  void heap_percolate_down(int i);

  ClauseArena arena_;
  std::vector<CRef> clauses_;
  std::vector<CRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;       // indexed by lit code
  std::vector<std::vector<BinWatcher>> bin_watches_;  // indexed by lit code
  std::vector<LBool> assigns_;
  std::vector<bool> phase_;
  std::vector<bool> best_phase_;      // phases at the deepest trail seen
  std::size_t best_trail_size_ = 0;
  std::vector<CRef> reason_;
  std::vector<int> level_;
  std::vector<Lit> trail_;
  std::vector<int> level_limits_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<int> heap_;       // heap of vars
  std::vector<int> heap_pos_;   // var -> index in heap_ or -1

  std::vector<bool> seen_;
  std::vector<Lit> add_scratch_;  // add_clause's sort/simplify buffer
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  std::vector<std::uint64_t> level_stamp_;  // exact-LBD scratch, per level
  std::uint64_t lbd_stamp_ = 0;

  std::vector<Lit> conflict_assumptions_;
  std::vector<LBool> model_;
  bool ok_ = true;

  std::int64_t conflict_budget_ = -1;
  std::int64_t propagation_budget_ = -1;
  double time_budget_s_ = -1.0;
  std::int64_t deadline_check_countdown_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  const std::atomic<bool>* interrupt_ = nullptr;

  double gc_frac_;

  Stats stats_;
  std::size_t max_learnts_ = 4000;
  Var decision_limit_ = std::numeric_limits<Var>::max();  // heap holds only
                                                          // variables below it
};

}  // namespace cl::sat
