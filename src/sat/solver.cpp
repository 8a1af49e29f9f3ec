#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/env.hpp"

namespace cl::sat {

namespace {

/// Luby restart base interval, in conflicts.
constexpr int k_restart_unit = 64;

}  // namespace

Solver::Solver() : gc_frac_(util::sat_gc_frac_from_env()) {
  level_stamp_.push_back(0);  // slot for decision level 0
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(activity_.size());
  activity_.push_back(0.0);
  assigns_.push_back(LBool::Undef);
  phase_.push_back(false);
  best_phase_.push_back(false);
  reason_.push_back(k_cref_undef);
  level_.push_back(0);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  level_stamp_.push_back(0);
  heap_pos_.push_back(-1);
  if (v < decision_limit_) heap_insert(v);
  return v;
}

LBool Solver::lit_value(Lit l) const {
  const LBool v = assigns_[l.var()];
  if (v == LBool::Undef) return LBool::Undef;
  const bool b = (v == LBool::True) != l.negated();
  return b ? LBool::True : LBool::False;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  if (decision_level() != 0) {
    throw std::logic_error("add_clause: only legal at decision level 0");
  }
  // Simplify: sort, drop duplicates, detect tautology, drop false literals,
  // detect satisfied clauses. Survivors are compacted in place.
  std::vector<Lit>& out = add_scratch_;
  out.assign(lits.begin(), lits.end());
  std::sort(out.begin(), out.end());
  std::size_t kept = 0;
  Lit prev = Lit::from_code(-2);
  for (const Lit l : out) {
    if (l.var() < 0 || l.var() >= num_vars()) {
      throw std::invalid_argument("add_clause: unknown variable");
    }
    if (l == prev) continue;
    if (prev.code() >= 0 && l == ~prev) return true;  // tautology
    const LBool v = lit_value(l);
    if (v == LBool::True) return true;  // already satisfied at level 0
    if (v == LBool::False) { prev = l; continue; }
    out[kept++] = l;
    prev = l;
  }
  if (kept == 0) {
    ok_ = false;
    return false;
  }
  if (kept == 1) {
    enqueue(out[0], k_cref_undef);
    if (propagate() != k_cref_undef) ok_ = false;
    return ok_;
  }
  const CRef c = arena_.alloc(std::span<const Lit>(out.data(), kept),
                              /*learnt=*/false);
  clauses_.push_back(c);
  attach(c);
  return true;
}

void Solver::attach(CRef c) {
  const Lit l0 = arena_.lit(c, 0);
  const Lit l1 = arena_.lit(c, 1);
  if (arena_.size(c) == 2) {
    bin_watches_[(~l0).code()].push_back({l1, c});
    bin_watches_[(~l1).code()].push_back({l0, c});
    return;
  }
  watches_[(~l0).code()].push_back({c, l1});
  watches_[(~l1).code()].push_back({c, l0});
}

void Solver::detach(CRef c) {
  if (arena_.size(c) == 2) {
    for (int i = 0; i < 2; ++i) {
      auto& ws = bin_watches_[(~arena_.lit(c, static_cast<std::uint32_t>(i))).code()];
      for (std::size_t j = 0; j < ws.size(); ++j) {
        if (ws[j].clause == c) {
          ws[j] = ws.back();
          ws.pop_back();
          break;
        }
      }
    }
    return;
  }
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[(~arena_.lit(c, static_cast<std::uint32_t>(i))).code()];
    for (std::size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].clause == c) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::enqueue(Lit l, CRef reason) {
  assigns_[l.var()] = l.negated() ? LBool::False : LBool::True;
  phase_[l.var()] = !l.negated();
  reason_[l.var()] = reason;
  level_[l.var()] = decision_level();
  trail_.push_back(l);
}

CRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    // Binary watchers first: the implied literal is read straight from the
    // watcher, so the common two-literal case never touches clause memory.
    for (const BinWatcher& bw : bin_watches_[p.code()]) {
      const LBool v = lit_value(bw.other);
      if (v == LBool::True) continue;
      const CRef c = bw.clause;
      if (v == LBool::False) {
        propagate_head_ = trail_.size();
        return c;
      }
      // analyze() expects the implied literal at position 0 of its reason.
      if (arena_.lit(c, 0) != bw.other) arena_.swap_lits(c, 0, 1);
      enqueue(bw.other, c);
    }
    auto& ws = watches_[p.code()];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (lit_value(w.blocker) == LBool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      const CRef c = w.clause;
      // Normalize: ensure the false literal ~p is at position 1.
      const Lit not_p = ~p;
      if (arena_.lit(c, 0) == not_p) arena_.swap_lits(c, 0, 1);
      // If first literal is true, keep watching.
      const Lit first = arena_.lit(c, 0);
      if (lit_value(first) == LBool::True) {
        ws[j++] = {c, first};
        ++i;
        continue;
      }
      // Search a new literal to watch.
      bool found = false;
      const std::uint32_t n = arena_.size(c);
      for (std::uint32_t k = 2; k < n; ++k) {
        if (lit_value(arena_.lit(c, k)) != LBool::False) {
          arena_.swap_lits(c, 1, k);
          watches_[(~arena_.lit(c, 1)).code()].push_back({c, first});
          found = true;
          break;
        }
      }
      if (found) {
        ++i;  // this watcher is dropped (moved to the other list)
        continue;
      }
      // Unit or conflicting.
      if (lit_value(first) == LBool::False) {
        // Conflict: restore remaining watchers and report.
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        propagate_head_ = trail_.size();
        return c;
      }
      enqueue(first, c);
      ws[j++] = {c, first};
      ++i;
    }
    ws.resize(j);
  }
  return k_cref_undef;
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) heap_percolate_up(heap_pos_[v]);
}

void Solver::bump_clause(CRef c) {
  arena_.set_activity(c, arena_.activity(c) + clause_inc_);
  if (arena_.activity(c) > 1e20) {
    // Rescale the learnt DB (the only clauses whose activity is compared);
    // a hot problem clause keeps its large value and simply re-triggers.
    for (const CRef l : learnts_) {
      arena_.set_activity(l, arena_.activity(l) * 1e-20);
    }
    clause_inc_ *= 1e-20;
  }
}

int Solver::clause_lbd(const std::vector<Lit>& lits) {
  // Exact glue: number of distinct decision levels > 0 among the literals,
  // via a stamped per-level scratch array (no hashing collisions). Dummy
  // decision levels (assumptions already satisfied when placed, e.g.
  // duplicated assumption literals) can push decision levels past
  // num_vars, so the scratch array grows on demand.
  if (level_stamp_.size() <= static_cast<std::size_t>(decision_level())) {
    level_stamp_.resize(static_cast<std::size_t>(decision_level()) + 1, 0);
  }
  ++lbd_stamp_;
  int lbd = 0;
  for (const Lit& l : lits) {
    const int lev = level_[l.var()];
    if (lev <= 0) continue;
    if (level_stamp_[static_cast<std::size_t>(lev)] != lbd_stamp_) {
      level_stamp_[static_cast<std::size_t>(lev)] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

int Solver::clause_lbd(CRef c) {
  if (level_stamp_.size() <= static_cast<std::size_t>(decision_level())) {
    level_stamp_.resize(static_cast<std::size_t>(decision_level()) + 1, 0);
  }
  ++lbd_stamp_;
  int lbd = 0;
  const std::uint32_t n = arena_.size(c);
  for (std::uint32_t i = 0; i < n; ++i) {
    const int lev = level_[arena_.lit(c, i).var()];
    if (lev <= 0) continue;
    if (level_stamp_[static_cast<std::size_t>(lev)] != lbd_stamp_) {
      level_stamp_[static_cast<std::size_t>(lev)] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::analyze(CRef conflict, std::vector<Lit>& learnt,
                     int& backtrack_level) {
  learnt.clear();
  learnt.push_back(Lit::from_code(-2));  // slot for the asserting literal
  int counter = 0;
  Lit p = Lit::from_code(-2);
  std::size_t trail_index = trail_.size();
  CRef reason = conflict;

  do {
    bump_clause(reason);
    // Update-on-use: a learnt clause re-derived during analysis may now sit
    // at a lower glue level; keeping the minimum protects it from reduction.
    if (arena_.learnt(reason) && arena_.size(reason) > 2) {
      const int glue = clause_lbd(reason);
      if (glue < arena_.lbd(reason)) arena_.set_lbd(reason, glue);
    }
    // Start at 1 when `reason` is the reason of p (lit 0 == p).
    const std::uint32_t start = (p.code() >= 0) ? 1 : 0;
    const std::uint32_t n = arena_.size(reason);
    for (std::uint32_t k = start; k < n; ++k) {
      const Lit q = arena_.lit(reason, k);
      if (!seen_[q.var()] && level_[q.var()] > 0) {
        seen_[q.var()] = true;
        bump_var(q.var());
        if (level_[q.var()] >= decision_level()) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Select next literal on the trail to resolve on.
    while (!seen_[trail_[trail_index - 1].var()]) --trail_index;
    --trail_index;
    p = trail_[trail_index];
    seen_[p.var()] = false;
    reason = reason_[p.var()];
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Mark remaining literals for minimization bookkeeping.
  analyze_clear_ = learnt;
  for (const Lit& l : learnt) {
    if (l.code() >= 0) seen_[l.var()] = true;
  }
  // Clause minimization: drop literals implied by the rest of the clause.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract_levels |= 1u << (level_[learnt[i].var()] & 31);
  }
  const std::size_t before_minimize = learnt.size();
  std::size_t out = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (reason_[learnt[i].var()] == k_cref_undef ||
        !literal_redundant(learnt[i], abstract_levels)) {
      learnt[out++] = learnt[i];
    }
  }
  learnt.resize(out);
  stats_.minimized_literals += before_minimize - out;

  for (const Lit& l : analyze_clear_) {
    if (l.code() >= 0) seen_[l.var()] = false;
  }
  analyze_clear_.clear();

  // Compute backtrack level: max level among learnt[1..].
  if (learnt.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[learnt[1].var()];
  }
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit cur = analyze_stack_.back();
    analyze_stack_.pop_back();
    const CRef c = reason_[cur.var()];
    if (c == k_cref_undef) {
      // Hit a decision: not redundant; undo marks made during this check.
      for (std::size_t i = top; i < analyze_clear_.size(); ++i) {
        seen_[analyze_clear_[i].var()] = false;
      }
      analyze_clear_.resize(top);
      return false;
    }
    const std::uint32_t n = arena_.size(c);
    for (std::uint32_t k = 1; k < n; ++k) {
      const Lit q = arena_.lit(c, k);
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      if (reason_[q.var()] == k_cref_undef ||
          ((1u << (level_[q.var()] & 31)) & abstract_levels) == 0) {
        for (std::size_t i = top; i < analyze_clear_.size(); ++i) {
          seen_[analyze_clear_[i].var()] = false;
        }
        analyze_clear_.resize(top);
        return false;
      }
      seen_[q.var()] = true;
      analyze_stack_.push_back(q);
      analyze_clear_.push_back(q);
    }
  }
  return true;
}

void Solver::backtrack(int target_level) {
  if (decision_level() <= target_level) return;
  const int limit = level_limits_[target_level];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= limit; --i) {
    const Var v = trail_[static_cast<std::size_t>(i)].var();
    assigns_[v] = LBool::Undef;
    reason_[v] = k_cref_undef;
    if (heap_pos_[v] < 0 && v < decision_limit_) heap_insert(v);
  }
  trail_.resize(static_cast<std::size_t>(limit));
  level_limits_.resize(static_cast<std::size_t>(target_level));
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch() {
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (assigns_[v] != LBool::Undef) continue;
    ++stats_.decisions;
    return Lit(v, !phase_[v]);
  }
  return Lit::from_code(-2);
}

void Solver::reduce_db() {
  // Keep clauses with low LBD or high activity; delete the bottom half.
  // Glue clauses (LBD <= 2) and binaries are never deleted.
  std::sort(learnts_.begin(), learnts_.end(), [this](CRef a, CRef b) {
    const int la = arena_.lbd(a);
    const int lb = arena_.lbd(b);
    if (la != lb) return la > lb;
    return arena_.activity(a) < arena_.activity(b);
  });
  const std::size_t target = learnts_.size() / 2;
  std::vector<CRef> kept;
  kept.reserve(learnts_.size() - target);
  std::size_t removed = 0;
  for (const CRef c : learnts_) {
    bool locked = false;
    // A clause is locked if it is the reason of a current assignment.
    const Lit first = arena_.lit(c, 0);
    if (lit_value(first) == LBool::True && reason_[first.var()] == c) {
      locked = true;
    }
    const bool glue = arena_.lbd(c) <= 2 || arena_.size(c) <= 2;
    if (removed < target && !locked && !glue) {
      detach(c);
      arena_.free_clause(c);
      ++removed;
      ++stats_.learnts_deleted;
    } else {
      // Still inside the deletion quota but spared: record when the glue
      // policy (not a lock) is what saved the clause.
      if (removed < target && !locked && glue) ++stats_.glue_protected;
      kept.push_back(c);
    }
  }
  learnts_ = std::move(kept);
}

void Solver::analyze_final(Lit p) {
  conflict_assumptions_.clear();
  conflict_assumptions_.push_back(p);
  if (decision_level() == 0) return;
  seen_[p.var()] = true;
  for (int i = static_cast<int>(trail_.size()) - 1;
       i >= level_limits_[0]; --i) {
    const Var v = trail_[static_cast<std::size_t>(i)].var();
    if (!seen_[v]) continue;
    if (reason_[v] == k_cref_undef) {
      if (level_[v] > 0 && trail_[static_cast<std::size_t>(i)] != p) {
        conflict_assumptions_.push_back(trail_[static_cast<std::size_t>(i)]);
      }
    } else {
      const CRef r = reason_[v];
      const std::uint32_t n = arena_.size(r);
      for (std::uint32_t k = 1; k < n; ++k) {
        const Var u = arena_.lit(r, k).var();
        if (level_[u] > 0) seen_[u] = true;
      }
    }
    seen_[v] = false;
  }
  seen_[p.var()] = false;
}

double Solver::luby(double y, int i) {
  int size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::pow(y, seq);
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  if (!ok_) return Result::Unsat;
  conflict_assumptions_.clear();
  backtrack(0);
  if (propagate() != k_cref_undef) {
    ok_ = false;
    return Result::Unsat;
  }
  // Honour an already-expired wall deadline (or a fired interrupt) before
  // any search: conflicts are the only other place these are read, and an
  // easy instance may never produce one.
  if (time_budget_s_ >= 0 && std::chrono::steady_clock::now() > deadline_) {
    return Result::Unknown;
  }
  if (interrupted()) return Result::Unknown;

  int restart_count = 0;
  std::int64_t conflicts_until_restart = static_cast<std::int64_t>(
      luby(2.0, restart_count) * k_restart_unit);
  best_trail_size_ = 0;  // best-phase tracking is per solve call

  std::vector<Lit> learnt;
  for (;;) {
    const CRef conflict = propagate();
    if (conflict != k_cref_undef) {
      ++stats_.conflicts;
      // Best-phase caching: snapshot the polarities of the deepest trail
      // seen this call; restarts can re-target it.
      if (trail_.size() > best_trail_size_) {
        best_trail_size_ = trail_.size();
        best_phase_ = phase_;
      }
      if (decision_level() == 0) {
        ok_ = false;
        return Result::Unsat;
      }
      // Conflict below/at the assumption prefix: find which assumptions fail.
      if (static_cast<std::size_t>(decision_level()) <= assumptions.size()) {
        // The conflict depends on assumptions only through decisions; collect
        // them by resolving the conflict fully.
        conflict_assumptions_.clear();
        const std::uint32_t cn = arena_.size(conflict);
        for (std::uint32_t k = 0; k < cn; ++k) {
          const Lit l = arena_.lit(conflict, k);
          if (level_[l.var()] > 0) seen_[l.var()] = true;
        }
        for (int i = static_cast<int>(trail_.size()) - 1;
             i >= level_limits_[0]; --i) {
          const Var v = trail_[static_cast<std::size_t>(i)].var();
          if (!seen_[v]) continue;
          if (reason_[v] == k_cref_undef) {
            conflict_assumptions_.push_back(trail_[static_cast<std::size_t>(i)]);
          } else {
            const CRef r = reason_[v];
            const std::uint32_t rn = arena_.size(r);
            for (std::uint32_t k = 1; k < rn; ++k) {
              const Var u = arena_.lit(r, k).var();
              if (level_[u] > 0) seen_[u] = true;
            }
          }
          seen_[v] = false;
        }
        backtrack(0);
        return Result::Unsat;
      }
      int back_level = 0;
      analyze(conflict, learnt, back_level);
      // Exact LBD of the freshly learnt clause, while levels are live.
      const int learnt_lbd = clause_lbd(learnt);
      if (learnt.size() == 1) {
        // A unit learnt clause is implied by the clause database alone (not
        // the assumptions), so assert it at the root; the decision loop
        // re-places the assumptions afterwards.
        backtrack(0);
        enqueue(learnt[0], k_cref_undef);
      } else {
        // Never backtrack into the assumption prefix: clamp to the prefix
        // boundary. The learnt clause still asserts there — every literal
        // but learnt[0] is false at a level <= back_level <= floor_level.
        // (decision_level() > assumptions.size() here; the prefix-conflict
        // case above already returned.)
        const int floor_level = static_cast<int>(assumptions.size());
        backtrack(std::max(back_level, floor_level));
        const CRef c = arena_.alloc(learnt, /*learnt=*/true, learnt_lbd);
        arena_.set_activity(c, clause_inc_);
        learnts_.push_back(c);
        ++stats_.learned;
        attach(c);
        enqueue(learnt[0], c);
      }
      decay_var_activity();
      clause_inc_ /= 0.999;

      if (conflict_budget_ >= 0 &&
          stats_.conflicts >= static_cast<std::uint64_t>(conflict_budget_)) {
        backtrack(0);
        return Result::Unknown;
      }
      if (interrupted()) {
        backtrack(0);
        return Result::Unknown;
      }
      if (time_budget_s_ >= 0 && --deadline_check_countdown_ <= 0) {
        deadline_check_countdown_ = 256;
        if (std::chrono::steady_clock::now() > deadline_) {
          backtrack(0);
          return Result::Unknown;
        }
      }
      if (--conflicts_until_restart <= 0) {
        ++restart_count;
        ++stats_.restarts;
        conflicts_until_restart = static_cast<std::int64_t>(
            luby(2.0, restart_count) * k_restart_unit);
        // Best-phase restore: re-target the deepest trail seen this call.
        if (best_trail_size_ > 0) phase_ = best_phase_;
        backtrack(static_cast<int>(assumptions.size()) <= decision_level()
                      ? static_cast<int>(assumptions.size())
                      : 0);
        maybe_gc();
      }
      if (learnts_.size() > max_learnts_) {
        reduce_db();
        max_learnts_ = max_learnts_ + max_learnts_ / 10;
        maybe_gc();
      }
    } else {
      if (propagation_budget_ >= 0 &&
          stats_.propagations >= static_cast<std::uint64_t>(propagation_budget_)) {
        backtrack(0);
        return Result::Unknown;
      }
      // Place assumptions as the first decisions.
      if (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
        const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
        const LBool v = lit_value(a);
        if (v == LBool::True) {
          new_decision_level();  // already satisfied; dummy level keeps indexing
          continue;
        }
        if (v == LBool::False) {
          analyze_final(~a);
          backtrack(0);
          return Result::Unsat;
        }
        new_decision_level();
        enqueue(a, k_cref_undef);
        continue;
      }
      const Lit next = pick_branch();
      if (next.code() < 0) {
        // All variables assigned: model found. Copy it out and restore the
        // solver to level 0 so clauses can be added incrementally.
        model_ = assigns_;
        backtrack(0);
        return Result::Sat;
      }
      new_decision_level();
      enqueue(next, k_cref_undef);
    }
  }
}

bool Solver::model_value(Var v) const {
  if (v < 0 || v >= static_cast<Var>(model_.size())) {
    throw std::out_of_range("model_value: no model for variable");
  }
  return model_[v] == LBool::True;
}

bool Solver::model_value(Lit l) const {
  return model_value(l.var()) != l.negated();
}

void Solver::set_conflict_budget(std::int64_t max_conflicts) {
  conflict_budget_ =
      max_conflicts < 0 ? -1
                        : static_cast<std::int64_t>(stats_.conflicts) + max_conflicts;
}

void Solver::set_propagation_budget(std::int64_t max_propagations) {
  propagation_budget_ =
      max_propagations < 0
          ? -1
          : static_cast<std::int64_t>(stats_.propagations) + max_propagations;
}

void Solver::set_decision_limit(Var limit) {
  decision_limit_ = limit < 0 ? std::numeric_limits<Var>::max() : limit;
  // Refill the decision heap with exactly the unassigned variables below the
  // new limit; backtrack and new_var keep it that way.
  for (const Var v : heap_) heap_pos_[v] = -1;
  heap_.clear();
  for (Var v = 0; v < num_vars() && v < decision_limit_; ++v) {
    if (assigns_[v] == LBool::Undef) heap_insert(v);
  }
}

void Solver::set_time_budget(double seconds) {
  // Force a clock check at the next conflict: a reused solver re-armed with
  // a shorter deadline must not coast on a countdown left over from the
  // previous budget (up to 256 conflicts of over-run otherwise).
  deadline_check_countdown_ = 0;
  const auto now = std::chrono::steady_clock::now();
  // A deadline past what the clock can represent would overflow into the
  // past; such a budget means no deadline.
  const double headroom_s = std::chrono::duration<double>(
      std::chrono::steady_clock::time_point::max() - now).count();
  time_budget_s_ = seconds < headroom_s ? seconds : -1.0;
  if (time_budget_s_ >= 0) {
    deadline_ = now +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
  }
}

// ---- arena GC ---------------------------------------------------------------

void Solver::gc_arena() {
  stats_.arena_gc_bytes += arena_.wasted_bytes();
  ClauseArena to;
  to.reserve_words(arena_.used_words() - arena_.wasted_words());
  // Relocation preserves the order of every watch list and of
  // clauses_/learnts_, so the search trajectory is byte-for-byte unchanged;
  // walking watch lists first lays co-watched clauses adjacently.
  for (auto& ws : bin_watches_) {
    for (BinWatcher& w : ws) w.clause = arena_.relocate(w.clause, to);
  }
  for (auto& ws : watches_) {
    for (Watcher& w : ws) w.clause = arena_.relocate(w.clause, to);
  }
  for (const Lit& l : trail_) {
    CRef& r = reason_[l.var()];
    if (r != k_cref_undef) r = arena_.relocate(r, to);
  }
  for (CRef& c : clauses_) c = arena_.relocate(c, to);
  for (CRef& c : learnts_) c = arena_.relocate(c, to);
  arena_ = std::move(to);
}

// ---- activity heap ---------------------------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_percolate_up(heap_pos_[v]);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_percolate_down(0);
  }
  return top;
}

void Solver::heap_percolate_up(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[static_cast<std::size_t>(parent)]] >= activity_[v]) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heap_pos_[heap_[static_cast<std::size_t>(i)]] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[v] = i;
}

void Solver::heap_percolate_down(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[heap_[static_cast<std::size_t>(child + 1)]] >
            activity_[heap_[static_cast<std::size_t>(child)]]) {
      ++child;
    }
    if (activity_[heap_[static_cast<std::size_t>(child)]] <= activity_[v]) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heap_pos_[heap_[static_cast<std::size_t>(i)]] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[v] = i;
}

}  // namespace cl::sat
