#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "cnf/hashed_encoder.hpp"
#include "cnf_test_util.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "util/rng.hpp"

namespace cl::sat {
namespace {

TEST(Solver, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(pos(a));
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(pos(a));
  s.add_unit(neg(a));
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, EmptyClauseIsUnsat) {
  Solver s;
  (void)s.new_var();
  EXPECT_FALSE(s.add_clause({}));
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, TautologyIgnored) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, DuplicateLiteralsCollapsed) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a), pos(a), pos(a)});
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Solver, UnknownVariableRejected) {
  Solver s;
  EXPECT_THROW(s.add_unit(pos(3)), std::invalid_argument);
}

TEST(Solver, AddClauseFromSpanSimplifiesAtRoot) {
  // Every entry point shares one simplification: a root-true clause is
  // skipped, root-false literals are dropped before the clause is stored,
  // one survivor becomes a root assignment and none refutes the database.
  for (int form = 0; form < 3; ++form) {
    Solver s;
    const Var t = s.new_var();
    const Var f = s.new_var();
    const Var a = s.new_var();
    const Var b = s.new_var();
    ASSERT_TRUE(s.add_unit(pos(t)));
    ASSERT_TRUE(s.add_unit(neg(f)));
    const auto add = [&](Lit x, Lit y, Lit z) {
      if (form == 0) {
        const std::vector<Lit> lits = {x, y, z};
        return s.add_clause(std::span<const Lit>(lits));
      }
      if (form == 1) return s.add_clause({x, y, z});
      return s.add_ternary(x, y, z);
    };
    EXPECT_TRUE(add(pos(a), pos(t), pos(b))) << "form " << form;
    EXPECT_EQ(s.num_clauses(), 0u) << "form " << form;
    EXPECT_EQ(s.arena_bytes(), 0u) << "form " << form;

    EXPECT_TRUE(add(pos(b), pos(f), pos(a))) << "form " << form;
    EXPECT_EQ(s.num_clauses(), 1u) << "form " << form;
    // Header plus two literals: f was dropped.
    EXPECT_EQ(s.arena_bytes(), (ClauseArena::k_header_words + 2) * 4)
        << "form " << form;
    ASSERT_EQ(s.solve({neg(a)}), Result::Sat) << "form " << form;
    EXPECT_TRUE(s.model_value(b)) << "form " << form;

    EXPECT_TRUE(add(neg(t), pos(a), pos(f))) << "form " << form;
    EXPECT_EQ(s.num_clauses(), 1u) << "form " << form;
    ASSERT_EQ(s.solve(), Result::Sat) << "form " << form;
    EXPECT_TRUE(s.model_value(a)) << "form " << form;

    EXPECT_FALSE(add(pos(f), neg(a), neg(t))) << "form " << form;
    EXPECT_EQ(s.solve(), Result::Unsat) << "form " << form;
  }
}

TEST(Solver, ImplicationChainPropagates) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 50; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i) {
    s.add_binary(neg(v[static_cast<std::size_t>(i)]),
                 pos(v[static_cast<std::size_t>(i + 1)]));
  }
  s.add_unit(pos(v[0]));
  EXPECT_EQ(s.solve(), Result::Sat);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(s.model_value(v[static_cast<std::size_t>(i)]));
}

TEST(Solver, RootValueReadsOnlyLevelZeroAssignments) {
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  const Var a = s.new_var();
  EXPECT_EQ(s.root_value(pos(x)), LBool::Undef);
  EXPECT_EQ(s.root_value(neg(x)), LBool::Undef);

  s.add_unit(pos(x));
  EXPECT_EQ(s.root_value(pos(x)), LBool::True);
  EXPECT_EQ(s.root_value(neg(x)), LBool::False);

  // Added before the unit that triggers it, so y is implied through the
  // binary clause's watches rather than simplified on entry.
  s.add_binary(neg(a), neg(y));
  EXPECT_EQ(s.root_value(neg(y)), LBool::Undef);
  s.add_unit(pos(a));
  EXPECT_EQ(s.root_value(pos(y)), LBool::False);
  EXPECT_EQ(s.root_value(neg(y)), LBool::True);

  // c and d are left to the search: assigned in the model, free at the root.
  const Var c = s.new_var();
  const Var d = s.new_var();
  s.add_binary(pos(c), pos(d));
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_GT(s.num_decisions(), 0u);
  EXPECT_TRUE(s.model_value(c) || s.model_value(d));
  EXPECT_EQ(s.root_value(pos(c)), LBool::Undef);
  EXPECT_EQ(s.root_value(pos(d)), LBool::Undef);
  EXPECT_EQ(s.root_value(pos(x)), LBool::True);
  EXPECT_EQ(s.root_value(neg(y)), LBool::True);
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): 3 pigeons, 2 holes. p[i][j] = pigeon i in hole j.
  Solver s;
  Var p[3][2];
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < 3; ++i) s.add_binary(pos(p[i][0]), pos(p[i][1]));
  for (int j = 0; j < 2; ++j) {
    for (int i1 = 0; i1 < 3; ++i1) {
      for (int i2 = i1 + 1; i2 < 3; ++i2) {
        s.add_binary(neg(p[i1][j]), neg(p[i2][j]));
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, PigeonHole5Into4IsUnsat) {
  Solver s;
  constexpr int n = 5;
  std::vector<std::vector<Var>> p(n, std::vector<Var>(n - 1));
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < n; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < n - 1; ++j) clause.push_back(pos(p[i][j]));
    s.add_clause(clause);
  }
  for (int j = 0; j < n - 1; ++j) {
    for (int i1 = 0; i1 < n; ++i1) {
      for (int i2 = i1 + 1; i2 < n; ++i2) {
        s.add_binary(neg(p[i1][j]), neg(p[i2][j]));
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, XorChainSatWithOddParity) {
  // x1 ^ x2 ^ ... ^ x8 = 1 via ternary xor encodings and aux vars.
  Solver s;
  std::vector<Var> x;
  for (int i = 0; i < 8; ++i) x.push_back(s.new_var());
  Var acc = x[0];
  for (int i = 1; i < 8; ++i) {
    const Var y = s.new_var();
    // y = acc xor x[i]
    s.add_ternary(neg(y), pos(acc), pos(x[static_cast<std::size_t>(i)]));
    s.add_ternary(neg(y), neg(acc), neg(x[static_cast<std::size_t>(i)]));
    s.add_ternary(pos(y), neg(acc), pos(x[static_cast<std::size_t>(i)]));
    s.add_ternary(pos(y), pos(acc), neg(x[static_cast<std::size_t>(i)]));
    acc = y;
  }
  s.add_unit(pos(acc));
  ASSERT_EQ(s.solve(), Result::Sat);
  int parity = 0;
  for (Var v : x) parity ^= s.model_value(v) ? 1 : 0;
  EXPECT_EQ(parity, 1);
}

TEST(Solver, AssumptionsSatAndUnsat) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(neg(a), pos(b));  // a -> b
  EXPECT_EQ(s.solve({pos(a)}), Result::Sat);
  EXPECT_TRUE(s.model_value(b));
  EXPECT_EQ(s.solve({pos(a), neg(b)}), Result::Unsat);
  // Solver is reusable after an assumption failure.
  EXPECT_EQ(s.solve({neg(b)}), Result::Sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, IncrementalClauseAddition) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  EXPECT_EQ(s.solve(), Result::Sat);
  s.add_binary(pos(a), pos(b));
  EXPECT_EQ(s.solve({neg(a)}), Result::Sat);
  EXPECT_TRUE(s.model_value(b));
  s.add_unit(neg(b));
  EXPECT_EQ(s.solve({neg(a)}), Result::Unsat);
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  // A hard instance (PHP 7/6) with a tiny conflict budget.
  Solver s;
  constexpr int n = 7;
  std::vector<std::vector<Var>> p(n, std::vector<Var>(n - 1));
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < n; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < n - 1; ++j) clause.push_back(pos(p[i][j]));
    s.add_clause(clause);
  }
  for (int j = 0; j < n - 1; ++j) {
    for (int i1 = 0; i1 < n; ++i1) {
      for (int i2 = i1 + 1; i2 < n; ++i2) {
        s.add_binary(neg(p[i1][j]), neg(p[i2][j]));
      }
    }
  }
  s.set_conflict_budget(5);
  EXPECT_EQ(s.solve(), Result::Unknown);
  s.set_conflict_budget(-1);
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, RandomInstancesAgreeWithBruteForce) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const int nv = 6;
    const int nc = 3 + static_cast<int>(rng.next_below(22));
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < nc; ++c) {
      std::vector<int> clause;
      const int width = 1 + static_cast<int>(rng.next_below(3));
      for (int l = 0; l < width; ++l) {
        const int var = 1 + static_cast<int>(rng.next_below(nv));
        clause.push_back(rng.chance(1, 2) ? var : -var);
      }
      clauses.push_back(clause);
    }
    // Brute force.
    bool brute_sat = false;
    for (std::uint32_t m = 0; m < (1u << nv) && !brute_sat; ++m) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (int l : clause) {
          const bool val = (m >> (std::abs(l) - 1)) & 1u;
          if ((l > 0) == val) {
            any = true;
            break;
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    // Solver.
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
    for (const auto& clause : clauses) {
      std::vector<Lit> lits;
      for (int l : clause) {
        lits.push_back(Lit(vars[static_cast<std::size_t>(std::abs(l) - 1)], l < 0));
      }
      s.add_clause(lits);
    }
    const Result r = s.solve();
    EXPECT_EQ(r == Result::Sat, brute_sat) << "trial " << trial;
    if (r == Result::Sat) {
      // Verify the model satisfies every clause.
      for (const auto& clause : clauses) {
        bool any = false;
        for (int l : clause) {
          if (s.model_value(vars[static_cast<std::size_t>(std::abs(l) - 1)]) == (l > 0)) {
            any = true;
            break;
          }
        }
        EXPECT_TRUE(any) << "model violates clause in trial " << trial;
      }
    }
  }
}

TEST(Solver, StatisticsAdvance) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(pos(a), pos(b));
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_GE(s.num_decisions(), 1u);
}

TEST(Solver, ManyVariablesLargeRandomSat) {
  // A satisfiable planted instance: plant an assignment, generate clauses
  // containing at least one satisfied literal.
  util::Rng rng(555);
  Solver s;
  const int nv = 300;
  std::vector<Var> vars;
  std::vector<bool> planted;
  for (int i = 0; i < nv; ++i) {
    vars.push_back(s.new_var());
    planted.push_back(rng.chance(1, 2));
  }
  for (int c = 0; c < 1200; ++c) {
    std::vector<Lit> clause;
    const std::size_t sat_pos = rng.next_below(3);
    for (std::size_t l = 0; l < 3; ++l) {
      const std::size_t v = static_cast<std::size_t>(rng.next_below(nv));
      bool negate = rng.chance(1, 2);
      if (l == sat_pos) negate = !planted[v];  // force satisfied literal
      clause.push_back(Lit(vars[v], negate));
    }
    s.add_clause(clause);
  }
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, ReusedSolverHonoursFreshlyShortenedTimeBudget) {
  // Regression: set_time_budget() must reset the deadline-check countdown —
  // a reused solver re-armed with a shorter deadline used to coast for up to
  // 256 conflicts on the previous budget's countdown.
  util::Rng rng(99);
  Solver s;
  const int nv = 120;
  std::vector<Var> vars;
  std::vector<bool> planted;
  for (int i = 0; i < nv; ++i) {
    vars.push_back(s.new_var());
    planted.push_back(rng.chance(1, 2));
  }
  for (int c = 0; c < 4 * nv; ++c) {
    std::vector<Lit> clause;
    const std::size_t sat_pos = rng.next_below(3);
    for (std::size_t l = 0; l < 3; ++l) {
      const std::size_t v = static_cast<std::size_t>(rng.next_below(nv));
      bool negate = rng.chance(1, 2);
      if (l == sat_pos) negate = !planted[v];
      clause.push_back(Lit(vars[v], negate));
    }
    s.add_clause(clause);
  }
  s.set_time_budget(60.0);
  ASSERT_EQ(s.solve(), Result::Sat);  // consumes part of the 256-countdown
  // Re-arm with an already-expired deadline: the very next solve must see it.
  s.set_time_budget(0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(s.solve(), Result::Unknown);
  // Disabling the budget restores normal solving on the same instance.
  s.set_time_budget(-1.0);
  EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, BudgetBeyondTheClockMeansNoDeadline) {
  // A deadline the steady clock cannot represent used to overflow into the
  // past, so PHP(8) (thousands of conflicts) came back Unknown at once.
  // Such a budget means no deadline.
  for (const double seconds : {1e11, 1e300}) {
    Solver s;
    test_util::add_pigeon_hole(s, 8);
    s.set_time_budget(seconds);
    EXPECT_EQ(s.solve(), Result::Unsat) << seconds;
  }
}

TEST(Solver, IncrementalAssumptionSolvesAgreeWithBruteForce) {
  // Regression for the assumption-prefix backtracking clamp: randomized
  // incremental solves under assumptions, cross-checked against brute force
  // over the full truth table, with clauses added between solves.
  util::Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    const int nv = 7;
    std::vector<std::vector<int>> clauses;
    const int nc = 6 + static_cast<int>(rng.next_below(20));
    for (int c = 0; c < nc; ++c) {
      std::vector<int> clause;
      const int width = 2 + static_cast<int>(rng.next_below(2));
      for (int l = 0; l < width; ++l) {
        const int var = 1 + static_cast<int>(rng.next_below(nv));
        clause.push_back(rng.chance(1, 2) ? var : -var);
      }
      clauses.push_back(clause);
    }
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
    const auto add = [&](const std::vector<int>& clause) {
      std::vector<Lit> lits;
      for (int l : clause) {
        lits.push_back(Lit(vars[static_cast<std::size_t>(std::abs(l) - 1)], l < 0));
      }
      s.add_clause(lits);
    };
    for (const auto& clause : clauses) add(clause);

    // 8 solve rounds per trial; a random extra clause lands between rounds.
    for (int round = 0; round < 8; ++round) {
      std::vector<int> assumptions;
      const int na = 1 + static_cast<int>(rng.next_below(4));
      for (int a = 0; a < na; ++a) {
        const int var = 1 + static_cast<int>(rng.next_below(nv));
        assumptions.push_back(rng.chance(1, 2) ? var : -var);
      }
      bool brute_sat = false;
      for (std::uint32_t m = 0; m < (1u << nv) && !brute_sat; ++m) {
        const auto holds = [&](int l) {
          const bool val = (m >> (std::abs(l) - 1)) & 1u;
          return (l > 0) == val;
        };
        bool all = true;
        for (int l : assumptions) all = all && holds(l);
        for (const auto& clause : clauses) {
          if (!all) break;
          bool any = false;
          for (int l : clause) any = any || holds(l);
          all = all && any;
        }
        brute_sat = all;
      }
      std::vector<Lit> assumption_lits;
      for (int l : assumptions) {
        assumption_lits.push_back(
            Lit(vars[static_cast<std::size_t>(std::abs(l) - 1)], l < 0));
      }
      const Result r = s.solve(assumption_lits);
      ASSERT_EQ(r == Result::Sat, brute_sat)
          << "trial " << trial << " round " << round;
      if (r == Result::Sat) {
        // Model respects assumptions and clauses.
        for (const Lit& a : assumption_lits) EXPECT_TRUE(s.model_value(a));
        for (const auto& clause : clauses) {
          bool any = false;
          for (int l : clause) {
            any = any ||
                  s.model_value(vars[static_cast<std::size_t>(std::abs(l) - 1)]) ==
                      (l > 0);
          }
          EXPECT_TRUE(any);
        }
      }
      std::vector<int> extra;
      const int width = 2 + static_cast<int>(rng.next_below(2));
      for (int l = 0; l < width; ++l) {
        const int var = 1 + static_cast<int>(rng.next_below(nv));
        extra.push_back(rng.chance(1, 2) ? var : -var);
      }
      clauses.push_back(extra);
      add(extra);
    }
  }
}

TEST(Solver, Kc2StyleKeyEnumerationUnderAssumptions) {
  // The KC2 attack pattern: repeated solve({assumption}) with a blocking
  // clause over the "key" variables added after every model. The number of
  // distinct key projections found must match brute-force model counting.
  util::Rng rng(777);
  const int nv = 10;      // vars 0..5 are "key" bits, the rest internal
  const int key_bits = 6;
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
  std::vector<std::vector<int>> clauses;
  for (int c = 0; c < 18; ++c) {
    std::vector<int> clause;
    for (int l = 0; l < 3; ++l) {
      const int var = 1 + static_cast<int>(rng.next_below(nv));
      clause.push_back(rng.chance(1, 2) ? var : -var);
    }
    clauses.push_back(clause);
    std::vector<Lit> lits;
    for (int l : clause) {
      lits.push_back(Lit(vars[static_cast<std::size_t>(std::abs(l) - 1)], l < 0));
    }
    s.add_clause(lits);
  }
  const Lit assumption = pos(vars[static_cast<std::size_t>(nv - 1)]);

  // Brute force: key projections that extend to a model with the assumption.
  std::set<std::uint32_t> expected;
  for (std::uint32_t m = 0; m < (1u << nv); ++m) {
    if (((m >> (nv - 1)) & 1u) == 0) continue;  // assumption
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (int l : clause) {
        const bool val = (m >> (std::abs(l) - 1)) & 1u;
        any = any || ((l > 0) == val);
      }
      all = all && any;
    }
    if (all) expected.insert(m & ((1u << key_bits) - 1));
  }

  std::set<std::uint32_t> found;
  for (;;) {
    const Result r = s.solve({assumption});
    if (r != Result::Sat) {
      EXPECT_EQ(r, Result::Unsat);
      break;
    }
    std::uint32_t key = 0;
    for (int b = 0; b < key_bits; ++b) {
      if (s.model_value(vars[static_cast<std::size_t>(b)])) key |= 1u << b;
    }
    EXPECT_TRUE(found.insert(key).second) << "duplicate key " << key;
    // Block this projection (legal at level 0, i.e. outside solve()).
    std::vector<Lit> block;
    for (int b = 0; b < key_bits; ++b) {
      block.push_back(Lit(vars[static_cast<std::size_t>(b)], (key >> b) & 1u));
    }
    s.add_clause(block);
    ASSERT_LE(found.size(), std::size_t{1} << key_bits);
  }
  EXPECT_EQ(found, expected);
}

using test_util::add_pigeon_hole;
using test_util::brute_force_sat;
using test_util::load_cnf;
using test_util::random_cnf;

TEST(Solver, StatsStructTracksSearchWork) {
  Solver s;
  add_pigeon_hole(s, 6);
  EXPECT_EQ(s.solve(), Result::Unsat);
  const Solver::Stats& st = s.stats();
  EXPECT_GT(st.conflicts, 0u);
  EXPECT_GT(st.decisions, 0u);
  EXPECT_GT(st.propagations, 0u);
  EXPECT_GT(st.learned, 0u);
  // The legacy accessors are views of the same struct.
  EXPECT_EQ(st.conflicts, s.num_conflicts());
  EXPECT_EQ(st.decisions, s.num_decisions());
  EXPECT_EQ(st.propagations, s.num_propagations());
  EXPECT_EQ(st.learned, s.num_learned());
}

TEST(Solver, ReductionDeletesLearntsButProtectsGlue) {
  // A tiny learnt-DB cap forces many reduce_db sweeps on a hard instance.
  // The sweep must delete clauses (learnts_deleted advances) while the glue
  // policy keeps every LBD<=2 clause (glue_protected counts the saves).
  Solver s;
  s.set_max_learnts(12);  // small enough that glue clauses fill the quota
  add_pigeon_hole(s, 7);
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_GT(s.stats().learnts_deleted, 0u);
  EXPECT_GT(s.stats().glue_protected, 0u);
}

TEST(Solver, ClauseMinimizationShrinksLearnts) {
  Solver s;
  add_pigeon_hole(s, 7);
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_GT(s.stats().minimized_literals, 0u);
}

TEST(Solver, LubyRestartsHappen) {
  Solver s;
  add_pigeon_hole(s, 7);
  EXPECT_EQ(s.solve(), Result::Unsat);
  EXPECT_GT(s.stats().restarts, 0u);
}

TEST(Solver, DefaultSearchTrajectoryIsPinned) {
  // The search is deterministic: phase saving, best-phase restore, Luby
  // restarts and learnt-DB reduction walk the same tree on every build and
  // host. Any change to the heuristics moves these counters (the
  // BM_SolverHardUnsatPigeonHole/8 row of BENCH_micro_perf.json pins the
  // PHP(8,7) values too).
  struct Pin {
    int pigeons;
    std::size_t max_learnts;  // 0 = default cap
    std::uint64_t conflicts, decisions, restarts, learnts_deleted,
        minimized_literals;
  };
  for (const Pin& pin : {Pin{8, 0, 3897, 4780, 29, 0, 13271},
                         Pin{7, 12, 1457, 1919, 13, 1321, 1894}}) {
    Solver s;
    if (pin.max_learnts != 0) s.set_max_learnts(pin.max_learnts);
    add_pigeon_hole(s, pin.pigeons);
    EXPECT_EQ(s.solve(), Result::Unsat) << pin.pigeons;
    const Solver::Stats& st = s.stats();
    EXPECT_EQ(st.conflicts, pin.conflicts) << pin.pigeons;
    EXPECT_EQ(st.decisions, pin.decisions) << pin.pigeons;
    EXPECT_EQ(st.restarts, pin.restarts) << pin.pigeons;
    EXPECT_EQ(st.learnts_deleted, pin.learnts_deleted) << pin.pigeons;
    EXPECT_EQ(st.minimized_literals, pin.minimized_literals) << pin.pigeons;
  }
}

TEST(Solver, GcStressMatchesBaseline) {
  // Identical search with GC forced at every boundary vs. never: relocation
  // must be behavior-neutral, so verdicts AND conflict counts agree.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 97);
    const auto cnf = random_cnf(rng, 16, 70);

    Solver never;
    never.set_gc_frac(2.0);  // > 1: never due
    std::vector<Var> nvars;
    for (int i = 0; i < 16; ++i) nvars.push_back(never.new_var());
    load_cnf(never, cnf, nvars);
    const Result r1 = never.solve();

    Solver always;
    always.set_gc_frac(0.0);
    std::vector<Var> avars;
    for (int i = 0; i < 16; ++i) avars.push_back(always.new_var());
    load_cnf(always, cnf, avars);
    const Result r2 = always.solve();

    EXPECT_EQ(r1, r2) << "seed " << seed;
    EXPECT_EQ(never.stats().conflicts, always.stats().conflicts)
        << "seed " << seed;
    EXPECT_EQ(never.stats().decisions, always.stats().decisions)
        << "seed " << seed;
  }
}

TEST(Solver, InterruptFlagStopsSolve) {
  Solver s;
  add_pigeon_hole(s, 8);  // hard enough that it cannot finish instantly
  std::atomic<bool> stop{true};
  s.set_interrupt(&stop);
  EXPECT_EQ(s.solve(), Result::Unknown);  // pre-fired flag: no search at all
  // Clearing the flag resumes normal solving on the same instance.
  stop.store(false);
  s.set_conflict_budget(50);
  EXPECT_EQ(s.solve(), Result::Unknown);  // still hard: budget trips instead
  s.set_conflict_budget(-1);
  s.set_interrupt(nullptr);
  Solver easy;
  const Var a = easy.new_var();
  easy.add_unit(pos(a));
  EXPECT_EQ(easy.solve(), Result::Sat);
}

TEST(Solver, InterruptFiredFromAnotherThread) {
  Solver s;
  add_pigeon_hole(s, 9);  // far beyond what solves in the sleep window
  std::atomic<bool> stop{false};
  s.set_interrupt(&stop);
  std::thread killer([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true);
  });
  EXPECT_EQ(s.solve(), Result::Unknown);
  killer.join();
}

TEST(Solver, DuplicatedAssumptionsPushLevelsPastVarCount) {
  // Regression: an assumption literal that is already true when placed gets
  // a dummy decision level, so heavy duplication pushes decision levels
  // past num_vars. The exact-LBD scratch array must grow on demand instead
  // of indexing out of bounds (caught under ASan before the fix).
  util::Rng rng(1212);
  for (int trial = 0; trial < 20; ++trial) {
    const int nv = 6;
    const auto clauses = random_cnf(rng, nv, 14 + static_cast<int>(rng.next_below(12)));
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
    load_cnf(s, clauses, vars);
    std::vector<Lit> assumptions(static_cast<std::size_t>(4 * nv), pos(vars[0]));
    const bool expected = brute_force_sat(clauses, nv, {1});
    EXPECT_EQ(s.solve(assumptions) == Result::Sat, expected) << "trial " << trial;
  }
}

TEST(Solver, UnsatAssumptionSubsetExcludesImpliedUnits) {
  // After the clamp fix, literals implied inside the assumption prefix carry
  // a real reason clause; unsat_assumptions() must report only genuine
  // assumption decisions.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_binary(neg(a), pos(b));   // a -> b
  s.add_binary(neg(b), pos(c));   // b -> c
  EXPECT_EQ(s.solve({pos(a), neg(c)}), Result::Unsat);
  for (const Lit& l : s.unsat_assumptions()) {
    EXPECT_TRUE(l == pos(a) || l == neg(c) || l == ~pos(a) || l == ~neg(c));
  }
  EXPECT_FALSE(s.unsat_assumptions().empty());
  // Still reusable.
  EXPECT_EQ(s.solve({pos(a)}), Result::Sat);
  EXPECT_TRUE(s.model_value(c));
}

/// Random combinational netlist over 6 inputs, 4 key inputs and both
/// constants: `gates` gates of every combinational type, 6 outputs.
netlist::Netlist random_circuit(util::Rng& rng, std::size_t gates) {
  using netlist::GateType;
  netlist::Netlist nl("rand");
  std::vector<netlist::SignalId> sigs;
  for (int i = 0; i < 6; ++i) {
    sigs.push_back(nl.add_input("pi" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    sigs.push_back(nl.add_key_input("k" + std::to_string(i)));
  }
  sigs.push_back(nl.add_const(false, "c0"));
  sigs.push_back(nl.add_const(true, "c1"));
  constexpr GateType kinds[] = {GateType::Buf, GateType::Not, GateType::And,
                                GateType::Nand, GateType::Or, GateType::Nor,
                                GateType::Xor, GateType::Xnor, GateType::Mux};
  const auto pick = [&] { return sigs[rng.next_below(sigs.size())]; };
  for (std::size_t g = 0; g < gates; ++g) {
    const GateType t = kinds[rng.next_below(std::size(kinds))];
    std::vector<netlist::SignalId> fanins;
    if (t == GateType::Buf || t == GateType::Not) {
      fanins = {pick()};
    } else if (t == GateType::Mux) {
      fanins = {pick(), pick(), pick()};
    } else {
      const std::size_t arity = 2 + rng.next_below(3);  // 2..4
      for (std::size_t f = 0; f < arity; ++f) fanins.push_back(pick());
    }
    sigs.push_back(nl.add_gate(t, fanins, nl.fresh_name("g")));
  }
  for (int o = 0; o < 6; ++o) nl.add_output(pick());
  nl.check();
  return nl;
}

TEST(Solver, DecisionLimitOnCircuitSourcesKeepsVerdictsAndModels) {
  // Once a circuit's sources are set, propagation decides every gate of its
  // cnf::HashedEncoder encoding, so a solver that branches only on the
  // sources reaches the default solver's verdict, and its Sat model
  // satisfies every clause: a third solver whose every variable is fixed to
  // that model by a unit clause stays Sat.
  util::Rng rng(0xd1ce);
  std::size_t sat = 0, unsat = 0;
  for (std::size_t trial = 0; trial < 80; ++trial) {
    const netlist::Netlist nl = random_circuit(rng, 20 + trial);
    const sim::CompiledNetlist prog(nl);
    std::vector<bool> response(prog.outputs().size());
    for (std::size_t o = 0; o < response.size(); ++o) {
      response[o] = rng.next_below(2) != 0;
    }
    const auto encode = [&](Solver& s, bool limit) {
      cnf::HashedEncoder enc(s);
      std::vector<Lit> inputs(prog.inputs().size());
      std::vector<Lit> keys(prog.key_inputs().size());
      for (Lit& l : inputs) l = enc.fresh();
      for (Lit& l : keys) l = enc.fresh();
      if (limit) s.set_decision_limit(s.num_vars());
      const std::vector<Lit> lits = enc.encode_frame(prog, inputs, keys, {});
      for (std::size_t o = 0; o < response.size(); ++o) {
        const Lit y = lits[prog.outputs()[o]];
        s.add_unit(response[o] ? y : ~y);
      }
    };
    Solver plain;
    encode(plain, false);
    Solver limited;
    encode(limited, true);
    const Result r = limited.solve();
    ASSERT_EQ(r, plain.solve()) << "trial " << trial;
    if (r != Result::Sat) {
      ++unsat;
      continue;
    }
    ++sat;
    Solver check;
    encode(check, false);
    ASSERT_EQ(check.num_vars(), limited.num_vars());
    for (Var v = 0; v < check.num_vars(); ++v) {
      check.add_unit(limited.model_value(v) ? pos(v) : neg(v));
    }
    EXPECT_EQ(check.solve(), Result::Sat) << "trial " << trial;
  }
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
}

}  // namespace
}  // namespace cl::sat
