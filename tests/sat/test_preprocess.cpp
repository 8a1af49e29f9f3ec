// Preprocessing (BVE + model reconstruction), inprocessing, and arena-GC
// coverage: every verdict is cross-checked against an unpreprocessed solver
// or a brute-force oracle, and every reconstructed model is checked against
// the ORIGINAL clause set (not the reduced one the solver searched).
#include "sat/preprocess.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cnf_test_util.hpp"
#include "sat/portfolio.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace cl::sat {
namespace {

/// Does the solver's model satisfy every clause of a signed-int CNF?
bool model_satisfies(const Solver& s, const std::vector<std::vector<int>>& cnf,
                     const std::vector<Var>& vars) {
  for (const auto& clause : cnf) {
    bool any = false;
    for (int l : clause) {
      const Var v = vars[static_cast<std::size_t>(std::abs(l) - 1)];
      if (s.model_value(v) == (l > 0)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

TEST(Preprocess, PureLiteralEliminated) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  // `a` occurs only positively; `c` occurs only negatively.
  s.add_clause({pos(a), pos(b)});
  s.add_clause({pos(a), neg(b), neg(c)});
  EXPECT_TRUE(s.preprocess());
  EXPECT_GE(s.stats().vars_eliminated, 2u);
  EXPECT_TRUE(s.eliminated(a));
  ASSERT_EQ(s.solve(), Result::Sat);
  // Reconstructed values must satisfy the original clauses.
  EXPECT_TRUE(s.model_value(a) || s.model_value(b));
  EXPECT_TRUE(s.model_value(a) || !s.model_value(b) || !s.model_value(c));
}

TEST(Preprocess, FrozenVariablesSurvive) {
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < 8; ++i) vars.push_back(s.new_var());
  util::Rng rng(3);
  const auto cnf = test_util::random_cnf(rng, 8, 20);
  test_util::load_cnf(s, cnf, vars);
  for (const Var v : vars) s.set_frozen(v, true);
  EXPECT_TRUE(s.preprocess());
  EXPECT_EQ(s.stats().vars_eliminated, 0u);
  for (const Var v : vars) EXPECT_FALSE(s.eliminated(v));
}

TEST(Preprocess, RandomizedBveMatchesUnpreprocessed) {
  // Same CNF into a plain solver and a preprocessed one: identical verdict,
  // and the preprocessed solver's reconstructed model satisfies every
  // original clause. Densities straddle the 3-SAT phase transition so both
  // verdicts appear.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);
    const int nv = 16;
    const int nc = 40 + static_cast<int>(seed % 50);
    const auto cnf = test_util::random_cnf(rng, nv, nc);

    Solver plain;
    std::vector<Var> pv;
    for (int i = 0; i < nv; ++i) pv.push_back(plain.new_var());
    test_util::load_cnf(plain, cnf, pv);
    const Result expect = plain.solve();

    Solver pre;
    std::vector<Var> qv;
    for (int i = 0; i < nv; ++i) qv.push_back(pre.new_var());
    test_util::load_cnf(pre, cnf, qv);
    pre.preprocess();
    const Result got = pre.solve();
    EXPECT_EQ(got, expect) << "seed " << seed;
    if (got == Result::Sat) {
      EXPECT_TRUE(model_satisfies(pre, cnf, qv)) << "seed " << seed;
    }
  }
}

TEST(Preprocess, RevivalViaAddClause) {
  // Eliminate, then mention the variable again: the solver must revive it
  // (restore its removed clauses) and keep the database equivalent.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed * 77);
    const int nv = 12;
    auto cnf = test_util::random_cnf(rng, nv, 24);

    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
    test_util::load_cnf(s, cnf, vars);
    s.preprocess();
    if (s.remapper().eliminated_count() == 0) continue;
    // Add a fresh clause over every variable, eliminated or not.
    std::vector<int> extra;
    for (int i = 1; i <= nv; ++i) {
      if (rng.chance(1, 3)) extra.push_back(rng.chance(1, 2) ? i : -i);
    }
    if (extra.empty()) extra.push_back(1);
    cnf.push_back(extra);
    test_util::load_cnf(s, {extra}, vars);
    for (int l : extra) {
      EXPECT_FALSE(s.eliminated(vars[static_cast<std::size_t>(std::abs(l) - 1)]))
          << "seed " << seed;
    }
    const bool expect = test_util::brute_force_sat(cnf, nv);
    const Result got = s.solve();
    EXPECT_EQ(got, expect ? Result::Sat : Result::Unsat) << "seed " << seed;
    if (got == Result::Sat) {
      EXPECT_TRUE(model_satisfies(s, cnf, vars)) << "seed " << seed;
    }
  }
}

TEST(Preprocess, NestedRevivalKeepsThePendingClause) {
  // x is eliminated first, so its saved clauses mention y, which BVE
  // eliminates next. A new clause over x alone revives x, and re-adding x's
  // clauses revives y in turn, all while the new clause is still pending.
  // The database must end up equivalent to the original problem plus that
  // clause, under every assignment of the frozen variables.
  const std::vector<std::vector<int>> original = {
      {1, 2, 3}, {-1, 2, 4}, {-2, 5}, {-2, -3, -5}};
  const std::vector<int> pending = {5, -1, 3};  // (c | ~x | a), unsorted
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < 5; ++i) vars.push_back(s.new_var());
  const Var x = vars[0];
  const Var y = vars[1];
  for (int i = 2; i < 5; ++i) s.set_frozen(vars[static_cast<std::size_t>(i)], true);
  test_util::load_cnf(s, original, vars);
  ASSERT_TRUE(s.preprocess());
  ASSERT_TRUE(s.eliminated(x));
  ASSERT_TRUE(s.eliminated(y));

  test_util::load_cnf(s, {pending}, vars);
  EXPECT_FALSE(s.eliminated(x));
  EXPECT_FALSE(s.eliminated(y)) << "y was not revived through x's clauses";

  std::vector<std::vector<int>> cnf = original;
  cnf.push_back(pending);
  int unsat = 0;
  for (int m = 0; m < 8; ++m) {
    std::vector<int> assumed;
    std::vector<Lit> assumptions;
    for (int i = 0; i < 3; ++i) {
      const int dimacs = 3 + i;
      const bool value = (m >> i) & 1;
      assumed.push_back(value ? dimacs : -dimacs);
      assumptions.push_back(Lit(vars[static_cast<std::size_t>(dimacs - 1)], !value));
    }
    const bool expect = test_util::brute_force_sat(cnf, 5, assumed);
    const Result got = s.solve(assumptions);
    EXPECT_EQ(got, expect ? Result::Sat : Result::Unsat) << "assignment " << m;
    if (got == Result::Sat) {
      EXPECT_TRUE(model_satisfies(s, cnf, vars)) << "assignment " << m;
    }
    unsat += expect ? 0 : 1;
  }
  EXPECT_GT(unsat, 0);  // the pending clause decides some assignments
}

TEST(Preprocess, IncrementalAssumptionSessions) {
  // KC2-style usage: preprocess once with the assumption variables frozen,
  // then run many solve-under-assumptions rounds interleaved with blocking
  // clauses, cross-checking every verdict against brute force.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed * 1234567);
    const int nv = 14;
    const int n_assume = 4;  // variables 1..4 play the key-input role
    auto cnf = test_util::random_cnf(rng, nv, 30);

    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
    test_util::load_cnf(s, cnf, vars);
    for (int i = 0; i < n_assume; ++i) s.set_frozen(vars[static_cast<std::size_t>(i)], true);
    s.preprocess();

    for (int round = 0; round < 6; ++round) {
      std::vector<Lit> assumptions;
      std::vector<int> signed_assumptions;
      for (int i = 0; i < n_assume; ++i) {
        if (rng.chance(1, 2)) continue;
        const bool negate = rng.chance(1, 2);
        assumptions.push_back(Lit(vars[static_cast<std::size_t>(i)], negate));
        signed_assumptions.push_back(negate ? -(i + 1) : i + 1);
      }
      const bool expect = test_util::brute_force_sat(cnf, nv, signed_assumptions);
      const Result got = s.solve(assumptions);
      ASSERT_EQ(got, expect ? Result::Sat : Result::Unsat)
          << "seed " << seed << " round " << round;
      if (got == Result::Sat) {
        EXPECT_TRUE(model_satisfies(s, cnf, vars))
            << "seed " << seed << " round " << round;
        // Block this assignment of the assumption variables and continue.
        std::vector<Lit> block;
        std::vector<int> block_signed;
        for (int i = 0; i < n_assume; ++i) {
          const bool val = s.model_value(vars[static_cast<std::size_t>(i)]);
          block.push_back(Lit(vars[static_cast<std::size_t>(i)], val));
          block_signed.push_back(val ? -(i + 1) : i + 1);
        }
        if (!s.add_clause(block)) break;
        cnf.push_back(block_signed);
      }
    }
  }
}

TEST(Preprocess, AssumptionOverEliminatedVariableRevives) {
  // Deliberately leave an eliminable variable unfrozen, then assume it:
  // solve() must revive it and still report sound verdicts.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_clause({pos(a), pos(b)});
  s.add_clause({neg(a), pos(c)});
  ASSERT_TRUE(s.preprocess());
  ASSERT_TRUE(s.eliminated(a));
  ASSERT_EQ(s.solve({pos(a)}), Result::Sat);
  EXPECT_FALSE(s.eliminated(a));
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(c));  // a -> c must hold again after revival
  ASSERT_EQ(s.solve({pos(a), neg(c)}), Result::Unsat);
}

TEST(Preprocess, InprocessingKeepsVerdictsAndModels) {
  // Force heavy inprocessing: restart after every conflict so the
  // 10-restart trigger fires early and often, plus constant arena GC.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed * 31);
    const int nv = 15;
    const int nc = 55 + static_cast<int>(seed % 20);
    const auto cnf = test_util::random_cnf(rng, nv, nc);

    Solver s;
    Solver::Config cfg;
    cfg.restart_unit = 1;
    s.set_config(cfg);
    s.set_inprocess(true);
    s.set_gc_frac(0.0);  // GC at every opportunity (stress)
    std::vector<Var> vars;
    for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
    test_util::load_cnf(s, cnf, vars);
    const bool expect = test_util::brute_force_sat(cnf, nv);
    const Result got = s.solve();
    EXPECT_EQ(got, expect ? Result::Sat : Result::Unsat) << "seed " << seed;
    if (got == Result::Sat) {
      EXPECT_TRUE(model_satisfies(s, cnf, vars)) << "seed " << seed;
    }
  }
}

TEST(Preprocess, GcStressMatchesBaseline) {
  // Identical search with GC forced at every boundary vs. never: relocation
  // must be behavior-neutral, so verdicts AND conflict counts agree.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 97);
    const auto cnf = test_util::random_cnf(rng, 16, 70);

    Solver never;
    never.set_gc_frac(2.0);  // > 1: never due
    std::vector<Var> nvars;
    for (int i = 0; i < 16; ++i) nvars.push_back(never.new_var());
    test_util::load_cnf(never, cnf, nvars);
    const Result r1 = never.solve();

    Solver always;
    always.set_gc_frac(0.0);
    std::vector<Var> avars;
    for (int i = 0; i < 16; ++i) avars.push_back(always.new_var());
    test_util::load_cnf(always, cnf, avars);
    const Result r2 = always.solve();

    EXPECT_EQ(r1, r2) << "seed " << seed;
    EXPECT_EQ(never.stats().conflicts, always.stats().conflicts)
        << "seed " << seed;
    EXPECT_EQ(never.stats().decisions, always.stats().decisions)
        << "seed " << seed;
  }
}

TEST(Preprocess, UnsatDetectedDuringPreprocessing) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  s.add_clause({pos(a), neg(b)});
  s.add_clause({neg(a), pos(b)});
  s.add_clause({neg(a), neg(b)});
  // Distribution on either variable yields the empty clause eventually.
  EXPECT_FALSE(s.preprocess());
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Preprocess, PortfolioModelsAreReconstructed) {
  // A preprocessed master racing workers: the workers carry no elimination
  // records, so the folded model must be extended by the master's remapper.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed * 11);
    const auto cnf = test_util::random_cnf(rng, 14, 35);
    PortfolioSolver s(3);
    std::vector<Var> vars;
    for (int i = 0; i < 14; ++i) vars.push_back(s.new_var());
    test_util::load_cnf(s, cnf, vars);
    s.preprocess();
    const bool expect = test_util::brute_force_sat(cnf, 14);
    const Result got = s.solve();
    EXPECT_EQ(got, expect ? Result::Sat : Result::Unsat) << "seed " << seed;
    if (got == Result::Sat) {
      EXPECT_TRUE(model_satisfies(s, cnf, vars)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace cl::sat
