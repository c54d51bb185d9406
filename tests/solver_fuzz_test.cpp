// Randomized cross-check harness for the modernized CDCL hot path, in the
// spirit of krox/dawn's fuzz.py: random CNFs plus random assumption
// subsets, solved incrementally under two solver configurations —
//
//   * "modern"   — the shipping defaults with every mechanism forced into
//                  overdrive (Luby restarts every few conflicts, a tiny
//                  learnt-clause floor, inprocessing on every solve);
//   * "baseline" — the PR-3 configuration (the default Luby restarts and
//                  learnt-clause budget, no inprocessing);
//
// demanding identical SAT/UNSAT answers, valid models, assumption-subset
// cores, and (on small instances) agreement with a brute-force oracle.
// The budget is deliberately small so the whole harness stays CI-friendly;
// crank kRounds locally for a longer soak.

#include "sat/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "common/fault.h"
#include "common/rng.h"
#include "common/timer.h"

namespace step::sat {
namespace {

SolverOptions modern_config() {
  SolverOptions o;  // shipping defaults, cranked to fire constantly
  o.restart_base = 2;
  o.max_learnts_floor = 8.0;
  o.inprocess = true;
  o.inprocess_interval = 1;
  o.inprocess_min_conflicts = 0;
  return o;
}

SolverOptions baseline_config() {
  SolverOptions o;
  o.inprocess = false;
  return o;
}

/// Brute force over clauses + assumption units (oracle for n <= ~16).
bool oracle_sat(int num_vars, const std::vector<LitVec>& clauses,
                const LitVec& assumptions) {
  for (std::uint64_t m = 0; m < (1ULL << num_vars); ++m) {
    auto lit_true = [&](Lit l) {
      return (((m >> var(l)) & 1ULL) != 0) != sign(l);
    };
    bool ok = true;
    for (Lit a : assumptions) {
      if (!lit_true(a)) {
        ok = false;
        break;
      }
    }
    for (std::size_t c = 0; ok && c < clauses.size(); ++c) {
      bool sat_c = false;
      for (Lit l : clauses[c]) sat_c = sat_c || lit_true(l);
      ok = sat_c;
    }
    if (ok) return true;
  }
  return false;
}

LitVec random_clause(int num_vars, Rng& rng) {
  const int width = rng.next_int(1, 4);
  LitVec c;
  for (int j = 0; j < width; ++j) {
    c.push_back(mk_lit(rng.next_int(0, num_vars - 1), rng.next_bool()));
  }
  return c;
}

void check_model(const Solver& s, const std::vector<LitVec>& clauses,
                 const LitVec& assumptions) {
  for (const LitVec& c : clauses) {
    bool sat_c = false;
    for (Lit l : c) sat_c = sat_c || s.model_value(l) == Lbool::kTrue;
    ASSERT_TRUE(sat_c) << "model violates a clause";
  }
  for (Lit a : assumptions) {
    ASSERT_EQ(s.model_value(a), Lbool::kTrue) << "model violates an assumption";
  }
}

void check_core(const Solver& s, const LitVec& assumptions) {
  for (Lit l : s.conflict_core()) {
    ASSERT_NE(std::find(assumptions.begin(), assumptions.end(), l),
              assumptions.end())
        << "core literal was never assumed";
  }
}

/// Pigeons-into-holes assignment: variable pigeon * holes + hole places a
/// pigeon in a hole; every pigeon needs a hole, no hole takes two. Random
/// assumptions forbid single placements. The random CNFs below are settled
/// by propagation alone; these take over a hundred conflicts each, enough
/// for restarts and learnt-clause reductions to fire mid-search.
struct Matching {
  int pigeons = 0;
  int holes = 0;
  std::vector<LitVec> clauses;
  Lit place(int pigeon, int hole) const {
    return mk_lit(static_cast<Var>(pigeon * holes + hole));
  }
};

Matching random_matching(Rng& rng) {
  Matching m;
  m.holes = rng.next_int(4, 6);
  m.pigeons = m.holes + (rng.next_bool() ? 1 : 0);
  for (int i = 0; i < m.pigeons; ++i) {
    LitVec c;
    for (int h = 0; h < m.holes; ++h) c.push_back(m.place(i, h));
    m.clauses.push_back(c);
  }
  for (int h = 0; h < m.holes; ++h) {
    for (int i = 0; i < m.pigeons; ++i) {
      for (int j = i + 1; j < m.pigeons; ++j) {
        m.clauses.push_back({~m.place(i, h), ~m.place(j, h)});
      }
    }
  }
  return m;
}

/// Exact oracle: the formula plus the forbidding assumptions is SAT iff a
/// bipartite matching places every pigeon (augmenting paths).
bool matching_oracle(const Matching& m, const LitVec& assumptions) {
  const std::vector<char> every_hole(m.holes, 1);
  std::vector<std::vector<char>> allowed(m.pigeons, every_hole);
  for (Lit a : assumptions) allowed[var(a) / m.holes][var(a) % m.holes] = 0;
  std::vector<int> owner(m.holes, -1);
  std::vector<char> visited;
  auto augment = [&](auto& self, int pigeon) -> bool {
    for (int h = 0; h < m.holes; ++h) {
      if (!allowed[pigeon][h] || visited[h]) continue;
      visited[h] = 1;
      if (owner[h] < 0 || self(self, owner[h])) {
        owner[h] = pigeon;
        return true;
      }
    }
    return false;
  };
  for (int i = 0; i < m.pigeons; ++i) {
    visited.assign(m.holes, 0);
    if (!augment(augment, i)) return false;
  }
  return true;
}

TEST(SolverFuzz, ModernAgreesWithBaselineUnderAssumptions) {
  constexpr int kRounds = 120;
  constexpr int kSolvesPerRound = 4;
  Rng rng(0xf022ed);
  std::uint64_t sat_answers = 0, unsat_answers = 0;

  for (int round = 0; round < kRounds; ++round) {
    const int nv = rng.next_int(5, 14);
    Solver modern(modern_config());
    Solver baseline(baseline_config());
    for (int i = 0; i < nv; ++i) {
      // Any variable can be assumed or re-added in a later episode, so
      // all of them must be frozen against preprocessing.
      modern.set_frozen(modern.new_var());
      baseline.new_var();
    }
    std::vector<LitVec> clauses;

    // Incremental episodes: grow the formula, solve under fresh random
    // assumptions each time. Inprocessing fires between the episodes on
    // the modern solver — exactly the usage pattern of the CEGAR loops.
    for (int episode = 0; episode < kSolvesPerRound; ++episode) {
      const int grow = rng.next_int(nv, nv * 2);
      for (int c = 0; c < grow; ++c) {
        LitVec cl = random_clause(nv, rng);
        clauses.push_back(cl);
        modern.add_clause(cl);
        baseline.add_clause(cl);
      }
      LitVec assumptions;
      const int n_assume = rng.next_int(0, 3);
      for (int a = 0; a < n_assume; ++a) {
        assumptions.push_back(mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
      }

      const Result rm = modern.solve(assumptions);
      const Result rb = baseline.solve(assumptions);
      ASSERT_EQ(rm, rb) << "round " << round << " episode " << episode
                        << ": configs disagree";
      const bool expect_sat = oracle_sat(nv, clauses, assumptions);
      ASSERT_EQ(rm == Result::kSat, expect_sat)
          << "round " << round << " episode " << episode
          << ": oracle disagrees";
      if (rm == Result::kSat) {
        ++sat_answers;
        check_model(modern, clauses, assumptions);
        check_model(baseline, clauses, assumptions);
      } else {
        ++unsat_answers;
        check_core(modern, assumptions);
        check_core(baseline, assumptions);
        // The core alone must already be inconsistent with the clauses.
        ASSERT_FALSE(oracle_sat(nv, clauses, modern.conflict_core()));
      }
      if (!modern.is_ok()) break;  // level-0 UNSAT: this instance is spent
    }
  }
  // The generator must exercise both outcomes, or the harness is dead.
  EXPECT_GT(sat_answers, 0u);
  EXPECT_GT(unsat_answers, 0u);
}

TEST(SolverFuzz, ModernAgreesWithBaselineOnMatchingInstances) {
  // The random CNFs above end without a conflict at their seed; these
  // rounds put the restart, learnt-clause reduction and arena compaction
  // paths under the same cross-check.
  Rng rng(0x10ad);
  Solver::Stats modern_total;
  std::uint64_t sat_answers = 0, unsat_answers = 0;
  for (int round = 0; round < 20; ++round) {
    const Matching m = random_matching(rng);
    Solver modern(modern_config());
    Solver baseline(baseline_config());
    for (int i = 0; i < m.pigeons * m.holes; ++i) {
      modern.set_frozen(modern.new_var());
      baseline.new_var();
    }
    for (const LitVec& c : m.clauses) {
      modern.add_clause(c);
      baseline.add_clause(c);
    }
    for (int solve = 0; solve < 4; ++solve) {
      LitVec assumptions;
      const int n_assume = rng.next_int(0, m.holes);
      for (int a = 0; a < n_assume; ++a) {
        assumptions.push_back(~m.place(rng.next_int(0, m.pigeons - 1),
                                       rng.next_int(0, m.holes - 1)));
      }
      const Result rm = modern.solve(assumptions);
      ASSERT_EQ(rm, baseline.solve(assumptions))
          << "round " << round << " solve " << solve << ": configs disagree";
      ASSERT_EQ(rm == Result::kSat, matching_oracle(m, assumptions))
          << "round " << round << " solve " << solve << ": oracle disagrees";
      if (rm == Result::kSat) {
        ++sat_answers;
        check_model(modern, m.clauses, assumptions);
      } else {
        ++unsat_answers;
        check_core(modern, assumptions);
      }
    }
    modern_total += modern.stats();
  }
  EXPECT_GT(sat_answers, 0u);
  EXPECT_GT(unsat_answers, 0u);
  EXPECT_GT(modern_total.restarts, 0u);
  EXPECT_GT(modern_total.db_reductions, 0u);
  EXPECT_GT(modern_total.arena_compactions, 0u);
}

/// Modern defaults with one preprocessing technique toggled per config.
SolverOptions prep_config(bool elim, bool scc, bool probe) {
  SolverOptions o = modern_config();
  o.elim = elim;
  o.scc = scc;
  o.probe = probe;
  return o;
}

TEST(SolverFuzz, PreprocessingConfigsAgreeWithOracle) {
  // Every technique individually off, everything on, everything off —
  // each config must agree with the brute-force oracle, return models
  // that satisfy the *original* clauses (reconstruction), and never
  // touch a frozen variable.
  struct Config {
    const char* name;
    bool elim, scc, probe;
  };
  constexpr Config kConfigs[] = {
      {"full", true, true, true},       {"no_elim", false, true, true},
      {"no_scc", true, false, true},    {"no_probe", true, true, false},
      {"none", false, false, false},
  };
  Rng rng(0x5e11a7e);
  std::uint64_t sat_answers = 0, unsat_answers = 0;

  for (int round = 0; round < 50; ++round) {
    const int nv = rng.next_int(6, 13);
    std::vector<LitVec> clauses;
    for (int c = 0; c < nv * 3; ++c) clauses.push_back(random_clause(nv, rng));
    // Assumptions are drawn from a small frozen prefix; everything else
    // is fair game for elimination and substitution.
    const int n_frozen = rng.next_int(1, 3);

    for (const Config& cfg : kConfigs) {
      SCOPED_TRACE(cfg.name);
      Solver s(prep_config(cfg.elim, cfg.scc, cfg.probe));
      for (int i = 0; i < nv; ++i) s.new_var();
      for (Var v = 0; v < n_frozen; ++v) s.set_frozen(v);
      for (const LitVec& c : clauses) {
        if (!s.add_clause(c)) break;
      }
      for (int solve = 0; solve < 3 && s.is_ok(); ++solve) {
        LitVec assumptions;
        for (Var v = 0; v < n_frozen; ++v) {
          if (rng.next_bool()) {
            assumptions.push_back(mk_lit(v, rng.next_bool()));
          }
        }
        const Result r = s.solve(assumptions);
        ASSERT_EQ(r == Result::kSat, oracle_sat(nv, clauses, assumptions))
            << "round " << round << " solve " << solve
            << ": oracle disagrees";
        if (r == Result::kSat) {
          ++sat_answers;
          check_model(s, clauses, assumptions);  // reconstruction correct
        } else {
          ++unsat_answers;
          check_core(s, assumptions);
        }
        for (Var v = 0; v < n_frozen; ++v) {
          ASSERT_FALSE(s.is_eliminated(v)) << "frozen var eliminated";
          ASSERT_FALSE(s.is_substituted(v)) << "frozen var substituted";
        }
      }
    }
  }
  EXPECT_GT(sat_answers, 0u);
  EXPECT_GT(unsat_answers, 0u);
}

TEST(SolverFuzz, PreprocessingRegressionInstances) {
  // Two shrunk field failures of the probe+elim interplay, pinned under
  // every preprocessing configuration.
  //
  // Instance 1 (UNSAT): probing derives failed-literal units after the
  // inprocess sweep; elimination must not resolve over clauses still
  // carrying the newly falsified literals — a resolvent watched on a
  // false literal silently stops propagating.
  //
  // Instance 2 (SAT): elimination produces a *unit* resolvent on v, then
  // eliminates v itself in the same round; the pending unit is a live
  // clause on v that the occurrence lists cannot see, so v's resolvent
  // set is incomplete and reconstruction returns a bogus model.
  struct Instance {
    std::vector<std::vector<int>> dimacs;
    int nv;
    bool sat;
  };
  const Instance kInstances[] = {
      {{{-4, -2}, {-4, -3}, {4, 2, 3}, {-5, 1}, {-5, -4}, {5, -1, 4},
        {-6, 2}, {-6, 5}, {6, -2, -5}, {-7, 1}, {-7, 2}, {7, -1, -2},
        {-8, 2}, {-8, 7}, {8, -2, -7}, {-9, -6, -8}, {-9, 6, 8}, {9}},
       9,
       false},
      {{{-5, 9, 4}, {-4, -1, 10}, {-2, 9, 10}, {-3, 4, 5}, {6, 2, 1},
        {4, 4, 3}, {-3, -3, -10}, {3, -4, -10}, {-9, -3, -3}, {10, 2, -6}},
       10,
       true},
  };
  const bool kToggles[][3] = {{true, true, true},
                              {false, true, true},
                              {true, false, true},
                              {true, true, false},
                              {false, false, false}};
  for (const Instance& inst : kInstances) {
    std::vector<LitVec> clauses;
    for (const auto& c : inst.dimacs) {
      LitVec lits;
      for (int d : c) lits.push_back(mk_lit(std::abs(d) - 1, d < 0));
      clauses.push_back(lits);
    }
    for (const auto& t : kToggles) {
      Solver s(prep_config(t[0], t[1], t[2]));
      for (int i = 0; i < inst.nv; ++i) s.new_var();
      for (const LitVec& c : clauses) {
        if (!s.add_clause(c)) break;
      }
      const Result r = s.is_ok() ? s.solve() : Result::kUnsat;
      ASSERT_EQ(r, inst.sat ? Result::kSat : Result::kUnsat);
      if (r == Result::kSat) check_model(s, clauses, {});
    }
  }
}

TEST(SolverFuzz, InprocessingKeepsIncrementalAnswersStable) {
  // Pin the exact hazard inprocessing could introduce: clauses deleted or
  // strengthened between solves must never change answers under
  // assumptions that arrive *after* the rewrite.
  Rng rng(20260731);
  for (int round = 0; round < 60; ++round) {
    const int nv = rng.next_int(6, 12);
    SolverOptions aggressive = modern_config();
    Solver s(aggressive);
    Solver ref(baseline_config());
    for (int i = 0; i < nv; ++i) {
      s.set_frozen(s.new_var());  // assumptions range over every variable
      ref.new_var();
    }
    std::vector<LitVec> clauses;
    for (int c = 0; c < nv * 3; ++c) {
      LitVec cl = random_clause(nv, rng);
      clauses.push_back(cl);
      s.add_clause(cl);
      ref.add_clause(cl);
    }
    // Repeated solves on the same formula: every round after the first
    // runs inprocessing first; answers must stay fixed.
    for (int i = 0; i < 4; ++i) {
      LitVec assumptions;
      for (int a = 0; a < 2; ++a) {
        assumptions.push_back(mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
      }
      ASSERT_EQ(s.solve(assumptions), ref.solve(assumptions))
          << "round " << round << " solve " << i;
    }
    // Instances refuted at level 0 short-circuit solve() before the
    // inprocessing hook; everything else must have run it.
    if (s.is_ok()) EXPECT_GE(s.stats().inprocess_rounds, 1u);
  }
}

TEST(SolverFuzz, ConflictBudgetsAndInjectedFaultsOnlyLoseAnswers) {
  // Random instances under a random conflict cap plus a fault-injected
  // deadline: every answer is either kUnknown (with the stop attributed in
  // the stats / the deadline trip) or exactly the oracle's — budgets and
  // injected faults may cost answers, never corrupt them.
  Rng rng(0xfa17);
  std::uint64_t unknowns = 0, answers = 0;
  for (int round = 0; round < 80; ++round) {
    const int nv = rng.next_int(6, 12);
    std::vector<LitVec> clauses;
    for (int c = 0; c < nv * 3; ++c) clauses.push_back(random_clause(nv, rng));

    SolverOptions capped = modern_config();
    capped.conflict_budget = rng.next_int(1, 40);
    Solver s(capped);
    for (int i = 0; i < nv; ++i) s.set_frozen(s.new_var());
    for (const LitVec& c : clauses) {
      if (!s.add_clause(c)) break;
    }

    FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(round);
    plan.rate = 0.02;
    FaultStream faults(plan, /*stream_id=*/0);
    Deadline deadline(60.0);
    deadline.attach_faults(&faults);

    for (int solve = 0; solve < 3 && s.is_ok(); ++solve) {
      LitVec assumptions;
      const int n_assume = rng.next_int(0, 2);
      for (int a = 0; a < n_assume; ++a) {
        assumptions.push_back(mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
      }
      const Result r = s.solve_limited(assumptions, -1, &deadline);
      if (r == Result::kUnknown) {
        ++unknowns;
        // Every kUnknown is attributable: either the cap fired (stats) or
        // the injected fault tripped the deadline.
        EXPECT_TRUE(s.stats().conflict_budget_stops > 0 ||
                    s.stats().deadline_stops > 0 ||
                    deadline.trip() != Deadline::Trip::kNone);
        continue;
      }
      ++answers;
      ASSERT_EQ(r == Result::kSat, oracle_sat(nv, clauses, assumptions))
          << "round " << round << " solve " << solve;
      if (r == Result::kSat) {
        check_model(s, clauses, assumptions);
      } else {
        check_core(s, assumptions);
      }
    }
  }
  // The sweep must exercise both the lost-answer and the answered path.
  EXPECT_GT(unknowns, 0u);
  EXPECT_GT(answers, 0u);
}

TEST(SolverFuzz, CancelThenResolveLeavesSolverReusable) {
  // The cancel contract behind SIGINT and the run deadline (see
  // solve_limited's doc in solver.h): a solve_limited interrupted at *any*
  // poll point — entry, mid-search, around restarts and inprocessing — must
  // leave the incremental solver fully reusable, answering the next solve
  // on the same instance exactly like a never-interrupted solver.
  // Interruptions are forced deterministically through the deadline's
  // poll-count seam at varying depths; the uninterrupted re-solve is
  // checked against the oracle.
  Rng rng(0xcace1);
  std::uint64_t cancelled = 0, resolved_sat = 0, resolved_unsat = 0;
  for (int round = 0; round < 60; ++round) {
    const int nv = rng.next_int(6, 12);
    Solver s(modern_config());
    for (int i = 0; i < nv; ++i) s.set_frozen(s.new_var());
    std::vector<LitVec> clauses;
    for (int episode = 0; episode < 4 && s.is_ok(); ++episode) {
      const int grow = rng.next_int(nv, nv * 2);
      for (int c = 0; c < grow && s.is_ok(); ++c) {
        LitVec cl = random_clause(nv, rng);
        clauses.push_back(cl);
        s.add_clause(cl);
      }
      if (!s.is_ok()) break;
      LitVec assumptions;
      const int n_assume = rng.next_int(0, 3);
      for (int a = 0; a < n_assume; ++a) {
        assumptions.push_back(mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
      }

      // Interrupt: 0 polls cancels at entry, small counts land inside the
      // search loop. Biased low — these instances solve within a handful
      // of deadline polls, so deep counts never interrupt anything.
      Deadline cancel(60.0);
      const int polls =
          rng.next_bool() ? rng.next_int(0, 2) : rng.next_int(0, 12);
      cancel.force_expire_after_polls(polls);
      if (s.solve_limited(assumptions, -1, &cancel) == Result::kUnknown) {
        ++cancelled;
      }

      // Same solver, uninterrupted: no stale trail, no half-applied
      // rewrite, no lost assumption freeze may survive the interruption.
      const Result r = s.solve(assumptions);
      ASSERT_NE(r, Result::kUnknown);
      ASSERT_EQ(r == Result::kSat, oracle_sat(nv, clauses, assumptions))
          << "round " << round << " episode " << episode
          << ": interrupted solver disagrees with the oracle on re-solve";
      if (r == Result::kSat) {
        ++resolved_sat;
        check_model(s, clauses, assumptions);
      } else {
        ++resolved_unsat;
        check_core(s, assumptions);
      }
    }
  }
  // The sweep must actually interrupt solves and see both answers.
  EXPECT_GT(cancelled, 0u);
  EXPECT_GT(resolved_sat, 0u);
  EXPECT_GT(resolved_unsat, 0u);
}

}  // namespace
}  // namespace step::sat
