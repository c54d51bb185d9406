// DRAT round-trip: solve with the modern configuration — learnt-clause
// deletion and inprocessing (subsumption, strengthening, vivification)
// forced on —
// while recording the clausal trace, then replay the trace through the
// in-repo forward RUP checker (sat/proof.h) against the original formula.
// UNSAT runs must end in a verified empty clause *including* every
// deletion line; SAT runs must still be valid derivation logs.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sat/dimacs.h"
#include "sat/proof.h"
#include "sat/solver.h"

namespace step::sat {
namespace {

/// Configuration that exercises every trace-emitting mechanism quickly.
SolverOptions drat_config() {
  SolverOptions o;
  o.drat_logging = true;
  o.restart_base = 2;          // restarts every few conflicts
  o.max_learnts_floor = 16.0;  // learnt-clause deletions mid-search
  o.inprocess = true;
  o.inprocess_interval = 1;    // inprocess before every solve
  o.inprocess_min_conflicts = 0;
  return o;
}

struct Instance {
  int num_vars = 0;
  std::vector<LitVec> clauses;
};

Instance pigeonhole(int holes) {
  Instance inst;
  inst.num_vars = (holes + 1) * holes;
  auto p = [&](int pigeon, int hole) {
    return mk_lit(static_cast<Var>(pigeon * holes + hole));
  };
  for (int i = 0; i <= holes; ++i) {
    LitVec c;
    for (int h = 0; h < holes; ++h) c.push_back(p(i, h));
    inst.clauses.push_back(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i <= holes; ++i) {
      for (int j = i + 1; j <= holes; ++j) {
        inst.clauses.push_back({~p(i, h), ~p(j, h)});
      }
    }
  }
  return inst;
}

/// Solves in two incremental episodes (half the clauses, solve, rest,
/// solve) so an inprocessing round runs mid-way with real deletions.
Result solve_logged(const Instance& inst, Solver& s) {
  // The second episode re-adds clauses over every variable, so none may
  // be eliminated or substituted by the first episode's preprocessing.
  for (int i = 0; i < inst.num_vars; ++i) s.set_frozen(s.new_var());
  const std::size_t half = inst.clauses.size() / 2;
  bool alive = true;
  for (std::size_t c = 0; c < half && alive; ++c) {
    alive = s.add_clause(inst.clauses[c]);
  }
  if (alive) s.solve();
  for (std::size_t c = half; c < inst.clauses.size() && s.is_ok(); ++c) {
    s.add_clause(inst.clauses[c]);
  }
  return s.solve();
}

void expect_checked_unsat(const Instance& inst,
                          Solver::Stats* total = nullptr) {
  Solver s(drat_config());
  ASSERT_EQ(solve_logged(inst, s), Result::kUnsat);
  if (total != nullptr) *total += s.stats();
  ASSERT_FALSE(s.drat().empty());
  const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.proved_unsat) << "no empty clause derived";
}

TEST(Drat, PigeonholeWithInprocessingAndDeletionChecks) {
  Solver::Stats total;
  for (int holes = 3; holes <= 6; ++holes) {
    SCOPED_TRACE(holes);
    expect_checked_unsat(pigeonhole(holes), &total);
  }
  // The traces must cover restarts and learnt-clause reductions (only
  // pigeonhole-6 learns past the 2 x |clauses| reduction budget).
  EXPECT_GT(total.restarts, 0u);
  EXPECT_GT(total.db_reductions, 0u);
}

TEST(Drat, TraceContainsDeletionLines) {
  // The point of DRAT over plain RUP logs: deletions are recorded, and
  // the checker honours them. Pigeonhole-6 reliably triggers both
  // reduce_db and the inprocessing sweep.
  Solver s(drat_config());
  ASSERT_EQ(solve_logged(pigeonhole(6), s), Result::kUnsat);
  bool has_delete = false;
  for (const DratLine& l : s.drat().lines()) has_delete |= l.is_delete;
  EXPECT_TRUE(has_delete);
  EXPECT_GT(s.stats().inprocess_rounds, 0u);
  EXPECT_GT(s.stats().db_reductions, 0u);
  EXPECT_NE(s.drat().to_text().find("d "), std::string::npos);
}

TEST(Drat, RandomUnsatInstances) {
  Rng rng(99);
  int checked = 0;
  for (int round = 0; round < 40 && checked < 8; ++round) {
    Instance inst;
    inst.num_vars = rng.next_int(6, 10);
    // Over-constrained random 3-CNF: mostly UNSAT at ratio 6.
    for (int c = 0; c < inst.num_vars * 6; ++c) {
      LitVec cl;
      for (int j = 0; j < 3; ++j) {
        cl.push_back(
            mk_lit(rng.next_int(0, inst.num_vars - 1), rng.next_bool()));
      }
      inst.clauses.push_back(cl);
    }
    Solver probe;  // defaults; answer only
    for (int i = 0; i < inst.num_vars; ++i) probe.new_var();
    for (const LitVec& c : inst.clauses) probe.add_clause(c);
    if (probe.solve() != Result::kUnsat) continue;
    SCOPED_TRACE(round);
    expect_checked_unsat(inst);
    ++checked;
  }
  EXPECT_GE(checked, 3) << "generator produced too few UNSAT instances";
}

TEST(Drat, SatRunsProduceValidDerivationLogs) {
  // A satisfiable instance: every addition (learnts, strengthenings,
  // vivifications) must still be RUP; no empty clause appears.
  Rng rng(7);
  Instance inst;
  inst.num_vars = 12;
  for (int c = 0; c < 30; ++c) {
    LitVec cl;
    for (int j = 0; j < 3; ++j) {
      cl.push_back(mk_lit(rng.next_int(0, inst.num_vars - 1), rng.next_bool()));
    }
    inst.clauses.push_back(cl);
  }
  Solver s(drat_config());
  const Result res = solve_logged(inst, s);
  ASSERT_EQ(res, Result::kSat);
  const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.proved_unsat);
}

/// Single-episode solve with nothing frozen: the forced first-solve
/// preprocessing round gets free rein over the whole variable set.
Result solve_logged_one_shot(const Instance& inst, Solver& s) {
  for (int i = 0; i < inst.num_vars; ++i) s.new_var();
  for (const LitVec& c : inst.clauses) {
    if (!s.add_clause(c)) break;
  }
  return s.solve();
}

TEST(Drat, EliminationLinesRoundTrip) {
  // Pigeonhole variables have one long positive and several binary
  // negative occurrences — prime bounded-variable-elimination fodder.
  // The resolvent additions and parent deletions must check in order.
  const Instance inst = pigeonhole(4);
  Solver s(drat_config());
  ASSERT_EQ(solve_logged_one_shot(inst, s), Result::kUnsat);
  EXPECT_GT(s.stats().eliminated_vars, 0u);
  const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.proved_unsat);
}

TEST(Drat, SubstitutionLinesRoundTrip) {
  // a ⇔ b via a binary implication cycle. Equivalence reduction rewrites
  // every other occurrence of b to a; the rewritten clauses are logged as
  // additions before the originals are deleted, and must replay that way.
  Instance inst;
  inst.num_vars = 4;
  const Lit a = mk_lit(0), b = mk_lit(1), c = mk_lit(2), d = mk_lit(3);
  inst.clauses = {{~a, b}, {a, ~b},        // a ⇔ b (binary 2-cycle)
                  {a, c, d},  {~b, c, ~d},  // ternaries over b get their
                  {b, ~c, d}};              // occurrences rewritten to a
  Solver s(drat_config());
  ASSERT_EQ(solve_logged_one_shot(inst, s), Result::kSat);
  EXPECT_GT(s.stats().substituted_lits, 0u);
  const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.proved_unsat);
}

TEST(Drat, HyperBinaryLinesRoundTrip) {
  // Probing p propagates a and b through binaries and then q through the
  // ternary reason (¬a ∨ ¬b ∨ q), yielding the hyper-binary (¬p ∨ q).
  // The two binary antecedents are distinct, so no self-subsumption can
  // shorten the ternary first. The instance stays satisfiable, so the
  // trace must be a valid derivation log.
  Instance inst;
  inst.num_vars = 4;
  const Lit p = mk_lit(0), a = mk_lit(1), b = mk_lit(2), q = mk_lit(3);
  inst.clauses = {{~p, a}, {~p, b}, {~a, ~b, q}};
  Solver s(drat_config());
  ASSERT_EQ(solve_logged_one_shot(inst, s), Result::kSat);
  EXPECT_GT(s.stats().hyper_binaries, 0u);
  const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.proved_unsat);
}

TEST(Drat, PreprocessedRandomInstancesRoundTrip) {
  // Random soak with nothing frozen: whatever mix of elimination,
  // substitution, probing, and search a round happens to trigger, the
  // combined trace must replay.
  Rng rng(0xd2a7);
  int unsat_checked = 0, sat_checked = 0;
  std::uint64_t eliminated = 0;
  for (int round = 0; round < 30; ++round) {
    Instance inst;
    inst.num_vars = rng.next_int(8, 14);
    for (int c = 0; c < inst.num_vars * 4; ++c) {
      LitVec cl;
      const int width = rng.next_int(2, 3);
      for (int j = 0; j < width; ++j) {
        cl.push_back(
            mk_lit(rng.next_int(0, inst.num_vars - 1), rng.next_bool()));
      }
      inst.clauses.push_back(cl);
    }
    SCOPED_TRACE(round);
    Solver s(drat_config());
    const Result res = solve_logged_one_shot(inst, s);
    eliminated += s.stats().eliminated_vars;
    const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, s.drat());
    ASSERT_TRUE(r.ok) << r.error;
    if (res == Result::kUnsat) {
      ASSERT_TRUE(r.proved_unsat);
      ++unsat_checked;
    } else {
      ASSERT_FALSE(r.proved_unsat);
      ++sat_checked;
    }
  }
  EXPECT_GT(unsat_checked, 0);
  EXPECT_GT(sat_checked, 0);
  EXPECT_GT(eliminated, 0u) << "soak never exercised elimination";
}

TEST(Drat, CheckerRejectsBogusTraces) {
  // Sanity of the checker itself: a non-implied addition and a deletion
  // of an absent clause must both be rejected.
  Instance inst;
  inst.num_vars = 3;
  inst.clauses = {{mk_lit(0), mk_lit(1)}};
  {
    DratTrace t;
    const LitVec bogus = {mk_lit(2)};
    t.add(bogus);
    const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, t);
    EXPECT_FALSE(r.ok);
  }
  {
    DratTrace t;
    const LitVec absent = {mk_lit(0), mk_lit(2)};
    t.del(absent);
    const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, t);
    EXPECT_FALSE(r.ok);
  }
}

TEST(Drat, DimacsRoundTripOfCheckedFormula) {
  // The DRAT artifacts are exchanged as DIMACS + trace text; make sure a
  // formula survives the write/parse cycle and still checks.
  const Instance inst = pigeonhole(4);
  DimacsFormula f;
  f.num_vars = inst.num_vars;
  f.clauses = inst.clauses;
  const DimacsFormula parsed = parse_dimacs(write_dimacs(f));
  ASSERT_EQ(parsed.num_vars, inst.num_vars);
  ASSERT_EQ(parsed.clauses.size(), inst.clauses.size());
  Solver s(drat_config());
  Instance round;
  round.num_vars = parsed.num_vars;
  round.clauses = parsed.clauses;
  ASSERT_EQ(solve_logged(round, s), Result::kUnsat);
  const DratCheckResult r = check_drat(round.num_vars, round.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.proved_unsat);
}

}  // namespace
}  // namespace step::sat
