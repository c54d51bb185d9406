// A/B regression of the optimum-search architectures: the incremental
// path (one persistent CEGAR solver pair, assumption-activated bounds,
// core-driven lower-bound raises) must return exactly the answers of the
// scratch rebuild-per-query path, for every model, on the benchgen suite.
// The incremental QDB encoding, which counts differently from eq. (8), is
// also checked against exhaustive enumeration.

#include <gtest/gtest.h>

#include <string>

#include "benchgen/suite.h"
#include "core/optimum.h"
#include "core/relaxation.h"
#include "test_util.h"

namespace step::core {
namespace {

// Shannon expansion of a random truth table over `vars`: full support
// almost surely, unlike a random gate soup whose free inputs make every
// partition trivially balanced.
aig::Lit random_function(aig::Aig& aig, const std::vector<aig::Lit>& vars,
                         Rng& rng) {
  std::vector<aig::Lit> layer(std::size_t{1} << vars.size());
  for (aig::Lit& l : layer) {
    l = rng.next_bool() ? aig::kLitTrue : aig::kLitFalse;
  }
  for (const aig::Lit v : vars) {
    for (std::size_t j = 0; j < layer.size() / 2; ++j) {
      layer[j] = aig.lmux(v, layer[2 * j + 1], layer[2 * j]);
    }
    layer.resize(layer.size() / 2);
  }
  return layer[0];
}

// f = g(XA ∪ XC) op h(XB ∪ XC) over a random planted partition, so the
// QDB optimum is non-trivial and at most the planted cost; with
// `planted == false`, one random function of all n inputs (rarely
// decomposable).
Cone random_bidec_cone(int n, GateOp op, bool planted, Rng& rng) {
  Cone cone;
  std::vector<aig::Lit> in(n);
  for (aig::Lit& l : in) l = cone.aig.add_input();
  if (!planted) {
    cone.root = random_function(cone.aig, in, rng);
    return cone;
  }
  std::vector<aig::Lit> ga, gb;
  for (int i = 0; i < n; ++i) {
    // Inputs 0 and 1 seed XA and XB; the rest are drawn from A/B/C.
    const int cls = i < 2 ? i : rng.next_int(0, 2);
    if (cls != 1) ga.push_back(in[i]);
    if (cls != 0) gb.push_back(in[i]);
  }
  const aig::Lit g = random_function(cone.aig, ga, rng);
  const aig::Lit h = random_function(cone.aig, gb, rng);
  switch (op) {
    case GateOp::kOr:
      cone.root = cone.aig.lor(g, h);
      break;
    case GateOp::kAnd:
      cone.root = cone.aig.land(g, h);
      break;
    case GateOp::kXor:
      cone.root = cone.aig.lxor(g, h);
      break;
  }
  return cone;
}

TEST(IncrementalEquivalence, MatchesScratchOnBenchgenSuite) {
  const auto suite = benchgen::standard_suite(benchgen::SuiteScale::kTiny);
  int compared = 0;
  for (const benchgen::BenchCircuit& c : suite) {
    for (std::uint32_t po = 0; po < c.aig.num_outputs(); ++po) {
      const Cone cone = extract_po_cone(c.aig, po);
      if (cone.n() < 2 || cone.n() > 10) continue;
      const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
      for (QbfModel model : {QbfModel::kQD, QbfModel::kQB, QbfModel::kQDB}) {
        OptimumOptions o;
        o.call_timeout_s = 30.0;  // generous: no timeout-induced divergence
        QbfFinderOptions inc_opts, scratch_opts;
        inc_opts.incremental = true;
        scratch_opts.incremental = false;
        QbfPartitionFinder inc_finder(m, inc_opts);
        QbfPartitionFinder scratch_finder(m, scratch_opts);
        const OptimumResult inc =
            OptimumSearch(inc_finder, model, o).run(std::nullopt);
        const OptimumResult scratch =
            OptimumSearch(scratch_finder, model, o).run(std::nullopt);

        ASSERT_EQ(static_cast<int>(inc.outcome),
                  static_cast<int>(scratch.outcome))
            << c.name << " po " << po << " " << to_string(model);
        if (inc.outcome == OptimumResult::Outcome::kFound) {
          EXPECT_EQ(inc.best_cost, scratch.best_cost)
              << c.name << " po " << po << " " << to_string(model);
          EXPECT_EQ(inc.proven_optimal, scratch.proven_optimal)
              << c.name << " po " << po << " " << to_string(model);
          EXPECT_TRUE(check_partition_exhaustive(cone, GateOp::kOr, inc.best));
        }
        ++compared;
      }
      if (compared >= 45) {
        EXPECT_GT(compared, 0);
        return;  // runtime guard; the sweep below covers more shapes
      }
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(IncrementalEquivalence, RefutedBelowIsSoundAgainstBruteForce) {
  // Whatever lower bound the UNSAT core certifies, no partition may exist
  // below it. Bounds are queried top-down so refinements and learned
  // clauses pile up in the persistent solver before the tight queries.
  Rng rng(86420);
  for (int iter = 0; iter < 8; ++iter) {
    const int n = rng.next_int(3, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(6, 20), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
    for (QbfModel model : {QbfModel::kQD, QbfModel::kQB, QbfModel::kQDB}) {
      const MetricKind kind = metric_of(model);
      const BruteForceResult oracle =
          brute_force_optimum(cone, GateOp::kOr, kind);
      QbfPartitionFinder finder(m);
      for (int k = n - 2; k >= 0; --k) {
        const QbfFindResult r = finder.find_with_bound(model, k);
        if (r.status != qbf::Qbf2Status::kFalse) continue;
        EXPECT_GE(r.refuted_below, k + 1);
        if (oracle.decomposable) {
          EXPECT_GE(oracle.best_cost, r.refuted_below)
              << to_string(model) << " k=" << k;
        }
      }
    }
  }
}

TEST(IncrementalEquivalence, QdbMatchesBruteForceOracle) {
  // The incremental QDB encoding (two n-literal counters assumed at
  // ⌊(k + n)/2⌋, lex-leader symmetry break) against exhaustive
  // enumeration: odd and even n exercise the rounding, both symmetry
  // settings, all three gate operators, no MG bootstrap. Every bound is
  // also queried on its own so each answer and each core-derived
  // refuted_below is checked, not just the search's final cost.
  Rng rng(97531);
  int nontrivial = 0;
  int not_decomposable = 0;
  for (int n = 3; n <= 9; ++n) {
    for (GateOp op : {GateOp::kOr, GateOp::kAnd, GateOp::kXor}) {
      for (int rep = 0; rep < 3; ++rep) {
        const Cone cone = random_bidec_cone(n, op, rep < 2, rng);
        const BruteForceResult oracle =
            brute_force_optimum(cone, op, MetricKind::kSum);
        if (!oracle.decomposable) ++not_decomposable;
        if (oracle.decomposable && oracle.best_cost >= 2) ++nontrivial;
        const RelaxationMatrix m = build_relaxation_matrix(cone, op);
        for (bool sym : {true, false}) {
          std::string where = "n=" + std::to_string(n);
          where += " op " + std::to_string(static_cast<int>(op));
          where += sym ? " sym" : " nosym";
          QbfFinderOptions f;
          f.symmetry_breaking = sym;
          // Bound by bound first: a finder that answers a bound with a
          // costlier partition would stall the search below, so such a
          // case stops here.
          QbfPartitionFinder finder(m, f);
          for (int k = n - 2; k >= 0; --k) {
            const QbfFindResult r = finder.find_with_bound(QbfModel::kQDB, k);
            const bool feasible = oracle.decomposable && oracle.best_cost <= k;
            if (feasible) {
              ASSERT_EQ(r.status, qbf::Qbf2Status::kTrue)
                  << where << " k=" << k;
              ASSERT_LE(Metrics::of(r.partition).combined_cost(), k) << where;
              EXPECT_TRUE(check_partition_exhaustive(cone, op, r.partition))
                  << where << " k=" << k;
            } else {
              ASSERT_EQ(r.status, qbf::Qbf2Status::kFalse)
                  << where << " k=" << k;
              EXPECT_GE(r.refuted_below, k + 1) << where;
              if (oracle.decomposable) {
                EXPECT_LE(r.refuted_below, oracle.best_cost)
                    << where << " k=" << k;
              }
            }
          }

          OptimumOptions o;
          o.call_timeout_s = 30.0;  // generous: no timeout-induced divergence
          QbfPartitionFinder search_finder(m, f);
          const OptimumResult res =
              OptimumSearch(search_finder, QbfModel::kQDB, o).run(std::nullopt);
          if (!oracle.decomposable) {
            EXPECT_EQ(res.outcome, OptimumResult::Outcome::kNotDecomposable)
                << where;
          } else {
            ASSERT_EQ(res.outcome, OptimumResult::Outcome::kFound) << where;
            EXPECT_EQ(res.best_cost, oracle.best_cost) << where;
            EXPECT_TRUE(res.proven_optimal) << where;
            EXPECT_TRUE(check_partition_exhaustive(cone, op, res.best))
                << where;
          }
        }
      }
    }
  }
  // The sample must reach past the trivial optima 0 and 1.
  EXPECT_GE(nontrivial, 10);
  EXPECT_GE(not_decomposable, 1);
}

TEST(IncrementalEquivalence, CoreRaisesLowerBoundOnSharedSelect) {
  // A mux tree needs both selects shared: every QD bound below 2 is
  // refuted. The incremental finder's refutation of k=0 should already
  // certify that (refuted_below == 2), which the scratch path cannot.
  Cone cone;
  const aig::Lit s0 = cone.aig.add_input();
  const aig::Lit s1 = cone.aig.add_input();
  const aig::Lit a = cone.aig.add_input();
  const aig::Lit b = cone.aig.add_input();
  const aig::Lit c = cone.aig.add_input();
  const aig::Lit d = cone.aig.add_input();
  cone.root =
      cone.aig.lmux(s0, cone.aig.lmux(s1, a, b), cone.aig.lmux(s1, c, d));
  const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);

  const BruteForceResult oracle =
      brute_force_optimum(cone, GateOp::kOr, MetricKind::kDisjointness);
  ASSERT_TRUE(oracle.decomposable);
  ASSERT_GE(oracle.best_cost, 2);

  QbfPartitionFinder finder(m);
  // Warm the solver on a satisfiable loose bound first (as the MD stage
  // of the schedule would), then refute the tightest bound.
  (void)finder.find_with_bound(QbfModel::kQD, 4);
  const QbfFindResult r = finder.find_with_bound(QbfModel::kQD, 0);
  ASSERT_EQ(r.status, qbf::Qbf2Status::kFalse);
  EXPECT_GE(r.refuted_below, 1);
  EXPECT_LE(r.refuted_below, oracle.best_cost);
}

TEST(IncrementalEquivalence, MixedModelsShareOnePool) {
  // Countermodels discovered under one model seed the persistent solvers
  // of the others (the matrix part is model-independent).
  const Cone cone = testutil::random_cone(5, 16, 13579);
  const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
  QbfPartitionFinder finder(m);
  (void)finder.find_with_bound(QbfModel::kQD, 2);
  const std::size_t after_qd = finder.pool_size();
  (void)finder.find_with_bound(QbfModel::kQB, 2);
  EXPECT_GE(finder.pool_size(), after_qd);
  (void)finder.find_with_bound(QbfModel::kQDB, 2);
  EXPECT_EQ(finder.qbf_calls(), 3);
  EXPECT_GE(finder.total_iterations(), 0);
}

}  // namespace
}  // namespace step::core
