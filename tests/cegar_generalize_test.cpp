// Countermodel generalization in the CEGAR 2QBF loop: an ExistsForallSolver
// given the relaxation matrix's copy map (cegar_prefix) must answer every
// query exactly like the same solver without it, while needing fewer
// refinement rounds.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "aig/ops.h"
#include "benchgen/suite.h"
#include "cnf/cardinality.h"
#include "cnf/cnf.h"
#include "core/qbf_model.h"
#include "core/relaxation.h"
#include "test_util.h"

namespace step::core {
namespace {

struct QdRun {
  qbf::Qbf2Status status = qbf::Qbf2Status::kUnknown;
  Partition partition;
  int iterations = 0;
};

// One disjointness query  ∃α,β ∀X. ¬Φ ∧ fN ∧ |XC| <= k  on a fresh solver
// pair, which generalizes its countermodels iff `generalize`.
QdRun solve_qd(const RelaxationMatrix& m, int k, bool generalize,
               const Deadline* deadline = nullptr) {
  const CegarPrefix p = cegar_prefix(m);
  qbf::ExistsForallSolver s(m.aig, aig::lnot(m.phi), p.outer, p.inner, {},
                            generalize ? p.inner_copy_of : std::vector<int>{});
  cnf::SolverSink sink(s.abstraction());
  sat::LitVec alpha, beta, shared;
  for (int i = 0; i < m.n; ++i) {
    alpha.push_back(sat::mk_lit(s.outer_var(i)));
    beta.push_back(sat::mk_lit(s.outer_var(m.n + i)));
  }
  cnf::at_least_one(sink, alpha);
  cnf::at_least_one(sink, beta);
  for (int i = 0; i < m.n; ++i) {
    sink.add_binary(~alpha[i], ~beta[i]);
    const sat::Lit t = sat::mk_lit(sink.new_var());  // t ⇔ ¬α ∧ ¬β
    sink.add_ternary(t, alpha[i], beta[i]);
    sink.add_binary(~t, ~alpha[i]);
    sink.add_binary(~t, ~beta[i]);
    shared.push_back(t);
  }
  cnf::at_most_k(sink, shared, k);

  const qbf::Qbf2Result r = s.solve(deadline);
  QdRun run;
  run.status = r.status;
  run.iterations = r.iterations;
  if (r.status == qbf::Qbf2Status::kTrue) {
    run.partition.cls.resize(m.n);
    for (int i = 0; i < m.n; ++i) {
      run.partition.cls[i] = r.outer_model[i] == sat::Lbool::kTrue ? VarClass::kA
                             : r.outer_model[m.n + i] == sat::Lbool::kTrue
                                 ? VarClass::kB
                                 : VarClass::kC;
    }
  }
  return run;
}

// Random non-empty care set over n inputs, as an explicit truth table.
CareSet random_care(int n, Rng& rng) {
  std::vector<std::uint64_t> tt(aig::tt_words(n), 0);
  for (std::size_t r = 0; r < (std::size_t{1} << n); ++r) {
    if (rng.next_double() < 0.7) tt[r >> 6] |= 1ULL << (r & 63);
  }
  tt[0] |= 1ULL;  // keep at least one care minterm
  CareSet care;
  std::vector<aig::Lit> inputs(n);
  for (int i = 0; i < n; ++i) inputs[i] = care.aig.add_input();
  care.root = aig::build_from_tt(care.aig, tt, inputs);
  return care;
}

TEST(CegarGeneralization, CopyMapFollowsTheRelaxationMatrix) {
  const Cone cone = testutil::random_cone(3, 8, 11);
  for (GateOp op : {GateOp::kOr, GateOp::kXor}) {
    const RelaxationMatrix m = build_relaxation_matrix(cone, op);
    const CegarPrefix p = cegar_prefix(m);
    const int copies = op == GateOp::kXor ? 4 : 3;
    ASSERT_EQ(p.inner.size(), static_cast<std::size_t>(copies * m.n));
    ASSERT_EQ(p.inner_copy_of.size(), p.inner.size());
    for (int i = 0; i < m.n; ++i) {
      EXPECT_EQ(p.inner[i], m.x[i]);
      EXPECT_EQ(p.inner_copy_of[i], -1);
      EXPECT_EQ(p.inner[p.inner_copy_of[m.n + i]], m.x[i]);
      EXPECT_EQ(p.inner[p.inner_copy_of[2 * m.n + i]], m.x[i]);
      if (op == GateOp::kXor) {
        EXPECT_EQ(p.inner[p.inner_copy_of[3 * m.n + i]], m.xp[i]);
      }
    }
  }
}

TEST(CegarGeneralization, MatchesUngeneralizedOnRandomMatrices) {
  Rng rng(90210);
  int witnesses = 0;
  for (int iter = 0; iter < 30; ++iter) {
    const int n = rng.next_int(2, 6);
    const Cone cone =
        testutil::random_cone(n, rng.next_int(n + 2, 4 * n + 4), rng.next());
    for (GateOp op : {GateOp::kOr, GateOp::kAnd, GateOp::kXor}) {
      for (bool with_care : {false, true}) {
        // XOR keeps exact semantics: the matrix ignores a care set.
        if (with_care && op == GateOp::kXor) continue;
        std::optional<CareSet> care;
        if (with_care) care = random_care(n, rng);
        const CareSet* cp = care ? &*care : nullptr;
        const RelaxationMatrix m = build_relaxation_matrix(cone, op, cp);
        for (int k = 0; k <= n - 2; ++k) {
          const QdRun gen = solve_qd(m, k, /*generalize=*/true);
          const QdRun plain = solve_qd(m, k, /*generalize=*/false);
          const std::string where = "iter " + std::to_string(iter) + " op " +
                                    std::to_string(static_cast<int>(op)) +
                                    " care " + std::to_string(with_care) +
                                    " k " + std::to_string(k);
          ASSERT_NE(gen.status, qbf::Qbf2Status::kUnknown) << where;
          ASSERT_EQ(gen.status, plain.status) << where;
          if (gen.status == qbf::Qbf2Status::kTrue) {
            ++witnesses;
            EXPECT_TRUE(gen.partition.non_trivial()) << where;
            EXPECT_LE(gen.partition.num_c(), k) << where;
            EXPECT_TRUE(check_partition_exhaustive(cone, op, gen.partition, cp))
                << where;
            break;  // every looser bound is satisfiable too
          }
        }
      }
    }
  }
  EXPECT_GT(witnesses, 0);
}

// QD optimum sweep (k = 0, 1, ... until the first witness) over every
// small enough PO cone of a suite, for both solver variants; the per-bound
// answers must agree, and the summed CEGAR rounds are returned in
// *gen_iters / *plain_iters.
void sweep_suite(benchgen::SuiteScale scale, long* gen_iters,
                 long* plain_iters) {
  for (const benchgen::BenchCircuit& c : benchgen::standard_suite(scale)) {
    for (std::uint32_t po = 0; po < c.aig.num_outputs(); ++po) {
      const Cone cone = extract_po_cone(c.aig, po);
      if (cone.n() < 3 || cone.n() > 10) continue;
      const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
      for (int k = 0; k <= cone.n() - 2; ++k) {
        const QdRun gen = solve_qd(m, k, /*generalize=*/true);
        const QdRun plain = solve_qd(m, k, /*generalize=*/false);
        ASSERT_EQ(gen.status, plain.status)
            << c.name << " po " << po << " k " << k;
        *gen_iters += gen.iterations;
        *plain_iters += plain.iterations;
        if (gen.status == qbf::Qbf2Status::kTrue) {
          EXPECT_TRUE(check_partition_exhaustive(cone, GateOp::kOr,
                                                 gen.partition));
          break;
        }
      }
    }
  }
}

TEST(CegarGeneralization, FewerRoundsOnBenchgenSuites) {
  for (benchgen::SuiteScale scale :
       {benchgen::SuiteScale::kTiny, benchgen::SuiteScale::kSmall}) {
    long gen = 0, plain = 0;
    sweep_suite(scale, &gen, &plain);
    EXPECT_GT(plain, 0);
    EXPECT_LT(gen, plain) << "suite scale " << static_cast<int>(scale);
    std::printf("suite scale %d: %ld CEGAR rounds generalized, %ld plain\n",
                static_cast<int>(scale), gen, plain);
  }
}

}  // namespace
}  // namespace step::core
