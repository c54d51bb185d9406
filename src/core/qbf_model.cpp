#include "core/qbf_model.h"

#include <algorithm>

#include "cnf/cnf.h"

namespace step::core {

CegarPrefix cegar_prefix(const RelaxationMatrix& m) {
  const int n = m.n;
  CegarPrefix p;
  p.outer = m.alpha;
  p.outer.insert(p.outer.end(), m.beta.begin(), m.beta.end());
  p.inner = m.x;
  p.inner.insert(p.inner.end(), m.xp.begin(), m.xp.end());
  p.inner.insert(p.inner.end(), m.xpp.begin(), m.xpp.end());
  p.inner.insert(p.inner.end(), m.xppp.begin(), m.xppp.end());
  // Inner positions: X at [0, n), X' at [n, 2n), X'' at [2n, 3n), X''' at
  // [3n, 4n). X' is generalized before X''', so x'''_i copies the already
  // generalized x'_i.
  p.inner_copy_of.assign(p.inner.size(), -1);
  for (int i = 0; i < n; ++i) {
    p.inner_copy_of[n + i] = i;
    p.inner_copy_of[2 * n + i] = i;
    if (!m.xppp.empty()) p.inner_copy_of[3 * n + i] = n + i;
  }
  return p;
}

QbfPartitionFinder::QbfPartitionFinder(const RelaxationMatrix& m,
                                       QbfFinderOptions opts)
    : m_(m), opts_(opts), prefix_(cegar_prefix(m)) {
  const int n = m_.n;

  // The abstraction allocates one variable per outer input, in order, into
  // a fresh solver: α occupies [0, n) and β occupies [n, 2n) in every
  // instance, so the side-constraint clauses can be cached as templates.
  alpha_.resize(n);
  beta_.resize(n);
  for (int i = 0; i < n; ++i) {
    alpha_[i] = sat::mk_lit(static_cast<sat::Var>(i));
    beta_[i] = sat::mk_lit(static_cast<sat::Var>(n + i));
  }

  // fN: non-trivial partition, one class per variable.
  cnf::VecSink fn_sink(static_cast<sat::Var>(2 * n));
  cnf::at_least_one(fn_sink, alpha_);
  cnf::at_least_one(fn_sink, beta_);
  for (int i = 0; i < n; ++i) fn_sink.add_binary(~alpha_[i], ~beta_[i]);
  STEP_CHECK(fn_sink.num_vars() == 2 * n);  // fN allocates no aux vars
  fn_clauses_ = fn_sink.clauses();

  // Shared-variable indicators t_i ⇔ (¬α_i ∧ ¬β_i), used by QD and by the
  // scratch QDB path; the t vars land at [2n, 3n) when replayed after fN.
  cnf::VecSink t_sink(static_cast<sat::Var>(2 * n));
  shared_lits_.resize(n);
  for (int i = 0; i < n; ++i) {
    const sat::Lit t = sat::mk_lit(t_sink.new_var());
    shared_lits_[i] = t;
    t_sink.add_ternary(t, alpha_[i], beta_[i]);
    t_sink.add_binary(~t, ~alpha_[i]);
    t_sink.add_binary(~t, ~beta_[i]);
  }
  shared_clauses_ = t_sink.clauses();
}

std::unique_ptr<qbf::ExistsForallSolver> QbfPartitionFinder::make_solver()
    const {
  return std::make_unique<qbf::ExistsForallSolver>(
      m_.aig, aig::lnot(m_.phi), prefix_.outer, prefix_.inner, opts_.cegar,
      prefix_.inner_copy_of);
}

sat::LitVec QbfPartitionFinder::install_side_constraints(
    qbf::ExistsForallSolver& solver, bool want_shared) const {
  const int n = m_.n;
  for (int i = 0; i < n; ++i) {
    STEP_CHECK(solver.outer_var(i) == sat::var(alpha_[i]));
    STEP_CHECK(solver.outer_var(n + i) == sat::var(beta_[i]));
  }
  cnf::SolverSink sink(solver.abstraction());
  for (const sat::LitVec& c : fn_clauses_) sink.add_clause(c);
  if (!want_shared) return {};
  for (const sat::Lit l : shared_lits_) {
    const sat::Var v = sink.new_var();
    STEP_CHECK(v == sat::var(l));
  }
  for (const sat::LitVec& c : shared_clauses_) sink.add_clause(c);
  return shared_lits_;
}

void QbfPartitionFinder::add_lex_leader(cnf::ClauseSink& sink) const {
  // Every β_i needs some α_j with j < i. `seen` ⇔ α_0 ∨ … ∨ α_{i−1} is a
  // chain of prefix ORs, fully defined so that α and β propagate both ways.
  const int n = m_.n;  // >= 1: fN's at_least_one checks it
  sink.add_unit(~beta_[0]);
  sat::Lit seen = alpha_[0];
  for (int i = 1; i < n; ++i) {
    sink.add_binary(~beta_[i], seen);
    if (i + 1 == n) break;
    const sat::Lit next = sat::mk_lit(sink.new_var());
    sink.add_binary(~seen, next);
    sink.add_binary(~alpha_[i], next);
    sink.add_ternary(~next, seen, alpha_[i]);
    seen = next;
  }
}

Partition QbfPartitionFinder::decode_partition(
    const std::vector<sat::Lbool>& outer_model) const {
  const int n = m_.n;
  Partition p;
  p.cls.resize(n);
  for (int i = 0; i < n; ++i) {
    const bool in_a = outer_model[i] == sat::Lbool::kTrue;
    const bool in_b = outer_model[n + i] == sat::Lbool::kTrue;
    STEP_CHECK(!(in_a && in_b));
    p.cls[i] = in_a ? VarClass::kA : in_b ? VarClass::kB : VarClass::kC;
  }
  return p;
}

void QbfPartitionFinder::absorb_countermodel(
    const std::vector<sat::Lbool>& cm) {
  if (!pool_keys_.insert(sat::lbool_key(cm)).second) return;
  pool_.push_back(cm);
}

QbfPartitionFinder::IncState& QbfPartitionFinder::state_for(QbfModel model) {
  auto& slot = inc_[static_cast<std::size_t>(model)];
  if (slot) return *slot;

  slot = std::make_unique<IncState>();
  IncState& st = *slot;
  st.solver = make_solver();

  const bool sym = opts_.symmetry_breaking;
  const sat::LitVec t =
      install_side_constraints(*st.solver, model == QbfModel::kQD);
  cnf::SolverSink sink(st.solver->abstraction());

  // fT is *not* encoded per bound. Each inequality of the target becomes
  // one counter over its mixed-polarity literal list; a concrete bound k
  // is later enforced by assuming the counter's output suffix above
  // ⌊(k + offset) / scale⌋ (offset = the |neg| shift of the difference
  // form). The bound-independent symmetry break goes in as hard clauses,
  // in the same position of the scratch path's clause order for QD and QB.
  auto add_bound = [&](const sat::LitVec& pos, const sat::LitVec& neg,
                       int scale) {
    sat::LitVec lits(pos);
    for (const sat::Lit l : neg) lits.push_back(~l);
    st.bounds.push_back(
        {std::make_unique<cnf::IncrementalCounter>(sink, lits),
         static_cast<int>(neg.size()), scale});
  };
  switch (model) {
    case QbfModel::kQD:
      add_bound(t, {}, 1);
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      break;
    case QbfModel::kQB:
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      add_bound(alpha_, beta_, 1);
      if (!sym) add_bound(beta_, alpha_, 1);
      break;
    case QbfModel::kQDB:
      // fN makes exactly one of α_i, β_i, t_i true per variable, so
      // #XC + |#XA − #XB| = n − 2·min(#XA, #XB): cost <= k holds iff
      // #XA and #XB are both >= ⌈(n − k)/2⌉, i.e. iff at most ⌊(k + n)/2⌋
      // of ¬β and at most ⌊(k + n)/2⌋ of ¬α are true — two n-literal
      // counters at scale 2. The cost is swap-invariant, so any break of
      // the XA/XB symmetry keeps the optimum; the lex-leader chain is the
      // cheapest one.
      if (sym) add_lex_leader(sink);
      add_bound({}, beta_, 2);
      add_bound({}, alpha_, 2);
      break;
  }

  // Carry everything already learned about this matrix into the new pair.
  if (opts_.pool_seeding) {
    for (const auto& cm : pool_) st.solver->seed_countermodel(cm);
  }
  return st;
}

QbfFindResult QbfPartitionFinder::find_incremental(QbfModel model, int k,
                                                   const Deadline* deadline) {
  IncState& st = state_for(model);
  qbf::ExistsForallSolver& solver = *st.solver;
  const std::uint64_t abs0 = solver.abstraction_stats().conflicts;
  const std::uint64_t ver0 = solver.verification_stats().conflicts;

  sat::LitVec assumps;
  for (const BoundCounter& bt : st.bounds) {
    bt.counter->assume_at_most(bt.at_most(k), assumps);
  }
  // Candidate steering, re-applied per query because phase saving and
  // VSIDS decay drift the persistent solver away from the fresh-solver
  // behaviour the scratch path gets for free: prefer false phases on α/β
  // (maximally-shared candidates survive verification most often), and
  // for the balancedness-driven models put the partition variables ahead
  // of the encoder auxiliaries in the decision order. Measured on the
  // table-III suite this collapses the QB bound sweeps (~4x fewer CEGAR
  // rounds than scratch) and trims QDB, while QD does best with plain
  // VSIDS order (see BENCH_table3.json).
  for (int i = 0; i < 2 * m_.n; ++i) {
    solver.abstraction().set_polarity_hint(solver.outer_var(i), false);
  }
  if (model != QbfModel::kQD) {
    for (int i = 0; i < 2 * m_.n; ++i) {
      solver.abstraction().boost_var_activity(solver.outer_var(i));
    }
  }
  const qbf::Qbf2Result r = solver.solve(assumps, deadline);

  abs_conflicts_ += solver.abstraction_stats().conflicts - abs0;
  ver_conflicts_ += solver.verification_stats().conflicts - ver0;
  const auto& cms = solver.countermodels();
  for (; st.pool_synced < cms.size(); ++st.pool_synced) {
    absorb_countermodel(cms[st.pool_synced]);
  }

  QbfFindResult result;
  result.status = r.status;
  result.iterations = r.iterations;
  if (r.status == qbf::Qbf2Status::kTrue) {
    result.partition = decode_partition(r.outer_model);
  } else if (r.status == qbf::Qbf2Status::kFalse) {
    // The final conflict's assumption core certifies how much of the bound
    // was actually needed. A core whose smallest counter output is o_m
    // proves the tracked sum is forced to at least m in *every* candidate,
    // refuting every bound below scale·m − offset; an assumption-free core
    // means fN plus the refinements alone are inconsistent — no bound helps.
    const sat::LitVec& core = solver.abstraction_core();
    auto in_core = [&](sat::Lit l) {
      return std::find(core.begin(), core.end(), l) != core.end();
    };
    int refuted = m_.n;  // no core hit: refuted at every feasible bound
    for (const BoundCounter& bt : st.bounds) {
      const int first = std::max(bt.at_most(k) + 1, 1);
      for (int j = first; j <= bt.counter->size(); ++j) {
        if (in_core(~bt.counter->output(j))) {
          refuted = std::min(refuted, bt.scale * j - bt.offset);
          break;
        }
      }
    }
    result.refuted_below = std::max(k + 1, refuted);
  }
  return result;
}

QbfFindResult QbfPartitionFinder::find_scratch(QbfModel model, int k,
                                               const Deadline* deadline) {
  const std::unique_ptr<qbf::ExistsForallSolver> owned = make_solver();
  qbf::ExistsForallSolver& solver = *owned;
  const bool sym = opts_.symmetry_breaking;
  const sat::LitVec t =
      install_side_constraints(solver, model != QbfModel::kQB);
  cnf::SolverSink sink(solver.abstraction());

  // fT: the target constraint for the requested model and bound.
  switch (model) {
    case QbfModel::kQD: {
      cnf::at_most_k(sink, t, k);
      // Symmetry breaking |XA| >= |XB| (Section IV.A.2).
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      break;
    }
    case QbfModel::kQB: {
      // 0 <= #XA − #XB <= k (eq. (6); symmetry removed by construction).
      // Without the symmetry break, bound |#XA − #XB| <= k instead.
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      cnf::diff_at_most_k(sink, alpha_, beta_, k);
      if (!sym) cnf::diff_at_most_k(sink, beta_, alpha_, k);
      break;
    }
    case QbfModel::kQDB: {
      // 0 <= #XC + #XA − #XB <= k with |XA| >= |XB| (eq. (8)); the
      // unbroken variant bounds #XC + |#XA − #XB| <= k.
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      sat::LitVec pos_a(t);
      pos_a.insert(pos_a.end(), alpha_.begin(), alpha_.end());
      cnf::diff_at_most_k(sink, pos_a, beta_, k);
      if (!sym) {
        sat::LitVec pos_b(t);
        pos_b.insert(pos_b.end(), beta_.begin(), beta_.end());
        cnf::diff_at_most_k(sink, pos_b, alpha_, k);
      }
      break;
    }
  }

  // Replay previously discovered universal countermodels.
  if (opts_.pool_seeding) {
    for (const auto& cm : pool_) solver.seed_countermodel(cm);
  }

  const qbf::Qbf2Result r = solver.solve(deadline);
  abs_conflicts_ += solver.abstraction_stats().conflicts;
  ver_conflicts_ += solver.verification_stats().conflicts;
  scratch_stats_ += solver.abstraction_stats();
  scratch_stats_ += solver.verification_stats();
  for (const auto& cm : solver.countermodels()) absorb_countermodel(cm);

  QbfFindResult result;
  result.status = r.status;
  result.iterations = r.iterations;
  if (r.status == qbf::Qbf2Status::kTrue) {
    result.partition = decode_partition(r.outer_model);
  } else if (r.status == qbf::Qbf2Status::kFalse) {
    result.refuted_below = k + 1;
  }
  return result;
}

sat::Solver::Stats QbfPartitionFinder::solver_stats() const {
  sat::Solver::Stats s = scratch_stats_;
  for (const auto& slot : inc_) {
    if (slot != nullptr && slot->solver != nullptr) {
      s += slot->solver->abstraction_stats();
      s += slot->solver->verification_stats();
    }
  }
  return s;
}

QbfFindResult QbfPartitionFinder::find_with_bound(QbfModel model, int k,
                                                  const Deadline* deadline) {
  ++qbf_calls_;
  QbfFindResult r = opts_.incremental ? find_incremental(model, k, deadline)
                                      : find_scratch(model, k, deadline);
  total_iterations_ += r.iterations;
  return r;
}

}  // namespace step::core
