#include "qbf/qbf2.h"

#include <algorithm>

#include "aig/ops.h"
#include "aig/support.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"

namespace step::qbf {

namespace {

/// Tries to view `root` (in `a`) as a disjunction of input literals.
/// Succeeds for the cofactored matrices of the bi-decomposition models,
/// where each refinement is a single clause over the partition variables.
bool collect_or_of_inputs(const aig::Aig& a, aig::Lit root,
                          std::vector<aig::Lit>& leaves) {
  std::vector<aig::Lit> stack{root};
  while (!stack.empty()) {
    const aig::Lit l = stack.back();
    stack.pop_back();
    const std::uint32_t n = aig::node_of(l);
    if (a.is_input(n)) {
      leaves.push_back(l);
      continue;
    }
    if (a.is_and(n) && aig::is_complemented(l)) {
      stack.push_back(aig::lnot(a.fanin0(n)));
      stack.push_back(aig::lnot(a.fanin1(n)));
      continue;
    }
    return false;  // constant or un-complemented AND: not a plain clause
  }
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  return true;
}

}  // namespace

ExistsForallSolver::ExistsForallSolver(const aig::Aig& matrix, aig::Lit root,
                                       std::vector<std::uint32_t> outer_inputs,
                                       std::vector<std::uint32_t> inner_inputs,
                                       CegarOptions opts,
                                       std::vector<int> inner_copy_of)
    : matrix_(matrix),
      root_(root),
      outer_inputs_(std::move(outer_inputs)),
      inner_inputs_(std::move(inner_inputs)),
      opts_(opts),
      abstraction_(opts.sat),
      verification_(opts.sat),
      inner_copy_of_(std::move(inner_copy_of)) {
  input_role_.assign(matrix_.num_inputs(), -1);
  for (std::uint32_t i : outer_inputs_) input_role_[i] = 0;
  for (std::uint32_t i : inner_inputs_) input_role_[i] = 1;

  // Every matrix input the cone reaches must be quantified.
  for (std::uint32_t i : aig::structural_support(matrix_, root_)) {
    STEP_CHECK(input_role_[i] != -1);
  }

  outer_vars_.reserve(outer_inputs_.size());
  for (std::size_t i = 0; i < outer_inputs_.size(); ++i) {
    outer_vars_.push_back(abstraction_.new_var());
    // Candidate models are read back from these vars and callers may
    // assume over them; keep them out of preprocessing's reach.
    abstraction_.set_frozen(outer_vars_.back());
  }

  // Verification solver: assert ¬matrix over fresh vars for all inputs in
  // the cone; candidates arrive later as assumptions on the outer vars.
  ver_input_vars_.assign(matrix_.num_inputs(), sat::kVarUndef);
  std::vector<sat::Lit> input_sat(matrix_.num_inputs(), sat::kLitUndef);
  for (std::uint32_t i : aig::structural_support(matrix_, root_)) {
    ver_input_vars_[i] = verification_.new_var();
    input_sat[i] = sat::mk_lit(ver_input_vars_[i]);
    // Outer-input vars carry the candidate assumptions on every
    // verification call; inner-input vars are read back as countermodels.
    verification_.set_frozen(ver_input_vars_[i]);
  }
  cnf::SolverSink sink(verification_);
  cnf::encode_cone_assert(matrix_, root_, input_sat, sink, /*value=*/false);

  if (!inner_copy_of_.empty()) {
    STEP_CHECK(inner_copy_of_.size() == inner_inputs_.size());
    for (const int src : inner_copy_of_) {
      STEP_CHECK(src >= -1 && src < static_cast<int>(inner_inputs_.size()));
    }
    sim_ = std::make_unique<aig::ConeSimulator>(matrix_, root_, opts_.sat.mem);
    sim_slot_.assign(matrix_.num_inputs(), -1);
    const std::vector<std::uint32_t>& sup = sim_->support();
    for (std::size_t p = 0; p < sup.size(); ++p) {
      sim_slot_[sup[p]] = static_cast<int>(p);
    }
    sim_words_.assign(sup.size(), 0);
  }
}

void ExistsForallSolver::generalize(std::vector<sat::Lbool>& inner) {
  // One simulation lane: bit 0 carries the assignment. Outer values come
  // from the verification model, which agrees with the candidate wherever
  // the candidate is defined.
  auto word = [](sat::Lbool v) {
    return v == sat::Lbool::kTrue ? ~std::uint64_t{0} : std::uint64_t{0};
  };
  const std::vector<std::uint32_t>& sup = sim_->support();
  for (std::size_t p = 0; p < sup.size(); ++p) {
    sim_words_[p] = word(verification_.model_value(ver_input_vars_[sup[p]]));
  }
  for (std::size_t j = 0; j < inner.size(); ++j) {
    const int src = inner_copy_of_[j];
    if (src < 0 || inner[j] == inner[src]) continue;
    const int slot = sim_slot_[inner_inputs_[j]];
    if (slot < 0) {  // outside the cone: the matrix cannot notice
      inner[j] = inner[src];
      continue;
    }
    sim_words_[slot] = word(inner[src]);
    if ((sim_->run(sim_words_) & 1) == 0) {
      inner[j] = inner[src];
    } else {
      sim_words_[slot] = word(inner[j]);
    }
  }
  // The refinement must still exclude the current candidate, or CEGAR
  // could propose it again forever.
  STEP_CHECK((sim_->run(sim_words_) & 1) == 0);
}

void ExistsForallSolver::refine(
    const std::vector<sat::Lbool>& inner_assignment) {
  STEP_CHECK(inner_assignment.size() == inner_inputs_.size());
  // Fast exit for an inner assignment already refined against: pool
  // seeding and persistent multi-query solving replay countermodels whose
  // refinement is already in the abstraction.
  if (!seen_inner_.insert(sat::lbool_key(inner_assignment)).second) return;
  // Cofactor the matrix on the inner countermodel: the result is a
  // constraint purely over the outer inputs.
  aig::Aig dst;
  std::vector<aig::Lit> free_map(matrix_.num_inputs(), aig::kLitInvalid);
  std::vector<sat::Var> dst_input_to_outer;  // dst input pos -> outer pos
  for (std::size_t i = 0; i < outer_inputs_.size(); ++i) {
    free_map[outer_inputs_[i]] = dst.add_input();
    dst_input_to_outer.push_back(static_cast<sat::Var>(i));
  }
  std::vector<int> assignment(matrix_.num_inputs(), -1);
  for (std::size_t j = 0; j < inner_inputs_.size(); ++j) {
    assignment[inner_inputs_[j]] =
        inner_assignment[j] == sat::Lbool::kTrue ? 1 : 0;
  }
  const aig::Lit cof = aig::cofactor(matrix_, root_, dst, assignment, free_map);

  if (cof == aig::kLitTrue) return;  // candidate space unconstrained
  if (cof == aig::kLitFalse) {
    // No outer assignment survives: the formula is false.
    abstraction_.add_clause(std::span<const sat::Lit>{});
    return;
  }

  // Fast path: the cofactor is a plain clause over outer inputs (always the
  // case for the relaxation matrices of Section IV).
  std::vector<aig::Lit> leaves;
  if (opts_.clause_fast_path && collect_or_of_inputs(dst, cof, leaves)) {
    sat::LitVec clause;
    bool tautology = false;
    for (aig::Lit l : leaves) {
      const int dst_idx = dst.input_index(aig::node_of(l));
      const sat::Var v = outer_vars_[dst_input_to_outer[dst_idx]];
      clause.push_back(sat::mk_lit(v, aig::is_complemented(l)));
    }
    std::sort(clause.begin(), clause.end());
    for (std::size_t i = 0; i + 1 < clause.size(); ++i) {
      if (sat::var(clause[i]) == sat::var(clause[i + 1])) tautology = true;
    }
    if (!tautology) {
      // Distinct countermodels frequently cofactor to the same clause;
      // adding it again only bloats the abstraction's watch lists.
      std::string key;
      key.reserve(clause.size() * 4);
      for (const sat::Lit l : clause) {
        key.append(reinterpret_cast<const char*>(&l.x), sizeof(l.x));
      }
      if (seen_clauses_.insert(std::move(key)).second) {
        abstraction_.add_clause(clause);
      }
    }
    return;
  }

  // General path: Tseitin-encode the cofactored cone into the abstraction.
  std::vector<sat::Lit> input_sat(dst.num_inputs(), sat::kLitUndef);
  for (std::uint32_t i = 0; i < dst.num_inputs(); ++i) {
    input_sat[i] = sat::mk_lit(outer_vars_[dst_input_to_outer[i]]);
  }
  cnf::SolverSink sink(abstraction_);
  cnf::encode_cone_assert(dst, cof, input_sat, sink, /*value=*/true);
}

void ExistsForallSolver::seed_countermodel(
    const std::vector<sat::Lbool>& inner_assignment) {
  refine(inner_assignment);
}

Qbf2Result ExistsForallSolver::solve(const Deadline* deadline) {
  return solve(std::span<const sat::Lit>{}, deadline);
}

Qbf2Result ExistsForallSolver::solve(std::span<const sat::Lit> assumptions,
                                     const Deadline* deadline) {
  Qbf2Result res;
  for (;;) {
    if (deadline != nullptr && deadline->expired()) {
      res.status = Qbf2Status::kUnknown;
      res.stopped_by = deadline->trip();
      return res;
    }
    const sat::Result ra =
      abstraction_.solve_limited(assumptions, -1, deadline);
    if (ra == sat::Result::kUnknown) {
      res.status = Qbf2Status::kUnknown;
      if (deadline != nullptr) res.stopped_by = deadline->trip();
      return res;
    }
    if (ra == sat::Result::kUnsat) {
      res.status = Qbf2Status::kFalse;
      return res;
    }

    // Candidate: outer assignment proposed by the abstraction.
    std::vector<sat::Lbool> cand(outer_inputs_.size());
    sat::LitVec assumps;
    for (std::size_t i = 0; i < outer_inputs_.size(); ++i) {
      cand[i] = abstraction_.model_value(outer_vars_[i]);
      const sat::Var vv = ver_input_vars_[outer_inputs_[i]];
      if (vv != sat::kVarUndef && cand[i] != sat::Lbool::kUndef) {
        assumps.push_back(sat::mk_lit(vv, cand[i] == sat::Lbool::kFalse));
      }
    }

    const sat::Result rv = verification_.solve_limited(assumps, -1, deadline);
    if (rv == sat::Result::kUnknown) {
      res.status = Qbf2Status::kUnknown;
      if (deadline != nullptr) res.stopped_by = deadline->trip();
      return res;
    }
    if (rv == sat::Result::kUnsat) {
      res.status = Qbf2Status::kTrue;
      res.outer_model = std::move(cand);
      return res;
    }

    // Countermodel: inner assignment falsifying the matrix.
    std::vector<sat::Lbool> inner(inner_inputs_.size(), sat::Lbool::kFalse);
    for (std::size_t j = 0; j < inner_inputs_.size(); ++j) {
      const sat::Var vv = ver_input_vars_[inner_inputs_[j]];
      if (vv != sat::kVarUndef &&
          verification_.model_value(vv) == sat::Lbool::kTrue) {
        inner[j] = sat::Lbool::kTrue;
      }
    }
    if (sim_ != nullptr) generalize(inner);
    countermodels_.push_back(inner);
    refine(inner);
    ++res.iterations;
  }
}

}  // namespace step::qbf
