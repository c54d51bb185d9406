#include "sat/elimination.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "sat/solver.h"

#define PREP_DBG (std::getenv("STEP_DEBUG_PREP") != nullptr)

namespace step::sat {

namespace {

/// Resolvent of `p` (contains v) and `n` (contains ¬v) on v, sorted and
/// deduplicated. Returns false for tautologies.
bool resolve(const Clause& p, const Clause& n, Var v, LitVec& out) {
  out.clear();
  for (Lit l : p.lits()) {
    if (var(l) != v) out.push_back(l);
  }
  for (Lit l : n.lits()) {
    if (var(l) != v) out.push_back(l);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    if (var(out[i]) == var(out[i + 1])) return false;  // tautology
  }
  return true;
}

}  // namespace

void Eliminator::run(LitVec& pending_units) {
  STEP_CHECK(s_.decision_level() == 0);
  budget_ = s_.opts_.elim_budget;

  occs_.assign(s_.bin_watches_.size(), {});
  unit_pending_.assign(s_.num_vars(), 0);
  for (Lit l : pending_units) unit_pending_[var(l)] = 1;
  for (CRef cr : s_.clauses_) {
    const Clause& c = s_.arena_[cr];
    if (c.removed()) continue;
    for (Lit l : c.lits()) occs_[index(l)].push_back(cr);
  }

  // Cheapest variables first — they delete more than they add and keep
  // the occurrence lists small for the heavier candidates.
  std::vector<Var> candidates;
  for (Var v = 0; v < s_.num_vars(); ++v) {
    if (s_.frozen_[v] || s_.var_state_[v] != 0 ||
        s_.value(v) != Lbool::kUndef) {
      continue;
    }
    if (occs_[index(mk_lit(v))].empty() && occs_[index(~mk_lit(v))].empty()) {
      continue;  // unconstrained; nothing to resolve away
    }
    candidates.push_back(v);
  }
  std::sort(candidates.begin(), candidates.end(), [&](Var a, Var b) {
    const std::size_t oa =
        occs_[index(mk_lit(a))].size() + occs_[index(~mk_lit(a))].size();
    const std::size_t ob =
        occs_[index(mk_lit(b))].size() + occs_[index(~mk_lit(b))].size();
    return oa < ob;
  });

  for (Var v : candidates) {
    if (budget_ <= 0 || !s_.ok_) break;
    try_eliminate(v, pending_units);
  }
  if (any_eliminated_) drop_learnts_of_eliminated();
}

bool Eliminator::try_eliminate(Var v, LitVec& pending_units) {
  if (unit_pending_[v]) return false;
  const Lit pos = mk_lit(v);
  // Live occurrence snapshot (entries go stale as neighbours are
  // eliminated and their clauses removed).
  std::vector<CRef> ps, ns;
  auto gather = [&](Lit l, std::vector<CRef>& out) {
    for (CRef cr : occs_[index(l)]) {
      const Clause& c = s_.arena_[cr];
      if (c.removed()) continue;
      bool sat = false;
      for (Lit cl : c.lits()) sat = sat || s_.value(cl) == Lbool::kTrue;
      if (!sat) out.push_back(cr);
    }
  };
  gather(pos, ps);
  gather(~pos, ns);
  budget_ -= static_cast<std::int64_t>(ps.size() + ns.size());
  if (ps.empty() && ns.empty()) return false;
  if (ps.size() > static_cast<std::size_t>(s_.opts_.elim_occ_limit) &&
      ns.size() > static_cast<std::size_t>(s_.opts_.elim_occ_limit)) {
    return false;
  }

  // Clause-distribution bound: all non-tautological resolvents, abandoned
  // as soon as they outnumber the clauses they would replace.
  const std::size_t max_resolvents = ps.size() + ns.size() +
                                     static_cast<std::size_t>(
                                         std::max(0, s_.opts_.elim_grow));
  std::vector<LitVec> resolvents;
  LitVec r;
  for (CRef pc : ps) {
    for (CRef nc : ns) {
      budget_ -= static_cast<std::int64_t>(s_.arena_[pc].size() +
                                           s_.arena_[nc].size());
      if (!resolve(s_.arena_[pc], s_.arena_[nc], v, r)) continue;
      resolvents.push_back(r);
      if (resolvents.size() > max_resolvents) return false;
    }
  }

  // Commit. DRAT order matters: resolvents are RUP only while both parent
  // clauses are still present, so log every addition before any deletion.
  for (const LitVec& res : resolvents) {
    if (s_.opts_.drat_logging) s_.drat_.add(res);
  }
  if (PREP_DBG) {
    std::fprintf(stderr, "elim var %d: %zu pos, %zu neg, %zu resolvents\n", v,
                 ps.size(), ns.size(), resolvents.size());
    auto dump = [&](const char* tag, std::span<const Lit> c) {
      std::fprintf(stderr, "  %s:", tag);
      for (Lit l : c) {
        std::fprintf(stderr, " %s%d", sign(l) ? "-" : "", var(l) + 1);
      }
      std::fprintf(stderr, "\n");
    };
    for (CRef cr : ps) dump("pos", s_.arena_[cr].lits());
    for (CRef cr : ns) dump("neg", s_.arena_[cr].lits());
    for (const LitVec& res : resolvents) dump("res", res);
  }
  s_.reconstruction_.begin_elimination(v);
  for (CRef cr : ps) s_.reconstruction_.add_clause(s_.arena_[cr].lits());
  for (CRef cr : ns) s_.reconstruction_.add_clause(s_.arena_[cr].lits());
  for (const LitVec& res : resolvents) {
    STEP_CHECK(!res.empty());  // both parents ≥ 2 lits and share only v
    if (res.size() == 1) {
      pending_units.push_back(res[0]);
      unit_pending_[var(res[0])] = 1;
      continue;
    }
    const CRef cr = s_.arena_.alloc(res, /*learnt=*/false);
    s_.clauses_.push_back(cr);
    for (Lit l : res) occs_[index(l)].push_back(cr);
  }
  for (CRef cr : ps) s_.mark_removed(cr);
  for (CRef cr : ns) s_.mark_removed(cr);
  // Satisfied clauses containing v still have to go — v must end up with
  // zero live occurrences.
  auto drop_satisfied = [&](Lit l) {
    for (CRef cr : occs_[index(l)]) {
      if (!s_.arena_[cr].removed()) s_.mark_removed(cr);
    }
  };
  drop_satisfied(pos);
  drop_satisfied(~pos);

  s_.var_state_[v] = 1;
  ++s_.stats_.eliminated_vars;
  any_eliminated_ = true;
  return true;
}

/// Learnt clauses over an eliminated variable are deleted wholesale: they
/// are implied by the (pre-elimination) problem clauses, and keeping them
/// would re-introduce occurrences of a variable that must stay decision-
/// and propagation-free.
void Eliminator::drop_learnts_of_eliminated() {
  for (CRef cr : s_.learnts_) {
    Clause& c = s_.arena_[cr];
    if (c.removed()) continue;
    for (Lit l : c.lits()) {
      if (s_.var_state_[var(l)] == 1) {
        s_.mark_removed(cr);
        break;
      }
    }
  }
}

}  // namespace step::sat
