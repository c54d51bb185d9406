#include "sat/scc.h"

#include <algorithm>

#include "sat/solver.h"

namespace step::sat {

void EquivalenceReducer::run(LitVec& pending_units) {
  STEP_CHECK(s_.decision_level() == 0);
  const std::size_t n_lits = s_.bin_watches_.size();
  dfs_index_.assign(n_lits, -1);
  low_link_.assign(n_lits, -1);
  on_stack_.assign(n_lits, 0);
  sub_.assign(static_cast<std::size_t>(s_.num_vars()), kLitUndef);
  var_done_.assign(static_cast<std::size_t>(s_.num_vars()), 0);

  for (std::size_t i = 0; i < n_lits && s_.ok_; ++i) {
    if (dfs_index_[i] == -1) tarjan(Lit{static_cast<std::int32_t>(i)});
  }
  if (s_.ok_ && any_sub_) rewrite_clauses(pending_units);
}

/// Iterative Tarjan from `root` over the binary implication edges
/// p → other read straight from bin_watches_[index(p)].
void EquivalenceReducer::tarjan(Lit root) {
  struct Frame {
    Lit lit;
    std::size_t next_edge;
  };
  std::vector<Frame> stack{{root, 0}};
  dfs_index_[index(root)] = low_link_[index(root)] = next_index_++;
  scc_stack_.push_back(root);
  on_stack_[index(root)] = 1;

  while (!stack.empty() && s_.ok_) {
    Frame& f = stack.back();
    const auto& edges = s_.bin_watches_[index(f.lit)];
    if (f.next_edge < edges.size()) {
      const Lit succ = edges[f.next_edge++].other;
      if (dfs_index_[index(succ)] == -1) {
        dfs_index_[index(succ)] = low_link_[index(succ)] = next_index_++;
        scc_stack_.push_back(succ);
        on_stack_[index(succ)] = 1;
        stack.push_back({succ, 0});
      } else if (on_stack_[index(succ)]) {
        low_link_[index(f.lit)] =
            std::min(low_link_[index(f.lit)], dfs_index_[index(succ)]);
      }
      continue;
    }
    // All successors explored: close the frame.
    if (low_link_[index(f.lit)] == dfs_index_[index(f.lit)]) {
      LitVec members;
      Lit m;
      do {
        m = scc_stack_.back();
        scc_stack_.pop_back();
        on_stack_[index(m)] = 0;
        members.push_back(m);
      } while (m != f.lit);
      if (members.size() > 1) process_component(members);
    }
    const Lit done = f.lit;
    stack.pop_back();
    if (!stack.empty()) {
      low_link_[index(stack.back().lit)] = std::min(
          low_link_[index(stack.back().lit)], low_link_[index(done)]);
    }
  }
}

void EquivalenceReducer::process_component(const LitVec& members) {
  // x and ¬x equivalent: the formula is refuted. {x} is RUP (assuming ¬x
  // propagates back to x along the binary chain), and with it the empty
  // clause is.
  for (Lit l : members) {
    for (Lit o : members) {
      if (o == ~l) {
        if (s_.opts_.drat_logging) {
          s_.drat_.add(std::span<const Lit>(&l, 1));
          s_.drat_.add({});
        }
        s_.ok_ = false;
        return;
      }
    }
  }
  // The mirror component (all members negated) describes the same
  // equivalence class; process each variable set once.
  if (var_done_[var(members[0])]) return;
  for (Lit l : members) var_done_[var(l)] = 1;
  // Assigned components were fully propagated by the caller's settle —
  // substitution would be pointless churn.
  if (s_.value(members[0]) != Lbool::kUndef) return;

  Lit rep = members[0];
  for (Lit l : members) {
    if (s_.frozen_[var(l)]) {
      rep = l;
      break;
    }
  }
  for (Lit l : members) {
    const Var v = var(l);
    if (v == var(rep) || s_.frozen_[v] || s_.var_state_[v] != 0) continue;
    // Member literal l ≡ rep, so variable v ≡ (sign-adjusted) rep.
    const Lit target = sign(l) ? ~rep : rep;
    sub_[v] = target;
    s_.var_state_[v] = 2;
    s_.reconstruction_.push_substitution(v, target);
    any_sub_ = true;
  }
}

void EquivalenceReducer::rewrite_clauses(LitVec& pending_units) {
  // Two phases so the DRAT trace stays checkable: first log every
  // rewritten clause (RUP while the equivalence binaries are all still in
  // the database), then delete/mutate the originals — which include those
  // very binaries, collapsed to tautologies.
  struct Rewrite {
    CRef cr;
    bool taut;
    LitVec lits;
  };
  std::vector<Rewrite> rewrites;
  LitVec scratch;

  auto scan_list = [&](const std::vector<CRef>& list) {
    for (CRef cr : list) {
      Clause& c = s_.arena_[cr];
      if (c.removed()) continue;
      bool touched = false;
      for (Lit l : c.lits()) touched = touched || sub_[var(l)] != kLitUndef;
      if (!touched) continue;
      scratch.clear();
      for (Lit l : c.lits()) {
        const Lit t = sub_[var(l)];
        if (t == kLitUndef) {
          scratch.push_back(l);
        } else {
          scratch.push_back(sign(l) ? ~t : t);
          ++s_.stats_.substituted_lits;
        }
      }
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      bool taut = false;
      for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
        if (var(scratch[i]) == var(scratch[i + 1])) taut = true;
      }
      if (!taut && s_.opts_.drat_logging) s_.drat_.add(scratch);
      rewrites.push_back({cr, taut, scratch});
    }
  };
  scan_list(s_.clauses_);
  scan_list(s_.learnts_);

  for (Rewrite& rw : rewrites) {
    Clause& c = s_.arena_[rw.cr];
    if (rw.taut) {
      s_.mark_removed(rw.cr);
      continue;
    }
    if (s_.opts_.drat_logging) s_.drat_.del(c.lits());
    if (rw.lits.size() == 1) {
      pending_units.push_back(rw.lits[0]);
      c.set_removed();
      continue;
    }
    for (std::size_t i = 0; i < rw.lits.size(); ++i) {
      c[static_cast<std::uint32_t>(i)] = rw.lits[i];
    }
    c.shrink(static_cast<std::uint32_t>(rw.lits.size()));
  }
}

}  // namespace step::sat
