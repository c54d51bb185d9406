#include "sat/probing.h"

#include <cstdio>
#include <cstdlib>

#include "sat/solver.h"

#define PREP_DBG (std::getenv("STEP_DEBUG_PREP") != nullptr)

namespace step::sat {

/// True iff the binary clause (a ∨ b) is already in the database.
/// Clauses (a ∨ b) are listed in bin_watches_[index(~a)] as {other = b}.
bool Prober::has_binary(Lit a, Lit b) const {
  for (const auto& w : s_.bin_watches_[index(~a)]) {
    if (w.other == b) return true;
  }
  return false;
}

void Prober::run() {
  STEP_CHECK(s_.decision_level() == 0);
  budget_ = s_.opts_.probe_budget;
  // Probe backtracking runs through the ordinary phase-saving path;
  // restore the saved phases afterwards so probes cannot override user
  // polarity hints or the phases real search converged on.
  const std::vector<char> saved_polarity(s_.polarity_);
  const int nv = s_.num_vars();
  for (Var v = 0; v < nv && budget_ > 0 && s_.ok_; ++v) {
    if (s_.value(v) != Lbool::kUndef || s_.var_state_[v] != 0) continue;
    for (const bool neg : {false, true}) {
      const Lit l = mk_lit(v, neg);
      // Nothing watches ¬l: assuming l cannot propagate anything.
      if (s_.bin_watches_[index(l)].empty() && s_.watches_[index(l)].empty()) {
        continue;
      }
      if (!probe(l) || !s_.ok_) break;
      if (s_.value(v) != Lbool::kUndef) break;  // became a failed literal
    }
  }
  s_.polarity_ = saved_polarity;
  if (s_.ok_) transitive_reduction();
}

bool Prober::probe(Lit l) {
  const std::size_t root = s_.trail_.size();
  s_.new_decision_level();
  s_.enqueue(l, kCRefUndef);
  const CRef confl = s_.propagate();
  budget_ -= static_cast<std::int64_t>(s_.trail_.size() - root) + 1;

  if (confl != kCRefUndef) {
    s_.cancel_until(0);
    ++s_.stats_.failed_literals;
    if (PREP_DBG) {
      std::fprintf(stderr, "probe: failed literal %s%d\n", sign(l) ? "-" : "",
                   var(l) + 1);
    }
    // l leads to a conflict by unit propagation alone, so {¬l} is RUP.
    const Lit unit = ~l;
    if (s_.opts_.drat_logging) {
      s_.drat_.add(std::span<const Lit>(&unit, 1));
    }
    s_.enqueue(unit, kCRefUndef);
    if (s_.propagate() != kCRefUndef) {
      if (s_.opts_.drat_logging) s_.drat_.add({});
      s_.ok_ = false;
    }
    return budget_ > 0;
  }

  // Lazy hyper-binary resolution: any literal the probe forced through a
  // long clause is a direct binary consequence of l (the only decision on
  // the trail), and (¬l ∨ m) is RUP against the propagating clauses.
  LitVec hyper;
  for (std::size_t i = root + 1; i < s_.trail_.size() && budget_ > 0; ++i) {
    const Lit m = s_.trail_[i];
    const CRef r = s_.reason_[var(m)];
    if (r == kCRefUndef || s_.arena_[r].size() == 2) continue;
    budget_ -= static_cast<std::int64_t>(s_.bin_watches_[index(l)].size());
    if (has_binary(~l, m)) continue;
    hyper.push_back(m);
  }
  s_.cancel_until(0);
  for (const Lit m : hyper) {
    if (budget_ <= 0) break;
    const Lit bin[2] = {~l, m};
    if (s_.opts_.drat_logging) s_.drat_.add(std::span<const Lit>(bin, 2));
    const CRef cr = s_.arena_.alloc(std::span<const Lit>(bin, 2),
                                    /*learnt=*/false);
    s_.clauses_.push_back(cr);
    s_.attach_clause(cr);
    ++s_.stats_.hyper_binaries;
    if (PREP_DBG) {
      std::fprintf(stderr, "probe: hyper-binary (%s%d %s%d)\n",
                   sign(bin[0]) ? "-" : "", var(bin[0]) + 1,
                   sign(bin[1]) ? "-" : "", var(bin[1]) + 1);
    }
    budget_ -= 2;
  }
  return budget_ > 0;
}

/// Deletes problem binaries (a ∨ b) whose edge ¬a→b is reproduced by a
/// chain of *other* binary edges — a bounded BFS per clause, skipping the
/// clause under test. Deletion-only, so always proof- and model-safe.
void Prober::transitive_reduction() {
  seen_stamp_.assign(s_.bin_watches_.size(), 0);
  LitVec queue;
  const std::vector<CRef> snapshot(s_.clauses_);
  for (CRef cr : snapshot) {
    if (budget_ <= 0) return;
    Clause& c = s_.arena_[cr];
    if (c.removed() || c.size() != 2) continue;
    if (s_.value(c[0]) != Lbool::kUndef || s_.value(c[1]) != Lbool::kUndef) {
      continue;
    }
    const Lit from = ~c[0], target = c[1];
    // BFS from `from` over binary edges, never crossing cr itself.
    ++stamp_;
    queue.clear();
    queue.push_back(from);
    seen_stamp_[index(from)] = stamp_;
    bool reached = false;
    std::int64_t steps = 64;  // per-clause cap: TR is a cheap closing pass
    for (std::size_t qi = 0; qi < queue.size() && !reached && steps > 0;
         ++qi) {
      for (const auto& w : s_.bin_watches_[index(queue[qi])]) {
        --steps;
        --budget_;
        if (w.cref == cr) continue;
        if (w.other == target) {
          reached = true;
          break;
        }
        if (seen_stamp_[index(w.other)] != stamp_) {
          seen_stamp_[index(w.other)] = stamp_;
          queue.push_back(w.other);
        }
      }
    }
    if (reached) {
      if (PREP_DBG) {
        std::fprintf(stderr, "probe: TR delete (%s%d %s%d)\n",
                     sign(c[0]) ? "-" : "", var(c[0]) + 1,
                     sign(c[1]) ? "-" : "", var(c[1]) + 1);
      }
      s_.detach_clause(cr);
      s_.mark_removed(cr);
      ++s_.stats_.transitive_reductions;
    }
  }
}

}  // namespace step::sat
