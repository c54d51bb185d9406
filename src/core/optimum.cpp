#include "core/optimum.h"

#include <algorithm>

#include "common/check.h"

namespace step::core {

std::vector<SearchStage> default_schedule(QbfModel model) {
  // Section IV.A.6: best results for disjointness with MD → Bin → MI
  // (iteration caps heuristically chosen); for balancedness with MI.
  if (model == QbfModel::kQB) {
    return {{SearchStrategy::kMonotoneIncreasing, -1}};
  }
  return {{SearchStrategy::kMonotoneDecreasing, 2},
          {SearchStrategy::kBinary, 8},
          {SearchStrategy::kMonotoneIncreasing, -1}};
}

OptimumResult OptimumSearch::run(const std::optional<Partition>& bootstrap,
                                 const Deadline* po_deadline) {
  OptimumResult res;
  const int n = finder_.matrix().n;
  const MetricKind kind = metric_of(model_);
  const int k_max = std::max(0, n - 2);  // cost never exceeds n−2

  auto remaining = [&] {
    return po_deadline != nullptr ? po_deadline->remaining_s() : 1e30;
  };
  auto query = [&](int k) {
    // The per-call deadline chains to the PO deadline so its attachments
    // (memory tracker, fault stream, run-level cancellation) also
    // interrupt a QBF call mid-CEGAR, not just between calls.
    Deadline call(std::min(opts_.call_timeout_s, remaining()));
    call.attach_parent(po_deadline);
    ++res.qbf_calls;
    return finder_.find_with_bound(model_, k, &call);
  };

  int lo = 0;  // invariant: every bound < lo is refuted
  bool have_best = false;

  auto record_best = [&](const Partition& p) {
    const int cost = metric_cost(Metrics::of(p), kind);
    if (!have_best || cost < res.best_cost) {
      have_best = true;
      res.best = p;
      res.best_cost = cost;
    }
  };

  if (bootstrap.has_value()) {
    record_best(*bootstrap);
  } else {
    // Feasibility probe doubles as the loose upper bound (Section IV.A.6:
    // "alternatively, the upper bound can be set to 1", i.e. k_max here).
    const QbfFindResult probe = query(k_max);
    if (probe.status == qbf::Qbf2Status::kFalse) {
      res.outcome = OptimumResult::Outcome::kNotDecomposable;
      res.proven_optimal = true;
      return res;
    }
    if (probe.status == qbf::Qbf2Status::kUnknown) {
      ++res.timeouts;
      res.outcome = OptimumResult::Outcome::kUnknown;
      // A tripped PO deadline names the cause; otherwise the per-call
      // wall budget expired, which is an engine-level deadline. (A SAT
      // conflict cap also lands here; the decomposer refines it from the
      // solver stats.)
      res.reason =
          po_deadline != nullptr && po_deadline->trip() != Deadline::Trip::kNone
              ? reason_of(po_deadline->trip())
              : OutcomeReason::kEngineDeadline;
      return res;
    }
    STEP_CHECK(metric_cost(Metrics::of(probe.partition), kind) <= k_max);
    record_best(probe.partition);
  }

  int hi = std::min(res.best_cost - 1, k_max);
  for (const SearchStage& stage : opts_.schedule.empty()
                                      ? default_schedule(model_)
                                      : opts_.schedule) {
    bool stage_stuck = false;
    for (int iter = 0;
         (stage.max_iterations < 0 || iter < stage.max_iterations) &&
         lo <= hi && !stage_stuck;
         ++iter) {
      if (po_deadline != nullptr && po_deadline->expired()) {
        stage_stuck = true;
        break;
      }
      int k = lo;
      switch (stage.strategy) {
        case SearchStrategy::kMonotoneIncreasing: k = lo; break;
        case SearchStrategy::kMonotoneDecreasing: k = hi; break;
        case SearchStrategy::kBinary: k = lo + (hi - lo) / 2; break;
      }
      const QbfFindResult r = query(k);
      switch (r.status) {
        case qbf::Qbf2Status::kTrue:
          // A witness over the bound would leave hi unchanged and the MI
          // stage re-querying k forever: a broken encoding aborts instead.
          STEP_CHECK(metric_cost(Metrics::of(r.partition), kind) <= k);
          record_best(r.partition);
          hi = std::min(hi, res.best_cost - 1);
          break;
        case qbf::Qbf2Status::kFalse:
          // The finder's refutation certificate can cover more than the
          // queried bound (UNSAT core over the cardinality-counter
          // outputs); skip every bound it already refutes.
          lo = std::max(lo, r.refuted_below);
          break;
        case qbf::Qbf2Status::kUnknown:
          ++res.timeouts;
          stage_stuck = true;  // this stage cannot make progress; move on
          break;
      }
    }
  }

  res.outcome = OptimumResult::Outcome::kFound;
  res.proven_optimal = lo > hi;  // every bound below best_cost refuted
  return res;
}

}  // namespace step::core
