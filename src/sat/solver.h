#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/timer.h"
#include "sat/clause.h"
#include "sat/heap.h"
#include "sat/proof.h"
#include "sat/reconstruction.h"
#include "sat/types.h"

namespace step::sat {

/// Tuning knobs and feature switches. docs/SOLVER.md documents every field
/// and the trade-offs; the defaults are the modern configuration the
/// committed BENCH_sat.json A/B validates.
struct SolverOptions {
  double var_decay = 0.95;
  double clause_decay = 0.999;
  bool phase_saving = true;
  bool minimize_learnt = true;   ///< basic (non-recursive) minimization

  // ---- restarts and learnt-clause reduction ----
  /// Luby restart unit, in conflicts: the n-th restart comes after
  /// luby(n) * restart_base conflicts.
  int restart_base = 100;
  /// Floor of the learnt-clause budget: reduce_db() halves the learnts
  /// once their live count minus the trail reaches
  /// max(max_learnts_floor, 2 * |problem clauses|).
  double max_learnts_floor = 4000.0;

  // ---- inter-solve inprocessing ----
  /// Run bounded inprocessing (satisfied-clause sweep, backward
  /// subsumption, self-subsuming resolution, clause vivification) between
  /// incremental solve() calls. Level-0-only and entailment-preserving, so
  /// it is safe under solve(assumptions). Forced off by proof_logging.
  bool inprocess = true;
  /// solve() calls between inprocessing rounds.
  int inprocess_interval = 2;
  /// Additionally require this many conflicts since the last round — the
  /// incremental engines issue thousands of near-trivial solve() calls,
  /// and a round must never cost more than the search it sped up.
  std::int64_t inprocess_min_conflicts = 2000;
  /// Clause-pair budget of one subsumption round.
  std::int64_t subsume_limit = 100000;
  /// Propagation budget of one vivification round.
  std::int64_t vivify_limit = 10000;
  /// Only clauses up to this many literals are vivified.
  int vivify_max_size = 16;

  // ---- preprocessing (runs inside the inprocessing rounds, plus once
  // ---- before the first search; see docs/SOLVER.md § Preprocessing) ----
  /// Bounded variable elimination (SatELite-style clause distribution).
  /// Eliminated variables are resolved away and their values recovered via
  /// the reconstruction stack; frozen variables are never touched.
  bool elim = true;
  /// SCC-based equivalent-literal detection over the binary implication
  /// graph with representative substitution. Frozen variables are never
  /// substituted away (but may serve as representatives).
  bool scc = true;
  /// Failed-literal probing with lazy hyper-binary resolution and bounded
  /// transitive reduction of the binary implication graph.
  bool probe = true;
  /// Elimination keeps a variable when it would add more than this many
  /// resolvents beyond the clauses it deletes (0 = never grow the DB).
  int elim_grow = 0;
  /// Variables occurring more often than this in *both* polarities are
  /// skipped by elimination (the resolvent cross-product explodes).
  int elim_occ_limit = 16;
  /// Resolution-literal budget of one elimination round.
  std::int64_t elim_budget = 400000;
  /// Propagation budget of one probing round (shared with the transitive-
  /// reduction walk).
  std::int64_t probe_budget = 30000;

  // ---- resource governance ----
  /// Per-solve conflict cap applied to *every* solve() of this solver
  /// (negative = unlimited). Callers that pass an explicit budget to
  /// solve_limited() get the smaller of the two. A capped stop returns
  /// kUnknown and bumps Stats::conflict_budget_stops so outcome
  /// classification (core/outcome.h) can tell it apart from a deadline.
  std::int64_t conflict_budget = -1;
  /// When set, the clause arena charges its capacity growth here (and
  /// refunds on destruction) — the per-cone account of the resource
  /// governor (common/resource.h). The tracker must outlive the solver.
  MemTracker* mem = nullptr;

  // ---- proofs ----
  /// Record the resolution proof. Implies that learnt clauses are never
  /// deleted (proof nodes must stay resolvable) and disables inprocessing,
  /// so enable only for the interpolation queries, which are per-cone and
  /// small.
  bool proof_logging = false;
  /// Record a clausal DRAT trace (additions + deletions) instead;
  /// compatible with learnt-clause reduction and with inprocessing. Check it
  /// with check_drat() against the original clauses.
  bool drat_logging = false;
};

/// Conflict-driven clause-learning SAT solver, MiniSat lineage with the
/// modern hot path: blocking-literal watcher lists plus a dedicated
/// binary-clause implication list, first-UIP learning, VSIDS decisions,
/// phase saving, Luby restarts, a size-triggered activity halving of the
/// learnt clauses, bounded inter-solve inprocessing (subsumption /
/// self-subsuming resolution / vivification), incremental solving under
/// assumptions with final-conflict cores, and optional resolution- or
/// DRAT-proof logging.
///
/// Typical use:
///   Solver s;
///   Var a = s.new_var(), b = s.new_var();
///   s.add_clause({mk_lit(a), mk_lit(b)});
///   Result r = s.solve();
///   if (r == Result::kSat) ... s.model_value(mk_lit(a)) ...
class Solver {
 public:
  explicit Solver(SolverOptions opts = {});

  // ----- problem construction --------------------------------------------
  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause. `proof_tag` labels the proof leaf (interpolation uses
  /// 0 = A-part, 1 = B-part; irrelevant when proof logging is off).
  /// Returns false iff the solver is already in an unsatisfiable state.
  bool add_clause(std::span<const Lit> lits, int proof_tag = 0);
  bool add_clause(std::initializer_list<Lit> lits, int proof_tag = 0) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()),
                      proof_tag);
  }

  /// False once unsatisfiability has been established at level 0.
  bool is_ok() const { return ok_; }

  // ----- solving -----------------------------------------------------------
  Result solve() { return solve(std::span<const Lit>{}); }
  Result solve(std::span<const Lit> assumptions);
  /// Budgeted solve: stops with kUnknown when the conflict budget
  /// (negative = unlimited) or the deadline runs out.
  ///
  /// Interrupt contract: a kUnknown return leaves the solver fully
  /// reusable — the next solve() on the same instance behaves as if the
  /// interrupted call never happened. Specifically: the trail is unwound
  /// to level 0 before returning; assumptions are frozen before any
  /// simplification, so an interrupted call never eliminates a variable a
  /// later call may assume; and inprocessing runs only at solve entry
  /// (never polling the deadline mid-rewrite), with every phase restoring
  /// watch/trail consistency before it returns. This is what lets SIGINT
  /// or the run deadline cancel a cone mid-solve without poisoning
  /// persistent incremental state (see tests/solver_fuzz_test.cpp, cancel
  /// fuzz).
  Result solve_limited(std::span<const Lit> assumptions,
                       std::int64_t conflict_budget = -1,
                       const Deadline* deadline = nullptr);

  // ----- results ------------------------------------------------------------
  /// Model access after kSat.
  Lbool model_value(Lit l) const {
    Lbool v = model_[var(l)];
    return v ^ sign(l);
  }
  Lbool model_value(Var v) const { return model_[v]; }

  /// After kUnsat under assumptions: a subset of the assumptions whose
  /// conjunction is already inconsistent with the clauses (the "core").
  /// Literals appear in their assumed polarity.
  const LitVec& conflict_core() const { return conflict_core_; }

  /// Resolution proof (only populated with proof_logging = true).
  const Proof& proof() const { return proof_; }

  /// DRAT trace (only populated with drat_logging = true).
  const DratTrace& drat() const { return drat_; }

  // ----- heuristics / hints ----------------------------------------------
  /// Preferred phase when the variable is picked as a decision.
  void set_polarity_hint(Var v, bool value) { polarity_[v] = value ? 1 : 0; }

  /// Adds `factor` × the current VSIDS increment to v's activity, steering
  /// upcoming decisions toward v (e.g. deciding problem variables before
  /// encoder auxiliaries). The preference decays like any ordinary bump.
  void boost_var_activity(Var v, double factor = 1.0) { bump_var(v, factor); }

  // ----- preprocessing safety ---------------------------------------------
  /// Marks v untouchable by the preprocessing tier: never eliminated and
  /// never substituted away. Freeze every variable that can ever appear in
  /// an assumption, an interpolation partition label, or an incremental-
  /// counter output. Assumption variables of each solve() are additionally
  /// frozen automatically before any preprocessing runs, so one-shot
  /// callers need no explicit calls; freeze up front whatever becomes an
  /// assumption only in *later* solves.
  void set_frozen(Var v) {
    frozen_[v] = 1;
    if (debug_models_) debug_trace_.push_back("f " + std::to_string(v));
  }
  bool is_frozen(Var v) const { return frozen_[v] != 0; }
  /// True once v has been resolved away by bounded variable elimination.
  bool is_eliminated(Var v) const { return var_state_[v] == 1; }
  /// True once v has been replaced by an equivalent representative literal.
  bool is_substituted(Var v) const { return var_state_[v] == 2; }

  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t binary_propagations = 0;  ///< subset via the binary list
    std::uint64_t restarts = 0;
    std::uint64_t learnt = 0;
    std::uint64_t db_reductions = 0;
    std::uint64_t arena_compactions = 0;  ///< see collect_garbage()
    // Inprocessing totals.
    std::uint64_t inprocess_rounds = 0;
    std::uint64_t subsumed_clauses = 0;
    std::uint64_t strengthened_clauses = 0;
    std::uint64_t vivified_clauses = 0;
    std::uint64_t removed_lits = 0;  ///< via strengthening + vivification
    // Preprocessing totals (BVE / equivalent literals / probing).
    std::uint64_t eliminated_vars = 0;
    std::uint64_t substituted_lits = 0;  ///< literal occurrences rewritten
    std::uint64_t failed_literals = 0;
    std::uint64_t hyper_binaries = 0;
    std::uint64_t transitive_reductions = 0;  ///< redundant binaries deleted
    // Budgeted-stop causes: solve() calls that returned kUnknown because
    // the conflict cap ran out vs. because the deadline (wall budget,
    // memory trip, injected fault — see Deadline::Trip) fired.
    std::uint64_t conflict_budget_stops = 0;
    std::uint64_t deadline_stops = 0;

    Stats& operator+=(const Stats& o);
  };
  const Stats& stats() const { return stats_; }

 private:
  // The preprocessing passes live in their own translation units
  // (elimination.cpp, scc.cpp, probing.cpp) but operate directly on the
  // solver's clause database and trail.
  friend class Eliminator;
  friend class EquivalenceReducer;
  friend class Prober;

  struct Watcher {
    CRef cref;
    Lit blocker;
  };
  /// Binary clauses live in their own implication list: propagating p
  /// scans {other, cref} pairs meaning "clause (~p ∨ other)". No arena
  /// access on the hot path; cref backs reasons and proof ids.
  struct BinWatcher {
    Lit other;
    CRef cref;
  };

  // Internal machinery.
  Lbool value(Lit l) const { return assigns_[var(l)] ^ sign(l); }
  Lbool value(Var v) const { return assigns_[v]; }
  int level(Var v) const { return level_[v]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void attach_clause(CRef cr);
  void detach_clause(CRef cr);
  void enqueue(Lit p, CRef from);
  CRef propagate();
  void cancel_until(int lvl);
  Lit pick_branch_lit();
  void new_decision_level() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
  }

  void analyze(CRef confl, LitVec& out_learnt, int& out_btlevel,
               ProofId& out_start, std::vector<ProofStep>& out_steps,
               LitVec& dropped_level0);
  void analyze_final(Lit p, LitVec& out_core);
  bool lit_redundant(Lit l, std::vector<ProofStep>& steps, LitVec& dropped0,
                     LitVec& to_clear);

  Result search(std::int64_t nof_conflicts, const Deadline* deadline);

  void bump_var(Var v, double factor = 1.0);
  void decay_var_activity() { var_inc_ /= opts_.var_decay; }
  void bump_clause(Clause& c);
  void decay_clause_activity() { cla_inc_ /= opts_.clause_decay; }

  void reduce_db();
  void collect_garbage();

  // Inter-solve inprocessing + preprocessing.
  void inprocess();
  void compact_clause_lists();
  void rebuild_watches();
  bool shrink_clause(CRef cr, const LitVec& new_lits, LitVec& pending_units);
  void mark_removed(CRef cr);
  std::size_t subsume_round(LitVec& pending_units);
  std::size_t vivify_round(LitVec& pending_units);
  bool settle_units(const LitVec& pending_units);

  /// Proof id justifying the level-0 assignment of v.
  ProofId level0_justification(Var v) const;
  /// Removes all literals of `lits` that are false at level 0, appending
  /// the corresponding resolution steps. Requires proof logging.
  void resolve_level0(LitVec& lits, std::vector<ProofStep>& steps);

  // Configuration.
  SolverOptions opts_;

  // Clause database.
  ClauseArena arena_;
  std::vector<CRef> clauses_;  ///< problem clauses
  std::vector<CRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;       ///< indexed by literal
  std::vector<std::vector<BinWatcher>> bin_watches_;  ///< indexed by literal

  // Assignment.
  std::vector<Lbool> assigns_;
  std::vector<int> level_;
  std::vector<CRef> reason_;
  LitVec trail_;
  std::vector<int> trail_lim_;
  LitVec assumptions_;
  int qhead_ = 0;
  bool ok_ = true;

  // Preprocessing state.
  std::vector<char> frozen_;     ///< never eliminated / substituted
  std::vector<char> var_state_;  ///< 0 active, 1 eliminated, 2 substituted
  ReconstructionStack reconstruction_;
  // STEP_DEBUG_MODELS=1: audit every SAT answer against a verbatim copy of
  // all clauses ever added, catching reconstruction bugs at the boundary.
  bool debug_models_ = false;
  std::vector<LitVec> debug_clauses_;
  // Interaction trace for replaying an audit failure: "v n", "f v",
  // "c <lits>", "s <assumptions>" lines.
  std::vector<std::string> debug_trace_;

  // Decision heuristics.
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  VarOrderHeap order_heap_{activity_};
  std::vector<char> polarity_;

  // Learning temporaries.
  std::vector<char> seen_;
  std::vector<char> present_;  ///< literals currently in the learnt clause
  std::vector<char> seen2_;    ///< marks for level-0 resolution chains

  // Results.
  std::vector<Lbool> model_;
  LitVec conflict_core_;

  // Proofs.
  Proof proof_;
  DratTrace drat_;
  std::vector<ProofId> level0_unit_id_;  ///< per var; for reason-less units

  // Learnt DB management.
  double max_learnts_ = 0.0;
  std::uint64_t solve_calls_ = 0;
  std::uint64_t last_inprocess_solve_ = 0;
  std::uint64_t last_inprocess_conflicts_ = 0;
  // Preprocessing-tier scheduling: the tier re-runs only after the problem
  // database grew substantially since its last run (see inprocess()).
  std::uint64_t clauses_added_since_preprocess_ = 0;
  std::size_t last_preprocess_clauses_ = 0;

  Stats stats_;
};

}  // namespace step::sat
