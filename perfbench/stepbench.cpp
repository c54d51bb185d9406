// Whole-pipeline benchmark for the STEP bi-decomposition library.
//
// One process runs one workload on one seed:
//
//   stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and prints, as its last line, one JSON object with the keys `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). README.md in this directory explains
// the workloads, the metrics and the noise controls.
//
// The library is driven from outside only, through its public entry points:
// io::parse_aiger_binary for set-up, core::run_circuit and
// core::run_circuit_resynth for the timed passes. A separate replay pass
// calls each layer's public functions itself, records a span around every
// call, and cross-checks every answer against the timed passes; no tracing
// code lives in the library.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/simulate.h"
#include "aig/support.h"
#include "aig/window.h"
#include "benchgen/suite.h"
#include "core/circuit_driver.h"
#include "io/aiger.h"

namespace {

using namespace step;
using core::DecomposeStatus;

// ------------------------------------------------------------ workloads

enum class Kind { kDecompose, kResynth };

struct Workload {
  const char* name;
  Kind kind;
  core::Engine engine;
  bool use_dont_cares;
  int threads;
  benchgen::SuiteScale scale;
  /// Suite circuits to run, in suite order; empty = the whole suite.
  std::vector<std::string> circuits;
  /// Timed passes over the circuits. Fixed per workload, so the amount of
  /// work in a run never depends on how fast the machine happens to be.
  int rounds;
  /// Back-to-back whole-workload parses timed as one set-up sample, enough
  /// that one sample lasts about 10 ms.
  int parses_per_setup;
};

// Every search is bounded by this per-solve conflict cap and by nothing
// else: all wall-clock budgets are unlimited, so a slow run does exactly
// the same work as a fast one.
constexpr std::int64_t kConflictCap = 300;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      // The QBF optimum search does most of the work; hard cones stop at
      // the conflict cap instead of a wall-clock timeout.
      {"qdb-hard", Kind::kDecompose, core::Engine::kQbfCombined, false, 1,
       benchgen::SuiteScale::kFull, {}, 3, 32},
      // Don't-care windows plus the MG relaxation solver, zero QBF calls:
      // the control for QBF changes, and the only multi-worker workload.
      {"mg-dc", Kind::kDecompose, core::Engine::kMg, true, 2,
       benchgen::SuiteScale::kFull, {}, 20, 32},
      // Recursive resynthesis: many small QBF searches, cache hits and a
      // verification per PO. Only the small-suite circuits whose call takes
      // under 0.7 s; the other nine take 0.9-14 s each (xmm9a alone half of
      // a full pass), which would leave no room for repeats.
      {"resynth-qdb", Kind::kResynth, core::Engine::kQbfCombined, false, 1,
       benchgen::SuiteScale::kSmall,
       {"xrot", "xi10", "xpair", "xs1423", "xs5378", "xs38584", "xb07", "xb12",
        "xclma", "xsbc", "xapex", "xterm1"},
       6, 64},
  };
  return w;
}

core::DecomposeOptions decompose_options(const Workload& w) {
  core::DecomposeOptions o;
  o.op = core::GateOp::kOr;
  o.engine = w.engine;
  o.po_budget_s = 0;               // unlimited
  o.optimum.call_timeout_s = 0;    // unlimited
  o.sat.conflict_budget = kConflictCap;
  o.use_dont_cares = w.use_dont_cares;
  return o;
}

core::SynthesisOptions synthesis_options(const Workload& w) {
  core::SynthesisOptions s;
  s.engine = w.engine;
  s.per_node = decompose_options(w);
  return s;
}

core::ParallelDriverOptions parallel_options(const Workload& w, int threads) {
  core::ParallelDriverOptions par;
  par.num_threads = threads;
  if (w.threads > 1) par.schedule = core::SchedulePolicy::kHardness;
  return par;
}

// ------------------------------------------------------------ clocks

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ------------------------------------------------------------ reference speed
//
// The machine's speed drifts by a third over minutes (shared host) and
// swings by a sixth within tenths of a second, and a slow phase can outlast
// a whole run, so raw times of one run cannot be compared with another's.
// A fixed, benchmark-owned kernel is timed on the same thread right before
// every timed call and once after the last; each call's time is scaled by
// kReferenceNominalS over the mean of the samples on either side of it, and
// each set-up sample by the kernel sample right after it. The kernel mixes
// three kinds of work: hash-table updates with node allocation (about half
// its time), dependent loads over 256 KiB, and branches on random data.
// Over 8 minutes the hash table alone tracked the program best (correlation
// 0.9, slope 1.1), but in single runs one kind of work can slow by 40% while
// the program slows by 10%; the mix spreads that risk. It keeps under 1 MiB
// resident, so it hardly moves peak_rss_mb. No library code runs in it, so
// a library change cannot move it.

/// Keeps the process, and the worker threads it starts later, on `n` of the
/// CPUs it may use, starting with the one it runs on now. The host's speed
/// differs between CPUs from one tenth of a second to the next, so a
/// reference sample only describes a timed call that runs on the same CPU.
void pin_to_cpus(int n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  if (here != cpus.end()) std::rotate(cpus.begin(), here, cpus.end());
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int k = 0; k < n && k < static_cast<int>(cpus.size()); ++k) {
    CPU_SET(cpus[static_cast<std::size_t>(k)], &pinned);
  }
  sched_setaffinity(0, sizeof pinned, &pinned);
}

/// Typical duration of one reference sample on the 4-core x86_64 VM the
/// benchmark was tuned on; only the unit of the normalised times.
constexpr double kReferenceNominalS = 0.008;

class ReferenceKernel {
 public:
  ReferenceKernel() : ring_(1U << 16), bytes_(1U << 16) {
    std::mt19937_64 rng(0x5eed);
    std::vector<std::uint32_t> order(ring_.size());
    std::iota(order.begin(), order.end(), 0U);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i = 0; i < order.size(); ++i) {
      ring_[order[i]] = order[(i + 1) % order.size()];
    }
    for (std::uint8_t& b : bytes_) b = static_cast<std::uint8_t>(rng());
  }

  /// Seconds taken by one fixed amount of kernel work (about 8 ms).
  double sample() {
    const double t0 = wall_now();
    std::unordered_map<std::uint32_t, std::uint32_t> counts;
    std::uint64_t x = 1;
    for (std::uint32_t i = 0; i < 200000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      counts[static_cast<std::uint32_t>(x >> 33) & 16383U] += i;
    }
    std::uint32_t j = counts[1] & 0xffffU;
    for (int i = 0; i < 250000; ++i) j = ring_[j];
    std::uint64_t acc = j;
    for (int i = 0; i < 500000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint8_t v = bytes_[x & 0xffffU];
      if (v & 1U) acc += v;
      else acc ^= x;
      if (v & 2U) acc *= 3;
    }
    sink_ = acc;
    return wall_now() - t0;
  }

 private:
  std::vector<std::uint32_t> ring_;  ///< one random cycle over 256 KiB
  std::vector<std::uint8_t> bytes_;  ///< 64 KiB of random bytes
  volatile std::uint64_t sink_ = 0;
};

/// Linearly interpolated quantile q of `v` (0.5 = the median).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Peak resident set of this process image, from /proc (getrusage's
/// ru_maxrss survives exec and would report the launching interpreter).
double peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0.0;
}

// ------------------------------------------------------------ seeded inputs

/// Rebuilds `src` with its primary inputs and outputs in a seeded random
/// order. Every PO computes the same function of the same named inputs as
/// before; only the order the library sees them in changes.
aig::Aig permute_io(const aig::Aig& src, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto shuffled = [&rng](std::uint32_t n) {
    std::vector<std::uint32_t> p(n);
    std::iota(p.begin(), p.end(), 0U);
    for (std::uint32_t i = n; i > 1; --i) {
      std::swap(p[i - 1], p[rng() % i]);
    }
    return p;
  };
  const std::vector<std::uint32_t> pi = shuffled(src.num_inputs());
  const std::vector<std::uint32_t> po = shuffled(src.num_outputs());

  aig::Aig dst;
  std::vector<aig::Lit> map(src.num_nodes(), aig::kLitFalse);
  for (const std::uint32_t i : pi) {
    map[src.input_node(i)] = dst.add_input(src.input_name(i));
  }
  auto tr = [&map](aig::Lit l) {
    return aig::lit_with_sign(map[aig::node_of(l)],
                              aig::is_complemented(l) !=
                                  aig::is_complemented(map[aig::node_of(l)]));
  };
  for (std::uint32_t n = 1; n < src.num_nodes(); ++n) {
    if (src.is_and(n)) map[n] = dst.add_raw_and(tr(src.fanin0(n)), tr(src.fanin1(n)));
  }
  for (const std::uint32_t o : po) dst.add_output(tr(src.output(o)), src.output_name(o));
  return dst;
}

struct Circuit {
  std::string name;
  std::string bytes;  ///< binary AIGER of the permuted circuit
  aig::Aig aig;       ///< parsed back from `bytes`
};

std::vector<Circuit> make_inputs(const Workload& w, std::uint64_t seed) {
  std::vector<benchgen::BenchCircuit> suite = benchgen::standard_suite(w.scale);
  std::vector<Circuit> out;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const benchgen::BenchCircuit& c = suite[i];
    if (!w.circuits.empty() &&
        std::find(w.circuits.begin(), w.circuits.end(), c.name) == w.circuits.end()) {
      continue;
    }
    const std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + 0x51ed270b + i;
    out.push_back({c.name, io::write_aiger_binary(permute_io(c.aig, s)), {}});
  }
  if (!w.circuits.empty() && out.size() != w.circuits.size()) {
    std::fprintf(stderr, "workload %s: suite is missing circuits\n", w.name);
    std::exit(2);
  }
  return out;
}

/// One set-up sample: `repeats` back-to-back parses of every circuit from
/// its bytes. Returns the seconds of one parse of all circuits.
double setup_sample(std::vector<Circuit>& cs, int repeats) {
  const double t0 = wall_now();
  for (int k = 0; k < repeats; ++k) {
    for (Circuit& c : cs) c.aig = io::parse_aiger_binary(c.bytes);
  }
  return (wall_now() - t0) / repeats;
}

// ------------------------------------------------------------ answers
//
// Everything a pass computes that must repeat exactly: per-PO answers plus
// the solver-work counters. Compared between the timed rounds and against
// the traced replay.

struct PoAnswer {
  int po = 0;
  int status = 0;  ///< DecomposeStatus; for resynthesis 1 = verified
  int n = 0, shared = 0, imbalance = 0;
  bool proven = false;
  bool used_window = false;
  int gates = 0, depth = 0;  ///< resynthesis: tree gates, depth after
  bool operator==(const PoAnswer&) const = default;
};

struct Answer {
  std::vector<PoAnswer> pos;
  long qbf_iterations = 0;
  std::uint64_t abs_conflicts = 0, ver_conflicts = 0, all_conflicts = 0;
  std::uint64_t deadline_stops = 0;
  // Resynthesis only.
  int decompositions = 0;
  std::uint32_t ands_after = 0;
  int depth_after = 0;
  std::uint64_t cache_lookups = 0, cache_hits = 0;
  bool operator==(const Answer&) const = default;
};

std::string describe_difference(const Answer& a, const Answer& b) {
  if (a.pos.size() != b.pos.size()) return "PO count";
  for (std::size_t i = 0; i < a.pos.size(); ++i) {
    if (!(a.pos[i] == b.pos[i])) return "PO " + std::to_string(a.pos[i].po);
  }
  if (a.qbf_iterations != b.qbf_iterations) return "CEGAR iterations";
  if (a.abs_conflicts != b.abs_conflicts) return "QBF abstraction conflicts";
  if (a.ver_conflicts != b.ver_conflicts) return "QBF verification conflicts";
  if (a.all_conflicts != b.all_conflicts) return "MG conflicts";
  if (a.decompositions != b.decompositions) return "decompositions";
  if (a.ands_after != b.ands_after) return "ands_after";
  if (a.depth_after != b.depth_after) return "depth_after";
  if (a.cache_lookups != b.cache_lookups || a.cache_hits != b.cache_hits) {
    return "cache counters";
  }
  return "deadline stops";
}

Answer answer_of(const core::CircuitRunResult& r) {
  Answer a;
  for (const core::PoOutcome& p : r.pos) {
    a.pos.push_back({p.po_index, static_cast<int>(p.status), p.metrics.n,
                     p.metrics.shared, p.metrics.imbalance, p.proven_optimal,
                     p.used_window});
    a.qbf_iterations += p.qbf_iterations;
    a.abs_conflicts += p.qbf_abstraction_conflicts;
    a.ver_conflicts += p.qbf_verification_conflicts;
    a.all_conflicts += p.solver_stats.conflicts;
    a.deadline_stops += p.solver_stats.deadline_stops;
  }
  return a;
}

Answer answer_of(const core::CircuitResynthResult& r) {
  Answer a;
  for (const core::PoResynthOutcome& p : r.pos) {
    PoAnswer pa;
    pa.po = p.po_index;
    pa.status = p.verified ? 1 : 0;
    pa.n = p.support;
    pa.gates = p.tree.gates;
    pa.depth = p.depth_after;
    a.pos.push_back(pa);
  }
  // Budgets are unlimited, so any wall-clock stop is a determinism failure;
  // the per-node solver statistics are not exposed, so the PO reasons and
  // the circuit-budget flag stand in for deadline_stops here.
  for (const core::PoResynthOutcome& p : r.pos) {
    if (p.reason == core::OutcomeReason::kEngineDeadline ||
        p.reason == core::OutcomeReason::kCircuitDeadline) {
      ++a.deadline_stops;
    }
  }
  if (r.hit_circuit_budget) ++a.deadline_stops;
  a.decompositions = r.stats.decompositions;
  a.ands_after = r.stats.ands_after;
  a.depth_after = r.stats.depth_after;
  a.cache_lookups = r.cache.lookups;
  a.cache_hits = r.cache.hits();
  return a;
}

/// Mean relative disjointness / balancedness accumulator (the paper's εD
/// and εB, Definitions 2 and 3).
struct EpsSum {
  double d = 0, b = 0;
  long count = 0;
  void add(int n, int shared, int imbalance) {
    if (n <= 0) return;
    d += static_cast<double>(shared) / n;
    b += static_cast<double>(imbalance) / n;
    ++count;
  }
};

/// Supports of every node of a decomposition tree, as sets of the owning
/// tree's support positions; adds εD/εB of every gate (recursing into
/// shared sub-trees) to `eps`.
std::vector<std::vector<char>> tree_supports(const core::DecTree& t, EpsSum& eps) {
  std::vector<std::vector<char>> sup(t.nodes.size(), std::vector<char>(t.n, 0));
  // Children precede parents in construction order except through kShared,
  // which refers to another tree; resolve by memoised recursion.
  std::vector<char> done(t.nodes.size(), 0);
  auto visit = [&](auto&& self, int i) -> void {
    if (done[i]) return;
    done[i] = 1;
    const core::DecTreeNode& nd = t.nodes[i];
    using K = core::DecTreeNode::Kind;
    switch (nd.kind) {
      case K::kConst: break;
      case K::kLiteral: sup[i][nd.input] = 1; break;
      case K::kCone:
        for (const int p : nd.inputs) sup[i][p] = 1;
        break;
      case K::kShared: {
        const std::vector<std::vector<char>> inner = tree_supports(*nd.shared, eps);
        if (nd.shared->root >= 0) {
          const std::vector<char>& r = inner[nd.shared->root];
          for (std::size_t j = 0; j < r.size(); ++j) {
            if (r[j]) sup[i][nd.inputs[j]] = 1;
          }
        }
        break;
      }
      case K::kGate: {
        self(self, nd.child0);
        self(self, nd.child1);
        int both = 0, only0 = 0, only1 = 0;
        for (int j = 0; j < t.n; ++j) {
          const char a = sup[nd.child0][j], b = sup[nd.child1][j];
          sup[i][j] = a | b;
          both += a & b;
          only0 += a & !b;
          only1 += b & !a;
        }
        eps.add(both + only0 + only1, both, std::abs(only0 - only1));
        break;
      }
    }
  };
  if (t.root >= 0) visit(visit, t.root);
  return sup;
}

// ------------------------------------------------------------ tracing

enum Layer {
  kCone, kIo, kAig, kWindow, kRelaxation, kMg, kQbf, kItp, kVerify,
  kResynth, kEmit, kNumLayers
};
const char* const kLayerName[kNumLayers] = {
    "cone", "io", "aig", "window", "relaxation", "mg", "qbf", "itp", "verify",
    "resynth", "emit"};

/// In-memory span recorder: name (layer), start, end and the enclosing
/// span. Spans of one cone share the cone span as their ancestor.
class Tracer {
 public:
  struct Rec {
    Layer layer;
    int parent;
    double t0, t1;
  };
  class Span {
   public:
    Span(Tracer& t, Layer l) : t_(t), idx_(t.open(l)) {}
    ~Span() { t_.close(idx_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

  /// Summed duration of the spans of one layer.
  double total(Layer l) const {
    double t = 0;
    for (const Rec& r : recs_) t += r.layer == l ? r.t1 - r.t0 : 0.0;
    return t;
  }

  /// Summed duration of the outermost spans, set-up parses excluded: the
  /// traced counterpart of the untraced library calls.
  double top_level_excluding(Layer l) const {
    double t = 0;
    for (const Rec& r : recs_) t += r.parent < 0 && r.layer != l ? r.t1 - r.t0 : 0.0;
    return t;
  }

  /// Self time per layer: span durations minus their direct children.
  std::vector<double> self_times() const {
    std::vector<double> self(kNumLayers, 0.0);
    for (const Rec& r : recs_) {
      self[r.layer] += r.t1 - r.t0;
      if (r.parent >= 0) self[recs_[r.parent].layer] -= r.t1 - r.t0;
    }
    return self;
  }

 private:
  int open(Layer l) {
    recs_.push_back({l, current_, wall_now(), 0.0});
    current_ = static_cast<int>(recs_.size()) - 1;
    return current_;
  }
  void close(int idx) {
    recs_[idx].t1 = wall_now();
    current_ = recs_[idx].parent;
  }

  std::vector<Rec> recs_;
  int current_ = -1;
};

/// Counters of the replay, named after the per-layer metrics.
struct LayerCounts {
  long cone_ands = 0;
  long windows_built = 0, windows_used = 0, window_sat_completions = 0;
  long matrix_ands = 0;
  long mg_sat_calls = 0;
  sat::Solver::Stats sat_mg, sat_qbf;
  long qbf_calls = 0, qbf_iterations = 0, qbf_budget_stops = 0;
  std::uint64_t abs_conflicts = 0, ver_conflicts = 0;
  long fn_ands = 0;
  long verify_calls = 0;
  long checks = 0, exhaustive_checks = 0, mismatches = 0;
};

// ------------------------------------------------------------ checks
//
// Independent of the engines' SAT paths: truth tables and random
// simulation only.

std::vector<std::uint64_t> random_words(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::uint64_t> w(n);
  for (std::uint64_t& x : w) x = rng();
  return w;
}

/// f ≡ fA OR fB on every care minterm (exhaustively up to 16 inputs,
/// else on 4096 random vectors), and fA/fB read only XA∪XC / XB∪XC.
bool functions_check(const core::Cone& cone, const core::Partition& p,
                     const core::ExtractedFunctions& f, const core::CareSet* care) {
  const int n = cone.n();
  for (const std::uint32_t i : aig::structural_support(f.aig, f.fa)) {
    if (p.cls[i] == core::VarClass::kB) return false;
  }
  for (const std::uint32_t i : aig::structural_support(f.aig, f.fb)) {
    if (p.cls[i] == core::VarClass::kA) return false;
  }
  const bool has_care = !core::care_is_trivial(care);
  if (n <= 16) {
    std::vector<std::uint32_t> pos(n);
    std::iota(pos.begin(), pos.end(), 0U);
    const auto tf = aig::truth_table(cone.aig, cone.root, pos);
    const auto tg = aig::truth_table(f.aig, f.combined, pos);
    std::vector<std::uint64_t> tc(tf.size(), ~0ULL);
    if (has_care) tc = aig::truth_table(care->aig, care->root, pos);
    const std::uint64_t last =
        n >= 6 ? ~0ULL : ((std::uint64_t{1} << (std::uint64_t{1} << n)) - 1);
    for (std::size_t w = 0; w < tf.size(); ++w) {
      const std::uint64_t mask = w + 1 == tf.size() ? last : ~0ULL;
      if (((tf[w] ^ tg[w]) & tc[w] & mask) != 0) return false;
    }
    return true;
  }
  std::mt19937_64 rng(0xc0ffee + static_cast<std::uint64_t>(n));
  for (int round = 0; round < 64; ++round) {
    const auto in = random_words(static_cast<std::size_t>(n), rng);
    std::uint64_t diff = aig::simulate_cone(cone.aig, cone.root, in) ^
                         aig::simulate_cone(f.aig, f.combined, in);
    if (has_care) diff &= aig::simulate_cone(care->aig, care->root, in);
    if (diff != 0) return false;
  }
  return true;
}

bool check_decomposition(const core::Cone& cone, const core::Partition& p,
                         const core::ExtractedFunctions& f,
                         const core::CareSet* care, LayerCounts& c) {
  ++c.checks;
  bool ok = p.non_trivial() && functions_check(cone, p, f, care);
  if (ok && cone.n() <= 16) {
    ++c.exhaustive_checks;
    ok = core::check_partition_exhaustive(cone, core::GateOp::kOr, p, care);
  }
  return ok;
}

/// Outputs on which the rewritten netlist `b` differs from the original
/// circuit `a` on 4096 random input vectors (every output when the
/// interfaces differ).
std::vector<int> differing_outputs(const aig::Aig& a, const aig::Aig& b) {
  std::vector<int> out;
  if (a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs()) {
    for (std::uint32_t o = 0; o < a.num_outputs(); ++o) out.push_back(static_cast<int>(o));
    return out;
  }
  std::vector<char> differs(a.num_outputs(), 0);
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 64; ++round) {
    const auto in = random_words(a.num_inputs(), rng);
    const auto wa = aig::simulate(a, in), wb = aig::simulate(b, in);
    for (std::size_t o = 0; o < wa.size(); ++o) differs[o] |= wa[o] != wb[o];
  }
  for (std::size_t o = 0; o < differs.size(); ++o) {
    if (differs[o]) out.push_back(static_cast<int>(o));
  }
  return out;
}

// ------------------------------------------------------------ replay

/// The per-cone pipeline of BiDecomposer::decompose, one layer call at a
/// time, each inside a span.
struct ConeResult {
  DecomposeStatus status = DecomposeStatus::kUnknown;
  core::Partition partition;
  bool proven = false;
  std::optional<core::ExtractedFunctions> fns;

  void fill(PoAnswer& pa) const {
    pa.status = static_cast<int>(status);
    if (status != DecomposeStatus::kDecomposed) return;
    const core::Metrics m = core::Metrics::of(partition);
    pa.n = m.n;
    pa.shared = m.shared;
    pa.imbalance = m.imbalance;
    pa.proven = proven;
  }
};

ConeResult decompose_traced(const core::Cone& cone, const core::DecomposeOptions& o,
                            const core::CareSet* care, Tracer& tr, LayerCounts& c,
                            Answer& ans) {
  ConeResult res;
  if (core::care_is_trivial(care)) care = nullptr;
  if (cone.n() < 2) {
    res.status = DecomposeStatus::kNotDecomposable;
    return res;
  }
  const Deadline unlimited(0.0);
  std::optional<core::RelaxationMatrix> matrix;
  {
    Tracer::Span s(tr, kRelaxation);
    matrix.emplace(core::build_relaxation_matrix(cone, o.op, care));
  }
  c.matrix_ands += matrix->aig.num_ands();

  std::unique_ptr<core::RelaxationSolver> rs;
  core::PartitionSearchResult mg;
  {
    Tracer::Span s(tr, kMg);
    rs = std::make_unique<core::RelaxationSolver>(*matrix, o.sat);
    mg = core::MgDecomposer(*rs, o.mg).find_partition(&unlimited);
  }
  if (o.engine == core::Engine::kMg) {
    if (mg.found) {
      res.status = DecomposeStatus::kDecomposed;
      res.partition = mg.partition;
    } else if (mg.exhausted) {
      res.status = DecomposeStatus::kNotDecomposable;
    }
  } else if (!mg.found && mg.exhausted) {
    res.status = DecomposeStatus::kNotDecomposable;
  } else {
    Tracer::Span s(tr, kQbf);
    core::QbfFinderOptions q = o.qbf;
    q.cegar.sat = o.sat;
    core::QbfPartitionFinder finder(*matrix, q);
    const core::QbfModel model =
        o.engine == core::Engine::kQbfDisjoint   ? core::QbfModel::kQD
        : o.engine == core::Engine::kQbfBalanced ? core::QbfModel::kQB
                                                 : core::QbfModel::kQDB;
    core::OptimumSearch search(finder, model, o.optimum);
    std::optional<core::Partition> boot;
    if (mg.found) boot = mg.partition;
    const core::OptimumResult r = search.run(boot, &unlimited);
    c.qbf_calls += r.qbf_calls;
    c.qbf_budget_stops += r.timeouts;
    c.qbf_iterations += finder.total_iterations();
    c.abs_conflicts += finder.abstraction_conflicts();
    c.ver_conflicts += finder.verification_conflicts();
    const sat::Solver::Stats st = finder.solver_stats();
    c.sat_qbf += st;
    ans.qbf_iterations += finder.total_iterations();
    ans.abs_conflicts += finder.abstraction_conflicts();
    ans.ver_conflicts += finder.verification_conflicts();
    ans.all_conflicts += st.conflicts;
    ans.deadline_stops += st.deadline_stops;
    if (r.outcome == core::OptimumResult::Outcome::kFound) {
      res.status = DecomposeStatus::kDecomposed;
      res.partition = r.best;
      res.proven = r.proven_optimal;
    } else if (r.outcome == core::OptimumResult::Outcome::kNotDecomposable) {
      res.status = DecomposeStatus::kNotDecomposable;
    }
  }
  c.mg_sat_calls += rs->sat_calls();
  c.sat_mg += rs->solver().stats();
  ans.all_conflicts += rs->solver().stats().conflicts;
  ans.deadline_stops += rs->solver().stats().deadline_stops;
  {
    Tracer::Span s(tr, kMg);
    rs.reset();
  }

  if (res.status == DecomposeStatus::kDecomposed) {
    {
      Tracer::Span s(tr, kItp);
      res.fns = core::extract_functions(cone, o.op, res.partition, care);
    }
    c.fn_ands += res.fns->aig.num_ands();
    bool ok = false;
    {
      Tracer::Span s(tr, kVerify);
      ok = core::verify_decomposition(cone, *res.fns, care);
    }
    ++c.verify_calls;
    if (!ok) {
      res = ConeResult{};  // discarded like the library does
    }
  }
  return res;
}

struct ReplayResult {
  Answer answer;
  std::vector<double> cone_s;
  std::vector<int> failed_pos;
};

ReplayResult replay_decompose(const Circuit& circ, const Workload& w, Tracer& tr,
                                LayerCounts& c) {
  ReplayResult out;
  const core::DecomposeOptions o = decompose_options(w);
  const aig::Aig& g = circ.aig;
  for (std::uint32_t po = 0; po < g.num_outputs(); ++po) {
    const double t0 = wall_now();
    PoAnswer pa;
    pa.po = static_cast<int>(po);
    // The cone (exact or windowed, with its care set) whose answer counts.
    core::Cone cone;
    std::optional<aig::Window> win;
    std::optional<core::CareSet> care;
    ConeResult res;
    {
      Tracer::Span cone_span(tr, kCone);
      std::size_t support = 0;
      {
        Tracer::Span s(tr, kAig);
        support = aig::structural_support(g, g.output(po)).size();
      }
      if (support < 2) continue;
      bool done = false;
      if (o.use_dont_cares) {
        {
          Tracer::Span s(tr, kWindow);
          win = aig::compute_window(g, g.output(po), o.window, nullptr);
          if (win) care = core::care_of_window(*win);
        }
        if (win) {
          ++c.windows_built;
          c.window_sat_completions += win->sat_completions;
          cone = core::Cone{win->aig, win->root};
          res = decompose_traced(cone, o, &*care, tr, c, out.answer);
          if (res.status == DecomposeStatus::kDecomposed) {
            Tracer::Span s(tr, kVerify);
            ++c.verify_calls;
            done = aig::verify_window_replacement(g, g.output(po), *win,
                                                  res.fns->aig, res.fns->combined);
          }
        }
      }
      if (done) {
        ++c.windows_used;
        pa.used_window = true;
      } else {
        care.reset();
        {
          Tracer::Span s(tr, kAig);
          cone = core::extract_po_cone(g, po);
        }
        c.cone_ands += cone.aig.num_ands();
        res = decompose_traced(cone, o, nullptr, tr, c, out.answer);
      }
      res.fill(pa);
    }
    out.cone_s.push_back(wall_now() - t0);
    // Outside the cone span: the benchmark's own check, not library work.
    if (res.status == DecomposeStatus::kUnknown) {
      out.failed_pos.push_back(pa.po);
    } else if (res.fns && !check_decomposition(cone, res.partition, *res.fns,
                                               care ? &*care : nullptr, c)) {
      ++c.mismatches;
      out.failed_pos.push_back(pa.po);
    }
    out.answer.pos.push_back(pa);
  }
  return out;
}

ReplayResult replay_resynth(const Circuit& circ, const Workload& w, Tracer& tr,
                              LayerCounts& c, core::DecCache& cache) {
  ReplayResult out;
  core::SynthesisOptions so = synthesis_options(w);
  so.cache = &cache;
  const Deadline unlimited(0.0);
  so.per_node.run_deadline = &unlimited;
  const aig::Aig& g = circ.aig;
  const std::uint32_t n_pos = g.num_outputs();
  std::vector<std::shared_ptr<const core::DecTree>> trees(n_pos);
  std::vector<std::vector<std::uint32_t>> inputs(n_pos);
  core::SynthesisStats total;
  for (std::uint32_t po = 0; po < n_pos; ++po) {
    const double t0 = wall_now();
    PoAnswer pa;
    pa.po = static_cast<int>(po);
    {
      Tracer::Span cone_span(tr, kCone);
      core::Cone cone;
      {
        Tracer::Span s(tr, kAig);
        cone = core::extract_po_cone(g, po, &inputs[po]);
        core::cone_depth(g, g.output(po));
      }
      c.cone_ands += cone.aig.num_ands();
      core::SynthesisStats st;
      st.pos_processed = 1;
      {
        Tracer::Span s(tr, kResynth);
        trees[po] = core::decompose_to_tree(cone, so, &st, &unlimited);
      }
      total += st;
      bool ok = false;
      {
        Tracer::Span s(tr, kVerify);
        ok = core::tree_equivalent(cone, *trees[po]);
      }
      ++c.verify_calls;
      pa.status = ok ? 1 : 0;
      pa.n = cone.n();
      pa.gates = trees[po]->stats().gates;
    }
    out.cone_s.push_back(wall_now() - t0);
    out.answer.pos.push_back(pa);
  }
  // Assembly, as run_circuit_resynth does it: PO trees replayed in PO order
  // over the circuit's inputs, then one level sweep for the depths.
  aig::Aig dst;
  std::vector<int> level;
  {
    Tracer::Span s(tr, kEmit);
    std::vector<aig::Lit> pi(g.num_inputs());
    for (std::uint32_t i = 0; i < g.num_inputs(); ++i) pi[i] = dst.add_input(g.input_name(i));
    for (std::uint32_t po = 0; po < n_pos; ++po) {
      std::vector<aig::Lit> in(inputs[po].size());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = pi[inputs[po][i]];
      dst.add_output(core::emit_tree(*trees[po], dst, in), g.output_name(po));
    }
    level.assign(dst.num_nodes(), 0);
    for (std::uint32_t n = 1; n < dst.num_nodes(); ++n) {
      if (!dst.is_and(n)) continue;
      level[n] = 1 + std::max(level[aig::node_of(dst.fanin0(n))],
                              level[aig::node_of(dst.fanin1(n))]);
    }
  }
  for (std::uint32_t po = 0; po < n_pos; ++po) {
    const int d = level[aig::node_of(dst.output(po))];
    out.answer.pos[po].depth = d;
    out.answer.depth_after = std::max(out.answer.depth_after, d);
  }
  out.answer.decompositions = total.decompositions;
  out.answer.ands_after = dst.num_ands();
  for (const PoAnswer& pa : out.answer.pos) {
    if (pa.status != 1) out.failed_pos.push_back(pa.po);
  }
  for (const int po : differing_outputs(g, dst)) {
    ++c.mismatches;
    out.failed_pos.push_back(po);
  }
  return out;
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: stepbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string wname;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  if (argc % 2 == 0) usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") wname = v;
    else if (k == "--seed") seed = std::atoll(v);
    else if (k == "--seconds") seconds = std::atof(v);
    else if (k == "--trace") trace = std::atoi(v);
    else usage();
  }
  const Workload* wp = nullptr;
  for (const Workload& w : workloads()) {
    if (wname == w.name) wp = &w;
  }
  if (wp == nullptr || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) usage();
  const Workload& w = *wp;

  pin_to_cpus(w.threads);

  // ---- inputs and set-up -------------------------------------------------
  std::vector<Circuit> circuits = make_inputs(w, static_cast<std::uint64_t>(seed));
  std::size_t total_bytes = 0;
  for (const Circuit& c : circuits) total_bytes += c.bytes.size();
  const int rounds = w.rounds;
  // Set-up samples are spread evenly over the timed calls (one before
  // every `setup_stride`-th call), and each times enough back-to-back
  // parses to last about 10 ms: the machine's speed swings by a third
  // within tenths of a second, and the median over samples taken across
  // the whole run averages those swings out.
  constexpr int kSetupSamples = 64;
  const std::size_t nc = circuits.size();
  const std::size_t setup_stride =
      std::max<std::size_t>(1, rounds * nc / kSetupSamples);
  std::vector<double> setup_s, round_s;
  ReferenceKernel reference;
  // reference_s[k] is taken right before timed call k, plus one after the
  // last call; setup_ref[j] is the index of the sample after set-up sample j.
  std::vector<double> reference_s;
  std::vector<std::size_t> setup_ref;
  struct Call {
    std::size_t circuit;
    double wall, cpu;
  };
  std::vector<Call> calls;

  // ---- timed rounds (tracing off) ----------------------------------------
  std::vector<Answer> first(nc);
  std::vector<aig::Aig> resynth_nets(nc);
  EpsSum eps;
  long decomposed = 0, proven = 0, attempted = 0;
  // Failed cones as (circuit, PO): a cone that fails in the timed pass and
  // again in the replay counts once.
  std::set<std::pair<std::size_t, int>> failed;
  std::string nondeterminism;
  std::uint64_t deadline_stops = 0;

  for (int round = 0; round < rounds; ++round) {
    double round_sum = 0;
    for (std::size_t i = 0; i < nc; ++i) {
      if ((round * nc + i) % setup_stride == 0) {
        setup_s.push_back(setup_sample(circuits, w.parses_per_setup));
        setup_ref.push_back(reference_s.size());
      }
      reference_s.push_back(reference.sample());
      const Circuit& c = circuits[i];
      std::optional<core::CircuitRunResult> dr;
      std::optional<core::CircuitResynthResult> rr;
      core::DecCache cache;  // fresh per call: every repeat does equal work
      const double w0 = wall_now(), c0 = cpu_now();
      if (w.kind == Kind::kDecompose) {
        dr.emplace(core::run_circuit(c.aig, c.name, decompose_options(w), 0,
                                     parallel_options(w, w.threads)));
      } else {
        core::SynthesisOptions so = synthesis_options(w);
        so.cache = &cache;
        rr.emplace(core::run_circuit_resynth(c.aig, c.name, so, 0,
                                             parallel_options(w, w.threads), true));
      }
      const double dt = wall_now() - w0;
      calls.push_back({i, dt, cpu_now() - c0});
      round_sum += dt;

      Answer a;
      if (dr) {
        a = answer_of(*dr);
        if (round == 0) {
          attempted += static_cast<long>(dr->pos.size());
          decomposed += dr->num_decomposed();
          proven += dr->num_proven_optimal();
          for (const core::PoOutcome& p : dr->pos) {
            if (p.status == DecomposeStatus::kDecomposed) {
              eps.add(p.metrics.n, p.metrics.shared, p.metrics.imbalance);
            }
            if (p.status == DecomposeStatus::kUnknown) failed.insert({i, p.po_index});
          }
        }
      } else {
        a = answer_of(*rr);
        if (round == 0) {
          attempted += static_cast<long>(rr->pos.size());
          decomposed += rr->stats.decompositions;
          for (const core::PoResynthOutcome& p : rr->pos) {
            if (!p.verified || p.reason != core::OutcomeReason::kOk) {
              failed.insert({i, p.po_index});
            }
          }
          for (const auto& t : rr->trees) tree_supports(*t, eps);
          resynth_nets[i] = std::move(rr->network);
        }
      }
      deadline_stops += a.deadline_stops;
      if (round == 0) {
        first[i] = std::move(a);
      } else if (!(a == first[i]) && nondeterminism.empty()) {
        nondeterminism = c.name + ": round " + std::to_string(round) +
                         " differs in " + describe_difference(first[i], a);
      }
    }
    round_s.push_back(round_sum);
  }
  reference_s.push_back(reference.sample());

  // Per circuit, the median over rounds; raw and scaled to reference speed.
  std::vector<std::vector<double>> wall_of(nc), wall_ref_of(nc), cpu_ref_of(nc);
  for (std::size_t k = 0; k < calls.size(); ++k) {
    const double scale =
        2.0 * kReferenceNominalS / (reference_s[k] + reference_s[k + 1]);
    wall_of[calls[k].circuit].push_back(calls[k].wall);
    wall_ref_of[calls[k].circuit].push_back(calls[k].wall * scale);
    cpu_ref_of[calls[k].circuit].push_back(calls[k].cpu * scale);
  }
  double wall_s = 0, wall_ref_s = 0, cpu_ref_s = 0;
  for (std::size_t i = 0; i < nc; ++i) {
    wall_s += percentile(wall_of[i], 0.5);
    wall_ref_s += percentile(wall_ref_of[i], 0.5);
    cpu_ref_s += percentile(cpu_ref_of[i], 0.5);
  }
  std::vector<double> setup_ref_s;
  for (std::size_t j = 0; j < setup_s.size(); ++j) {
    setup_ref_s.push_back(setup_s[j] * kReferenceNominalS / reference_s[setup_ref[j]]);
  }
  const double reference_median = percentile(reference_s, 0.5);

  // ---- replay, traced; cross-checks every answer ------------------------
  Tracer tr;
  LayerCounts lc;
  std::vector<double> cone_s;
  for (std::size_t i = 0; i < nc; ++i) {
    {
      Tracer::Span s(tr, kIo);
      circuits[i].aig = io::parse_aiger_binary(circuits[i].bytes);
    }
    ReplayResult r;
    core::DecCache cache;
    if (w.kind == Kind::kDecompose) {
      r = replay_decompose(circuits[i], w, tr, lc);
    } else {
      r = replay_resynth(circuits[i], w, tr, lc, cache);
      r.answer.cache_lookups = cache.stats().lookups;
      r.answer.cache_hits = cache.stats().hits();
      for (const int po : differing_outputs(circuits[i].aig, resynth_nets[i])) {
        ++lc.mismatches;
        failed.insert({i, po});
      }
    }
    for (const int po : r.failed_pos) failed.insert({i, po});
    deadline_stops += r.answer.deadline_stops;
    cone_s.insert(cone_s.end(), r.cone_s.begin(), r.cone_s.end());
    if (!(r.answer == first[i]) && nondeterminism.empty()) {
      nondeterminism = circuits[i].name + ": traced replay differs in " +
                       describe_difference(first[i], r.answer);
    }
  }

  // ---- pool efficiency: the 2-worker wall against a 1-worker run ----------
  // Untraced single-pass time comparable to the traced pass: the median
  // round, or for a multi-worker workload the median 1-worker pass.
  double untraced_pass_s = percentile(round_s, 0.5);
  double one_worker_s = 0;
  if (trace == 1 && w.threads > 1) {
    std::vector<std::vector<double>> one_of(nc);
    std::vector<double> passes;
    for (int k = 0; k < 3; ++k) {
      const double p0 = wall_now();
      for (std::size_t i = 0; i < nc; ++i) {
        const double t0 = wall_now();
        core::run_circuit(circuits[i].aig, circuits[i].name, decompose_options(w),
                          0, parallel_options(w, 1));
        one_of[i].push_back(wall_now() - t0);
      }
      passes.push_back(wall_now() - p0);
    }
    for (const std::vector<double>& t : one_of) one_worker_s += percentile(t, 0.5);
    untraced_pass_s = percentile(passes, 0.5);
  }

  const double peak_rss_mb = peak_rss_kb() / 1024.0;

  if (deadline_stops > 0) {
    nondeterminism = std::to_string(deadline_stops) + " wall-clock deadline stops" +
                     (nondeterminism.empty() ? "" : "; " + nondeterminism);
  }
  const bool correct = failed.empty() && nondeterminism.empty();
  if (!nondeterminism.empty()) std::fprintf(stderr, "determinism guard: %s\n", nondeterminism.c_str());
  if (!failed.empty()) {
    std::fprintf(stderr, "%zu failed cones (%ld check mismatches)\n", failed.size(),
                 lc.mismatches);
  }
  std::uint64_t conflicts = 0;
  for (const Answer& a : first) conflicts += a.all_conflicts;
  std::fprintf(stderr,
               "%s seed=%lld circuits=%zu setups=%zu wall=%.3fs wall_ref=%.3fs "
               "reference=%.2fms traced=%.3fs conflicts=%llu checks=%ld "
               "exhaustive=%ld rounds:",
               w.name, seed, nc, setup_s.size(), wall_s, wall_ref_s,
               1e3 * reference_median,
               tr.top_level_excluding(kIo),
               static_cast<unsigned long long>(conflicts), lc.checks,
               lc.exhaustive_checks);
  for (const double r : round_s) std::fprintf(stderr, " %.3f", r);
  std::fprintf(stderr, "\n");

  std::vector<Metric> ms;
  const double setup = percentile(setup_s, 0.5);
  if (trace == 0) {
    ms = {{"setup_s", percentile(setup_ref_s, 0.5), "s"},
          {"wall_ref_s", wall_ref_s, "s"},
          {"cpu_ref_s", cpu_ref_s, "s"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
          {"decomposed", static_cast<double>(decomposed), "count"},
          {"mean_eps_d", eps.count ? eps.d / eps.count : 0.0, "ratio"},
          {"mean_eps_b", eps.count ? eps.b / eps.count : 0.0, "ratio"}};
  } else {
    const std::vector<double> self = tr.self_times();
    const double cones = tr.total(kCone);
    const double traced = tr.top_level_excluding(kIo);
    std::uint64_t cache_lookups = 0, cache_hits = 0;
    std::uint32_t ands_after = 0;
    int depth_after = 0;
    for (const Answer& a : first) {
      cache_lookups += a.cache_lookups;
      cache_hits += a.cache_hits;
      ands_after += a.ands_after;
      depth_after = std::max(depth_after, a.depth_after);
    }
    auto d = [](auto x) { return static_cast<double>(x); };
    ms = {
        {"ref.sample_ms", 1e3 * reference_median, "ms"},
        {"ref.raw_wall_s", wall_s, "s"},
        {"io.parse_s", setup, "s"},
        {"io.mb_per_s", d(total_bytes) / 1e6 / setup, "MB/s"},
        {"aig.cone_s", self[kAig], "s"},
        {"aig.cone_ands", d(lc.cone_ands), "count"},
        {"window.s", self[kWindow], "s"},
        {"window.built", d(lc.windows_built), "count"},
        {"window.used", d(lc.windows_used), "count"},
        {"window.sat_completions", d(lc.window_sat_completions), "count"},
        {"relaxation.s", self[kRelaxation], "s"},
        {"relaxation.matrix_ands", d(lc.matrix_ands), "count"},
        {"mg.s", self[kMg], "s"},
        {"mg.sat_calls", d(lc.mg_sat_calls), "count"},
        {"mg.conflicts", d(lc.sat_mg.conflicts), "count"},
        {"mg.propagations", d(lc.sat_mg.propagations), "count"},
        {"qbf.s", self[kQbf], "s"},
        {"qbf.calls", d(lc.qbf_calls), "count"},
        {"qbf.iterations", d(lc.qbf_iterations), "count"},
        {"qbf.abs_conflicts", d(lc.abs_conflicts), "count"},
        {"qbf.ver_conflicts", d(lc.ver_conflicts), "count"},
        {"qbf.budget_stops", d(lc.qbf_budget_stops), "count"},
        {"qbf.proven", d(proven), "count"},
        {"qbf.proven_ratio",
         w.kind == Kind::kDecompose ? d(proven) / d(decomposed) : 0.0, "ratio"},
        {"sat.mg.inprocess_rounds", d(lc.sat_mg.inprocess_rounds), "count"},
        {"sat.mg.eliminated_vars", d(lc.sat_mg.eliminated_vars), "count"},
        {"sat.mg.failed_literals", d(lc.sat_mg.failed_literals), "count"},
        {"sat.mg.conflicts", d(lc.sat_mg.conflicts), "count"},
        {"sat.qbf.inprocess_rounds", d(lc.sat_qbf.inprocess_rounds), "count"},
        {"sat.qbf.eliminated_vars", d(lc.sat_qbf.eliminated_vars), "count"},
        {"sat.qbf.failed_literals", d(lc.sat_qbf.failed_literals), "count"},
        {"sat.qbf.conflicts", d(lc.sat_qbf.conflicts), "count"},
        {"itp.s", self[kItp], "s"},
        {"itp.fn_ands", d(lc.fn_ands), "count"},
        {"verify.s", self[kVerify], "s"},
        {"verify.calls", d(lc.verify_calls), "count"},
        {"resynth.tree_s", self[kResynth], "s"},
        {"resynth.emit_s", self[kEmit], "s"},
        {"resynth.ands_after", d(ands_after), "count"},
        {"resynth.depth_after", d(depth_after), "count"},
        {"cache.lookups", d(cache_lookups), "count"},
        {"cache.hits", d(cache_hits), "count"},
        {"cache.hit_ratio", cache_lookups ? d(cache_hits) / d(cache_lookups) : 0.0,
         "ratio"},
        {"pool.efficiency", one_worker_s > 0 ? one_worker_s / (2.0 * wall_s) : 0.0,
         "ratio"},
        {"cone.p50_ms", 1e3 * percentile(cone_s, 0.50), "ms"},
        {"cone.p95_ms", 1e3 * percentile(cone_s, 0.95), "ms"},
        {"cone.samples", d(cone_s.size()), "count"},
        {"trace.s", traced, "s"},
        {"trace.accounted_ratio", cones > 0 ? 1.0 - self[kCone] / cones : 0.0,
         "ratio"},
        {"trace.overhead_ratio", traced / untraced_pass_s - 1.0, "ratio"},
    };
  }
  print_result(correct, attempted, static_cast<long>(failed.size()), ms);
  return correct ? 0 : 1;
}
