#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/resource.h"
#include "sat/types.h"

namespace step::sat {

/// Reference to a clause inside the arena (index into a word array).
using CRef = std::uint32_t;
constexpr CRef kCRefUndef = 0xffffffffU;

/// Clause header + inline literal array, stored in the arena.
///
/// Layout (32-bit words):
///   word 0: size (27 bits) | unused (3 bits) | removed (1) | learnt (1)
///   word 1: activity (float, learnt only)
///   word 2: proof id (resolution-proof logging)
/// Every clause carries a proof id so the resolution logger can name it.
class Clause {
 public:
  std::uint32_t size() const { return header_ >> 5; }
  bool learnt() const { return (header_ & 1U) != 0; }

  Lit& operator[](std::uint32_t i) { return lits_[i]; }
  const Lit& operator[](std::uint32_t i) const { return lits_[i]; }

  std::span<const Lit> lits() const { return {lits_, size()}; }
  std::span<Lit> lits() { return {lits_, size()}; }

  float activity() const { return activity_; }
  void set_activity(float a) { activity_ = a; }

  std::uint32_t proof_id() const { return proof_id_; }
  void set_proof_id(std::uint32_t id) { proof_id_ = id; }

  /// Lazily deleted (reduction, inprocessing); skipped everywhere until
  /// ClauseArena::compact() reclaims the space.
  bool removed() const { return (header_ & 2U) != 0; }
  void set_removed() { header_ |= 2U; }

  /// In-place shrink after strengthening/vivification. The caller owns
  /// re-attaching watches; trailing arena words are simply abandoned.
  void shrink(std::uint32_t new_size) {
    STEP_CHECK(new_size >= 1 && new_size <= size());
    header_ = (new_size << 5) | (header_ & 31U);
  }

 private:
  friend class ClauseArena;
  void init(std::span<const Lit> ls, bool learnt) {
    header_ = (static_cast<std::uint32_t>(ls.size()) << 5) |
              (learnt ? 1U : 0U);
    activity_ = 0.0f;
    proof_id_ = 0;
    for (std::uint32_t i = 0; i < ls.size(); ++i) lits_[i] = ls[i];
  }

  std::uint32_t header_;
  float activity_;
  std::uint32_t proof_id_;
  Lit lits_[1];  // flexible array; arena allocates the real length
};

/// Bump-pointer arena for clauses.
///
/// Clauses are identified by CRef word offsets, stable until compact()
/// slides the live clauses down over the removed ones; the solver then
/// relocates every CRef it holds (Solver::collect_garbage).
class ClauseArena {
 public:
  ClauseArena() = default;
  ClauseArena(const ClauseArena&) = delete;
  ClauseArena& operator=(const ClauseArena&) = delete;
  ClauseArena(ClauseArena&& o) noexcept
      : mem_(std::move(o.mem_)),
        mem_tracker_(o.mem_tracker_),
        charged_bytes_(o.charged_bytes_) {
    o.mem_tracker_ = nullptr;
    o.charged_bytes_ = 0;
  }
  ClauseArena& operator=(ClauseArena&& o) noexcept {
    if (this != &o) {
      if (mem_tracker_ != nullptr) mem_tracker_->release(charged_bytes_);
      mem_ = std::move(o.mem_);
      mem_tracker_ = o.mem_tracker_;
      charged_bytes_ = o.charged_bytes_;
      o.mem_tracker_ = nullptr;
      o.charged_bytes_ = 0;
    }
    return *this;
  }
  ~ClauseArena() {
    if (mem_tracker_ != nullptr) mem_tracker_->release(charged_bytes_);
  }

  CRef alloc(std::span<const Lit> lits, bool learnt) {
    STEP_CHECK(!lits.empty());
    const std::size_t need = kHeaderWords + lits.size();
    const CRef ref = static_cast<CRef>(mem_.size());
    mem_.resize(mem_.size() + need);
    clause_at(ref).init(lits, learnt);
    charge_growth();
    return ref;
  }

  Clause& operator[](CRef r) { return clause_at(r); }
  const Clause& operator[](CRef r) const {
    return const_cast<ClauseArena*>(this)->clause_at(r);
  }

  std::size_t size_words() const { return mem_.size(); }
  /// Words the clause at `r` occupies (header + current literals).
  std::size_t words(CRef r) const {
    return kHeaderWords + (*this)[r].size();
  }

  /// Slides the clauses at `live` (ascending CRefs) to the front of the
  /// arena, keeping their order, and rewrites each entry to its new CRef.
  /// Everything else is dropped. Capacity (and so the charged bytes) is
  /// kept: later allocations reuse the freed tail instead of growing.
  void compact(std::vector<CRef>& live) {
    std::size_t to = 0;
    for (CRef& r : live) {
      STEP_CHECK(r >= to);
      const std::size_t n = words(r);
      std::memmove(mem_.data() + to, mem_.data() + r,
                   n * sizeof(std::uint32_t));
      r = static_cast<CRef>(to);
      to += n;
    }
    mem_.resize(to);
  }

  /// Resource-governor hook: arena capacity growth — the dominant
  /// allocation of a hard cone (learnt clauses) — is charged to the
  /// cone's tracker and refunded on destruction, so abandoning the cone
  /// returns its memory to the run budget (common/resource.h).
  void set_mem_tracker(MemTracker* tracker) {
    mem_tracker_ = tracker;
    charge_growth();
  }

 private:
  static constexpr std::size_t kHeaderWords = 3;

  void charge_growth() {
    if (mem_tracker_ == nullptr) return;
    const std::size_t cap = mem_.capacity() * sizeof(std::uint32_t);
    if (cap > charged_bytes_) {
      mem_tracker_->charge(cap - charged_bytes_);
      charged_bytes_ = cap;
    }
  }

  Clause& clause_at(CRef r) {
    return *reinterpret_cast<Clause*>(mem_.data() + r);
  }

  std::vector<std::uint32_t> mem_;
  MemTracker* mem_tracker_ = nullptr;
  std::size_t charged_bytes_ = 0;
};

}  // namespace step::sat
