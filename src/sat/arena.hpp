// Chunked arena storage for SAT clauses.
//
// Clauses live in one contiguous vector of 32-bit words and are addressed by
// 32-bit refs (word offsets) instead of heap pointers, so propagation walks
// cache-local memory and a watcher record shrinks to 8 bytes. Layout per
// clause (uniform for problem and learnt clauses — conflict analysis bumps
// the activity of whatever reason clause it resolves on, so problem clauses
// need the field too):
//
//   word 0    header: size << 3 | learnt << 2 | dead << 1 | relocated
//   word 1    LBD (glue) while live; forwarding ref after relocation
//   word 2-3  activity, IEEE double split across two words
//   then      literal codes, one word each
//
// Deleting a clause marks it dead and counts its words as wasted; the memory
// is reclaimed by garbage collection (Solver::maybe_gc) at reduce/restart
// boundaries: live clauses are relocated into a fresh arena (each clause
// leaves a forwarding ref behind, so every watcher/reason that points at it
// resolves to the same new ref) and the old arena is dropped wholesale.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sat/types.hpp"

namespace cl::sat {

/// Arena clause reference: word offset of the clause header. 32 bits cap the
/// arena at 16 GiB of clause memory — far beyond any attack instance.
using CRef = std::uint32_t;
inline constexpr CRef k_cref_undef = 0xFFFFFFFFu;

class ClauseArena {
 public:
  static constexpr std::uint32_t k_header_words = 4;

  ClauseArena() = default;

  /// Allocate a clause over `lits`. LBD starts at `lbd`, activity at 0.
  template <typename LitContainer>
  CRef alloc(const LitContainer& lits, bool learnt, int lbd = 0) {
    const auto n = static_cast<std::uint32_t>(lits.size());
    const CRef ref = static_cast<CRef>(mem_.size());
    mem_.push_back((n << 3) | (learnt ? 4u : 0u));
    mem_.push_back(static_cast<std::uint32_t>(lbd));
    mem_.push_back(0);
    mem_.push_back(0);
    for (const Lit& l : lits) {
      mem_.push_back(static_cast<std::uint32_t>(l.code()));
    }
    ++live_;
    return ref;
  }

  std::uint32_t size(CRef c) const { return mem_[c] >> 3; }
  bool learnt(CRef c) const { return (mem_[c] & 4u) != 0; }
  bool dead(CRef c) const { return (mem_[c] & 2u) != 0; }
  bool relocated(CRef c) const { return (mem_[c] & 1u) != 0; }

  Lit lit(CRef c, std::uint32_t i) const {
    return Lit::from_code(
        static_cast<std::int32_t>(mem_[c + k_header_words + i]));
  }
  void set_lit(CRef c, std::uint32_t i, Lit l) {
    mem_[c + k_header_words + i] = static_cast<std::uint32_t>(l.code());
  }
  void swap_lits(CRef c, std::uint32_t i, std::uint32_t j) {
    std::swap(mem_[c + k_header_words + i], mem_[c + k_header_words + j]);
  }
  /// Copy the literals out (preprocessing, problem replay, clause export).
  std::vector<Lit> lits(CRef c) const {
    std::vector<Lit> out;
    copy_lits(c, out);
    return out;
  }
  /// Same, into a caller-owned buffer that is reused across clauses.
  void copy_lits(CRef c, std::vector<Lit>& out) const {
    const std::uint32_t n = size(c);
    out.clear();
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(lit(c, i));
  }

  int lbd(CRef c) const { return static_cast<int>(mem_[c + 1]); }
  void set_lbd(CRef c, int lbd) {
    mem_[c + 1] = static_cast<std::uint32_t>(lbd);
  }

  double activity(CRef c) const {
    const std::uint64_t bits =
        static_cast<std::uint64_t>(mem_[c + 2]) |
        (static_cast<std::uint64_t>(mem_[c + 3]) << 32);
    return std::bit_cast<double>(bits);
  }
  void set_activity(CRef c, double a) {
    const auto bits = std::bit_cast<std::uint64_t>(a);
    mem_[c + 2] = static_cast<std::uint32_t>(bits);
    mem_[c + 3] = static_cast<std::uint32_t>(bits >> 32);
  }

  /// Shrink a live clause in place (vivification / strengthening). The freed
  /// tail words count as wasted until the next GC.
  void shrink(CRef c, std::uint32_t new_size) {
    const std::uint32_t old_size = size(c);
    assert(new_size >= 1 && new_size <= old_size);
    wasted_ += old_size - new_size;
    mem_[c] = (new_size << 3) | (mem_[c] & 7u);
  }

  /// Mark a clause dead. The caller must have detached it from every watch
  /// list / reason slot; the words are reclaimed by the next GC.
  void free_clause(CRef c) {
    assert(!dead(c));
    wasted_ += k_header_words + size(c);
    mem_[c] |= 2u;
    --live_;
  }

  /// Relocate a live clause into `to`, leaving a forwarding ref behind, and
  /// return the new ref. Idempotent: a second call (another watcher of the
  /// same clause) just follows the forwarding ref.
  CRef relocate(CRef c, ClauseArena& to) {
    if (relocated(c)) return mem_[c + 1];
    assert(!dead(c));
    const CRef moved = to.alloc(lits(c), learnt(c), lbd(c));
    to.set_activity(moved, activity(c));
    mem_[c] |= 1u;
    mem_[c + 1] = moved;
    return moved;
  }

  std::size_t live_clauses() const { return live_; }
  std::size_t size_bytes() const { return mem_.size() * sizeof(std::uint32_t); }
  std::size_t wasted_bytes() const { return wasted_ * sizeof(std::uint32_t); }
  /// GC is worthwhile once `frac` of the arena is dead/shrunk words.
  bool gc_due(double frac) const {
    return !mem_.empty() &&
           static_cast<double>(wasted_) >=
               frac * static_cast<double>(mem_.size());
  }
  void reserve_words(std::size_t words) { mem_.reserve(words); }
  std::size_t used_words() const { return mem_.size(); }
  std::size_t wasted_words() const { return static_cast<std::size_t>(wasted_); }

 private:
  std::vector<std::uint32_t> mem_;
  std::uint64_t wasted_ = 0;  // dead/shrunk words awaiting GC
  std::size_t live_ = 0;
};

}  // namespace cl::sat
