// The one causal clock domain: plausible clocks (Torres-Rojas & Ahamad
// [12]) as r-entry vectors (REV), per §4.3 of the paper.
//
// A stamp is a VcStamp of r ≤ n entries; thread slot i uses entry i mod r
// (the paper's "modulo r mapping"). Because entries may be shared between
// threads, advancing an entry draws from a shared per-entry counter "to
// avoid that two threads generate the same timestamp".
//
// Guarantees (§4.3): causally related events are always ordered correctly;
// concurrent events may be *falsely* reported as ordered, which in an STM
// manifests as unnecessary aborts — never as a consistency violation.
// r = 1 degenerates to a single scalar clock (the plain TBTM of §2);
// r = n gives exact vector clocks, where each slot owns its entry and its
// counter. A slot outlives the threads that hold it in turn, so the
// counter, not the thread's own stamp, is what keeps a later holder from
// re-issuing an earlier holder's stamp (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <vector>

#include "timebase/vector_clock.hpp"
#include "util/align.hpp"

namespace zstm::timebase {

/// Shared state of an REV clock system: one atomic counter per entry
/// (padded apart), from which threads draw unique increasing values.
class RevDomain {
 public:
  /// `entries` = r; `dimension` = n (number of thread slots), r ≤ n.
  RevDomain(int entries, int dimension);

  int entries() const { return entries_; }

  /// The entry thread `slot` writes to: slot mod r.
  int entry_of(int slot) const { return slot % entries_; }

  VcStamp zero() const { return VcStamp(entries_); }

  /// zero() whose component storage draws from `pool` (slab-backed stamp
  /// for pooled nodes: written versions carry one of these per commit).
  /// A null pool degrades to the plain heap, matching zero().
  VcStamp zero_in(object::NodePool* pool, int slot) const {
    return VcStamp(entries_, VcStamp::Alloc(pool, slot));
  }

  /// Advance thread `slot`'s entry inside `stamp` (commit step): draws a
  /// value strictly greater than both the shared entry counter and the
  /// stamp's current entry, and publishes it to the shared counter, so no
  /// two commits ever carry the same timestamp (get-and-increment of §4.3).
  void advance(int slot, VcStamp& stamp);

 private:
  int entries_;
  std::vector<util::PaddedCounter> shared_;
};

}  // namespace zstm::timebase
