// Scalar time base used by LSA-STM and Z-STM's short transactions: the
// global shared counter of §2, the simulated synchronized real-time clocks
// of §2/[9], or the batched lease counter of DESIGN.md §10 (selected at
// runtime construction).
//
// The sync-clock mode implements the two corrections [9] requires:
//  * snapshot times are taken `2·deviation` in the past (now_snapshot), so
//    a commit stamp issued by any other clock after a snapshot was fixed is
//    guaranteed to exceed the snapshot time;
//  * a committer waits out the deviation window after acquiring its stamp
//    ("wait one clock tick" in §2) before validating and publishing, so no
//    later stamp anywhere in the system can fall below it.
// With the counter, both corrections are no-ops: fetch_add already yields a
// stamp strictly greater than every previously observed time.
//
// The batched counter needs both corrections too (its stamps are unique
// but not issued in order): now_snapshot anchors under every outstanding
// lease, and the commit-side correction is a lease *fence* instead of a
// wait — outstanding leases that could still undercut the stamp are
// revoked with bounded work (see batched_counter.hpp for why skipping this
// would break serializability, not just performance).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "runtime/config.hpp"  // TimeBaseKind
#include "timebase/batched_counter.hpp"
#include "timebase/global_counter.hpp"
#include "timebase/sync_clock.hpp"
#include "util/backoff.hpp"

namespace zstm::timebase {

class ScalarTimeBase {
 public:
  /// Counter-based time base (the paper's default).
  ScalarTimeBase() : kind_(TimeBaseKind::kCounter) {}

  /// Synchronized-real-time-clock time base with the given per-clock
  /// deviation bound.
  ScalarTimeBase(int slots, std::chrono::nanoseconds max_deviation,
                 std::uint64_t seed = 1)
      : kind_(TimeBaseKind::kSyncClock),
        clock_(std::in_place, slots, max_deviation, seed) {
    // Stamps are nanoseconds shifted by kSlotBits; the safety margin covers
    // two full deviations (reader ahead + writer behind) plus one extra
    // nanosecond step so the slot-id low bits can never defeat strictness.
    margin_ = static_cast<std::uint64_t>(2 * max_deviation.count() + 1)
              << SyncRealTimeClock::kSlotBits;
  }

  /// Batched-lease time base: threads lease blocks of `batch` ticks.
  ScalarTimeBase(int slots, int batch)
      : kind_(TimeBaseKind::kBatchedCounter),
        batched_(std::make_unique<BatchedCounter>(slots, batch)) {}

  TimeBaseKind kind() const { return kind_; }

  /// A time at which it is safe to anchor a new snapshot: every commit
  /// stamp issued from now on is guaranteed to be strictly greater.
  std::uint64_t now_snapshot(int slot) const {
    switch (kind_) {
      case TimeBaseKind::kCounter:
        return counter_.now();
      case TimeBaseKind::kBatchedCounter:
        return batched_->now_floor();
      case TimeBaseKind::kSyncClock:
        break;
    }
    const std::uint64_t t = clock_->now(slot);
    return t > margin_ ? t - margin_ : 0;
  }

  /// Acquire a commit stamp strictly above `floor` (callers pass the newest
  /// timestamp of every object they are about to overwrite, keeping
  /// per-object version chains strictly increasing under clock skew).
  std::uint64_t acquire_commit_stamp(int slot, std::uint64_t floor) {
    switch (kind_) {
      case TimeBaseKind::kCounter:
        // Monotone and unique; floor is implied (floor came from committed
        // versions, whose stamps the counter has already passed).
        return counter_.acquire_commit_time();
      case TimeBaseKind::kBatchedCounter:
        return batched_->acquire(slot, floor);
      case TimeBaseKind::kSyncClock:
        break;
    }
    return clock_->acquire_commit_stamp(slot, floor);
  }

  /// Ensure no clock in the system can still issue a stamp <= `stamp` to a
  /// transaction that has not yet begun committing: the sync clocks wait
  /// out the deviation window, the batched counter revokes undercutting
  /// leases, the plain counter needs nothing.
  void wait_until_safe(int slot, std::uint64_t stamp) {
    switch (kind_) {
      case TimeBaseKind::kCounter:
        return;
      case TimeBaseKind::kBatchedCounter:
        batched_->fence_after(stamp);
        return;
      case TimeBaseKind::kSyncClock:
        break;
    }
    util::Backoff bo;
    while (now_snapshot(slot) < stamp) bo.pause();
  }

  /// Slot teardown hook (wired to ThreadRegistry release listeners): the
  /// batched counter abandons the slot's lease so now_floor() is not
  /// pinned by a dead thread. No-op for the other kinds.
  void release_slot(int slot) {
    if (kind_ == TimeBaseKind::kBatchedCounter) batched_->release_slot(slot);
  }

  const SyncRealTimeClock* sync_clock() const {
    return clock_ ? &*clock_ : nullptr;
  }
  const BatchedCounter* batched() const { return batched_.get(); }

 private:
  TimeBaseKind kind_;
  GlobalCounter counter_;
  std::optional<SyncRealTimeClock> clock_;
  // unique_ptr: BatchedCounter owns raw atomics and cannot move, but
  // ScalarTimeBase is returned by value from the runtimes' factories.
  std::unique_ptr<BatchedCounter> batched_;
  std::uint64_t margin_ = 0;
};

}  // namespace zstm::timebase
