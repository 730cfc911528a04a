// Scalar time base used by LSA-STM and Z-STM's short transactions: the
// global shared counter of §2 or the simulated synchronized real-time
// clocks of §2/[9] (selected at runtime construction; DESIGN.md §10).
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
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "runtime/config.hpp"  // TimeBaseKind
#include "timebase/global_counter.hpp"
#include "timebase/sync_clock.hpp"
#include "util/backoff.hpp"

namespace zstm::timebase {

class ScalarTimeBase {
 public:
  /// Counter-based time base (the paper's default).
  ScalarTimeBase() = default;

  /// Synchronized-real-time-clock time base with the given per-clock
  /// deviation bound.
  ScalarTimeBase(int slots, std::chrono::nanoseconds max_deviation,
                 std::uint64_t seed = 1)
      : clock_(std::in_place, slots, max_deviation, seed) {
    // Stamps are nanoseconds shifted by kSlotBits; the safety margin covers
    // two full deviations (reader ahead + writer behind) plus one extra
    // nanosecond step so the slot-id low bits can never defeat strictness.
    margin_ = static_cast<std::uint64_t>(2 * max_deviation.count() + 1)
              << SyncRealTimeClock::kSlotBits;
  }

  TimeBaseKind kind() const {
    return clock_ ? TimeBaseKind::kSyncClock : TimeBaseKind::kCounter;
  }

  /// A time at which it is safe to anchor a new snapshot: every commit
  /// stamp issued from now on is guaranteed to be strictly greater.
  std::uint64_t now_snapshot(int slot) const {
    if (!clock_) return counter_.now();
    const std::uint64_t t = clock_->now(slot);
    return t > margin_ ? t - margin_ : 0;
  }

  /// Acquire a commit stamp strictly above `floor` (callers pass the newest
  /// timestamp of every object they are about to overwrite, keeping
  /// per-object version chains strictly increasing under clock skew).
  std::uint64_t acquire_commit_stamp(int slot, std::uint64_t floor) {
    // Monotone and unique; floor is implied (floor came from committed
    // versions, whose stamps the counter has already passed).
    if (!clock_) return counter_.acquire_commit_time();
    return clock_->acquire_commit_stamp(slot, floor);
  }

  /// Ensure no clock in the system can still issue a stamp <= `stamp` to a
  /// transaction that has not yet begun committing: the sync clocks wait
  /// out the deviation window, the counter needs nothing.
  void wait_until_safe(int slot, std::uint64_t stamp) {
    if (!clock_) return;
    util::Backoff bo;
    while (now_snapshot(slot) < stamp) bo.pause();
  }

  const SyncRealTimeClock* sync_clock() const {
    return clock_ ? &*clock_ : nullptr;
  }

 private:
  GlobalCounter counter_;
  std::optional<SyncRealTimeClock> clock_;
  std::uint64_t margin_ = 0;
};

}  // namespace zstm::timebase
