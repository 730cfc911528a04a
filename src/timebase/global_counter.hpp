// The simplest time base of §2: "a global shared linearizable integer
// counter. The current time is obtained by reading the counter. The counter
// is atomically incremented whenever a commit time is acquired."
//
// Padded to its own cache line; the contention this counter suffers under
// many committing threads is itself one of the paper's motivating
// observations (zstm_bench's clock_scale section measures it).
#pragma once

#include <atomic>
#include <cstdint>

#include "util/align.hpp"

namespace zstm::timebase {

class GlobalCounter {
 public:
  /// Current global time (no side effect).
  std::uint64_t now() const { return time_.value.load(std::memory_order_acquire); }

  /// Acquire a fresh commit time: atomically increments global time and
  /// returns the new value, which this transaction exclusively owns.
  std::uint64_t acquire_commit_time() {
    return time_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

 private:
  util::Padded<std::atomic<std::uint64_t>> time_{};
};

}  // namespace zstm::timebase
