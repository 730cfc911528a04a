// Tiny test-and-test-and-set spin lock with RAII guard.
//
// Used for short, bounded critical sections: S-STM's reader and
// predecessor lists, and its one commit section (DESIGN.md §4), where a
// waiter that spins hands the section over faster than one a futex parks.
// Other hot paths use CAS protocols directly.
// Satisfies the Lockable named requirements so std::lock_guard /
// std::scoped_lock work with it (CP.20: RAII, never plain lock/unlock).
#pragma once

#include <atomic>

#include "util/backoff.hpp"

namespace zstm::util {

class SpinLock {
 public:
  void lock() {
    Backoff bo;
    for (;;) {
      // Test-and-test-and-set: spin on the (shared) cached value and only
      // attempt the RMW when the lock looks free.
      if (!locked_.load(std::memory_order_relaxed) &&
          !locked_.exchange(true, std::memory_order_acquire)) {
        return;
      }
      bo.pause();
    }
  }

  bool try_lock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace zstm::util
