// Thread slot registry.
//
// Every runtime (LSA, CS, S, Z) owns one ThreadRegistry. A worker thread
// attaches before executing transactions and receives a small dense slot id
// in [0, capacity). Slots index into vector-clock components, EBR epoch
// slots, and per-thread statistics, exactly matching the paper's model of
// "each thread has its own component in a vector clock".
//
// Registration is RAII: destroying the Registration releases the slot for
// reuse by later threads, so short-lived worker pools do not exhaust slots.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/align.hpp"

namespace zstm::util {

class ThreadRegistry {
 public:
  /// Maximum threads a registry will ever track; sized for the paper's
  /// largest experiment (32 threads) with headroom.
  static constexpr int kMaxThreads = 64;

  explicit ThreadRegistry(int capacity = kMaxThreads);

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  class Registration {
   public:
    Registration() = default;
    Registration(ThreadRegistry* owner, int slot) : owner_(owner), slot_(slot) {}
    Registration(Registration&& other) noexcept { swap(other); }
    Registration& operator=(Registration&& other) noexcept {
      release();
      swap(other);
      return *this;
    }
    ~Registration() { release(); }

    int slot() const { return slot_; }
    bool attached() const { return owner_ != nullptr; }

   private:
    void swap(Registration& other) {
      std::swap(owner_, other.owner_);
      std::swap(slot_, other.slot_);
    }
    void release();

    ThreadRegistry* owner_ = nullptr;
    int slot_ = -1;
  };

  /// Claim the lowest free slot. Throws std::runtime_error if full.
  Registration attach();
  /// attach(), but a full registry yields an unattached Registration.
  Registration try_attach();

  int capacity() const { return capacity_; }

  /// Highest slot ever claimed + 1; bounds iteration over per-slot state.
  int high_water() const { return high_water_.load(std::memory_order_acquire); }

  /// True if the slot is currently claimed by a live thread.
  bool active(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].value.load(
        std::memory_order_acquire);
  }

  /// Slot-release hooks: `fn(slot)` runs on the releasing thread just
  /// before the slot is marked free (it still owns the slot's per-thread
  /// state). The NodePool uses this to drain a dying thread's cross-thread
  /// return stacks so pooled memory survives thread churn. Returns an id
  /// for remove_release_listener.
  int add_release_listener(std::function<void(int)> fn);
  void remove_release_listener(int id);

 private:
  friend class Registration;
  void release_slot(int slot);

  int capacity_;
  std::atomic<int> high_water_{0};
  std::vector<Padded<std::atomic<bool>>> slots_;
  std::mutex listeners_mutex_;
  int next_listener_id_ = 0;
  std::vector<std::pair<int, std::function<void(int)>>> listeners_;
};

}  // namespace zstm::util
