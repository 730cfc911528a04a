// Epoch-based reclamation (EBR).
//
// The STMs in this repository publish immutable object versions through
// atomic pointers and retire superseded versions without blocking readers.
// The paper's prototypes ran on a JVM and delegated this to the garbage
// collector; EBR is the standard C++ substitute (see DESIGN.md §3,
// substitutions table).
//
// Protocol (classic 3-epoch scheme):
//  * A thread *pins* before touching shared version chains, announcing the
//    global epoch it observed; it unpins afterwards.
//  * retire(p) tags p with the current global epoch and queues it on the
//    retiring thread's local list (no synchronization on the list itself —
//    it is single-owner).
//  * The global epoch can advance from E to E+1 once every pinned thread
//    has announced E. A node retired in epoch E is unreachable from any
//    thread pinned in epoch >= E+2, so it is freed once the global epoch
//    reaches E+2.
//
// A transaction pins for its whole attempt, so any version pointer it reads
// remains valid until it commits or aborts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/align.hpp"
#include "util/thread_registry.hpp"

namespace zstm::util {

class EpochManager {
 public:
  /// A slot attempts a global epoch advance (and frees its safe garbage)
  /// every kCollectPeriod-th retire: the all-slots announcement scan is
  /// amortized at the cost of more deferred garbage.
  static constexpr int kCollectPeriod = 64;
  /// A slot holding this many unfreed retires waits, at its next outermost
  /// pin, for the epoch to free them (see reclaim()). A straggler pinned in
  /// an old epoch (a long attempt, a descheduled thread) otherwise lets
  /// every other slot's garbage, and the pool slabs behind it, grow for as
  /// long as it stays pinned.
  static constexpr std::size_t kGarbageCap = 8192;
  /// Most yields one such wait takes before pinning anyway: a long pin
  /// slows the retiring slots down but never stops them.
  static constexpr int kReclaimYields = 1000;

  explicit EpochManager(ThreadRegistry& registry);
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII pin. Re-entrant per slot (nested guards share one announcement).
  class Guard {
   public:
    Guard() = default;
    Guard(EpochManager* mgr, int slot) : mgr_(mgr), slot_(slot) {
      mgr_->pin(slot_);
    }
    Guard(Guard&& other) noexcept { swap(other); }
    Guard& operator=(Guard&& other) noexcept {
      release();
      swap(other);
      return *this;
    }
    ~Guard() { release(); }

   private:
    void swap(Guard& other) {
      std::swap(mgr_, other.mgr_);
      std::swap(slot_, other.slot_);
    }
    void release() {
      if (mgr_ != nullptr) {
        mgr_->unpin(slot_);
        mgr_ = nullptr;
      }
    }
    EpochManager* mgr_ = nullptr;
    int slot_ = -1;
  };

  Guard pin_guard(int slot) { return Guard(this, slot); }

  void pin(int slot);
  void unpin(int slot);
  /// seq_cst, like pin()'s announcement: a caller that closes a gate with
  /// a seq_cst RMW and then scans the slots forms a Dekker pair with a
  /// pinner that checks the gate after pinning (sstm's trim gate).
  bool pinned(int slot) const;

  /// Deleters receive the node and the slot of the thread that is freeing
  /// it (the collecting slot, not necessarily the retiring one) — pooled
  /// allocators use it to pick the thread-local return path.
  using Deleter = void (*)(void* p, int freeing_slot);

  /// Queue p for deletion once no pinned thread can still reach it.
  /// Must be called by the thread owning `slot`.
  template <typename T>
  void retire(int slot, T* p) {
    retire_raw(slot, p, [](void* q, int) { delete static_cast<T*>(q); });
  }

  void retire_raw(int slot, void* p, Deleter deleter);

  /// Opportunistically advance the global epoch and free this slot's safe
  /// garbage. Called automatically every kCollectPeriod retirements;
  /// callable manually.
  void collect(int slot);

  /// Quiescence hook: bounded effort to advance the epoch far enough to
  /// free everything this slot retired before the call (three advances
  /// cover the retire→epoch+2 window when no straggler is pinned). Use at
  /// natural pauses — thread detach, end of a benchmark phase — where the
  /// collect period would otherwise leave garbage stranded.
  void flush(int slot);

  /// Free *everything*. Caller must guarantee no thread is pinned (e.g.
  /// runtime destructor after joining workers).
  void drain_all();

  std::uint64_t global_epoch() const {
    return global_epoch_.value.load(std::memory_order_acquire);
  }
  /// Totals over all slots. Each slot's counts are exact; a sum taken
  /// while threads retire or collect is a snapshot, not a fixed point.
  std::uint64_t retired_count() const;
  std::uint64_t freed_count() const;

 private:
  struct Retired {
    void* ptr;
    Deleter deleter;
    std::uint64_t epoch;
  };

  struct alignas(kCacheLine) SlotState {
    /// kQuiescent when not pinned, else the epoch announced at pin time.
    std::atomic<std::uint64_t> announced{kQuiescent};
    /// Nesting depth; only touched by the owning thread.
    int nesting = 0;
    /// Retire counter since the last collect(); owner-only.
    int since_collect = 0;
    /// Lifetime totals; written only by the owner (or by drain_all), read
    /// by any thread through retired_count()/freed_count().
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> freed{0};
  };

  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  bool try_advance();
  /// pin()'s wait, unpinned, when the slot holds kGarbageCap retires:
  /// collect, then yield until it holds fewer or kReclaimYields yields
  /// have passed.
  void reclaim(int slot);

  ThreadRegistry& registry_;
  // Padded, not just alignas: alignas only anchors the *start* of the
  // member, so the vector headers declared next would otherwise share the
  // epoch's contended line (PR 7 padding audit).
  Padded<std::atomic<std::uint64_t>> global_epoch_;
  std::vector<SlotState> slots_;
  // Garbage lists are single-owner; one vector per slot, padded apart.
  std::vector<Padded<std::vector<Retired>>> garbage_;
};

}  // namespace zstm::util
