// NodePool — epoch-integrated slab allocation for the object substrate.
//
// Every open-for-write used to perform three or more global heap
// allocations (locator, version, payload clone, plus a throwaway locator
// per settle/CAS retry), and EBR then `delete`d those nodes from whichever
// thread happened to flush its retire list — a cross-thread malloc/free
// ping-pong on the per-access hot path. The pool replaces that traffic
// with per-thread, cache-line-aware slab free lists (DESIGN.md §7):
//
//  * Blocks are carved from 64-byte-aligned slabs in cache-line-multiple
//    strides, one size class per stride. Each block carries a 16-byte
//    header {pool, class, owner slot}; the owner is the slot whose slab the
//    block was carved from, or the slot that last took it from the depot.
//  * allocate(slot) pops the slot's local free list — single-owner, no
//    atomics. On a local miss it flushes the slot's MPSC return stack, then
//    takes up to kSlabNodes blocks from the depot; only when both are empty
//    does it touch the global heap (one slab per kSlabNodes allocations —
//    the pool-miss counter).
//  * release_block(p, slot) pushes back to the local list when the freeing
//    slot owns the block, else onto the owner's MPSC return stack (Treiber
//    push; the owner steals the whole stack with one exchange), or into
//    the depot when the owner slot is vacant.
//  * EBR integration: retirement uses ebr_destroy<T> as the epoch deleter,
//    so a node goes retire → grace period → free list instead of retire →
//    grace period → ::operator delete. The happens-before chain that makes
//    reuse safe is EBR's own (unpin release → epoch advance → collect).
//  * Thread churn: a ThreadRegistry release hook moves a detaching slot's
//    free lists and return stacks into the depot, which any slot draws
//    from before it carves. The pool so holds what its threads need at
//    once, not what each slot needed at its busiest under whichever
//    thread held it (DESIGN.md §7, "Depot").
//
// `ZSTM_POOL=0` (environment) or Config::use_node_pool = false disables
// pooling: create/destroy degrade to plain new/delete (for debugging and
// ASan, whose heap poisoning the pool would defeat). Allocation hit/miss
// accounting runs in both modes so benches can compare them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/failpoint.hpp"
#include "util/align.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::object {

class NodePool {
 public:
  /// Strongest alignment a pooled node may require.
  static constexpr std::size_t kNodeAlign = 16;
  /// Size classes: stride 64·(c+1) bytes, user capacity stride − 16.
  static constexpr int kClassCount = 8;
  /// Nodes carved per slab (one global allocation amortized over this many
  /// pool allocations even before any node is ever reused).
  static constexpr int kSlabNodes = 32;

  /// `stats` may be null (no accounting). `requested` is the runtime's
  /// Config knob; the ZSTM_POOL environment escape hatch overrides it.
  NodePool(util::ThreadRegistry& registry, util::StatsDomain* stats,
           bool requested = true);
  ~NodePool();

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// False iff the environment sets ZSTM_POOL=0.
  static bool env_enabled();

  bool enabled() const { return enabled_; }

  /// Construct a T from the slot's pool (plain `new` when disabled).
  /// `slot` may be −1 (unregistered thread): the node then bypasses the
  /// free lists as an individually-allocated block.
  template <typename T, typename... Args>
  T* create(int slot, Args&&... args) {
    static_assert(alignof(T) <= kNodeAlign,
                  "pooled node type over-aligned for the slab layout");
    if (fault::poke(fault::Site::kPoolAlloc) == fault::Effect::kOom) {
      throw std::bad_alloc{};
    }
    if (!enabled_) {
      count_miss(slot);
      return new T(std::forward<Args>(args)...);
    }
    void* mem = allocate(slot, sizeof(T));
    try {
      return ::new (mem) T(std::forward<Args>(args)...);
    } catch (...) {
      release_block(mem, slot);
      throw;
    }
  }

  /// Destroy and return a node obtained from create() on this pool.
  template <typename T>
  void destroy(int slot, T* p) {
    if (!enabled_) {
      delete p;
      return;
    }
    p->~T();
    release_block(p, slot);
  }

  /// EBR deleter for pooled nodes: the epoch manager calls it with the
  /// freeing thread's slot once the grace period has passed.
  template <typename T>
  static void ebr_destroy(void* p, int slot) {
    static_cast<T*>(p)->~T();
    release_block(p, slot);
  }

  /// Raw-block interface (create/destroy/ebr_destroy are the typed front).
  void* allocate(int slot, std::size_t size);
  static void release_block(void* p, int slot);

  /// Move the slot's local free lists and return stacks into the depot.
  /// Runs automatically on ThreadRegistry slot release.
  void drain_slot(int slot);

  // --- test introspection (owner thread or quiesced state only) ---------
  std::size_t local_free_count(int slot) const;
  std::size_t foreign_return_count(int slot) const;

 private:
  /// Precedes every pooled block. `cls == kOversizeClass` marks an
  /// individually-allocated block (too big for any class, or allocated
  /// without a slot) that release_block frees directly.
  struct Header {
    NodePool* pool;
    std::uint32_t cls;
    std::uint32_t owner_slot;
  };
  static_assert(sizeof(Header) == 16, "header must keep blocks 16-aligned");
  static constexpr std::size_t kHeaderBytes = sizeof(Header);
  static constexpr std::uint32_t kOversizeClass = ~std::uint32_t{0};

  /// Lives in the user area of a free block.
  struct FreeNode {
    FreeNode* next;
  };

  /// Per-slot local heads: one cache line, owner-thread only.
  struct alignas(util::kCacheLine) LocalLists {
    FreeNode* head[kClassCount] = {};
  };
  /// Per-slot MPSC return stacks (any thread pushes, owner steals all).
  struct alignas(util::kCacheLine) ReturnStacks {
    std::atomic<FreeNode*> head[kClassCount] = {};
  };

  static constexpr std::size_t stride_of(int cls) {
    return util::kCacheLine * (static_cast<std::size_t>(cls) + 1);
  }
  /// Smallest class whose user area holds `size` bytes; −1 when none does.
  static constexpr int class_for(std::size_t size) {
    const std::size_t stride = size + kHeaderBytes;
    const int cls =
        static_cast<int>((stride + util::kCacheLine - 1) / util::kCacheLine) -
        1;
    return cls < kClassCount ? cls : -1;
  }

  static Header* header_of(void* user) {
    return reinterpret_cast<Header*>(static_cast<char*>(user) - kHeaderBytes);
  }

  void* carve_slab(int slot, int cls);
  /// Up to kSlabNodes depot blocks of class `cls`, re-owned by `slot`, as
  /// a null-terminated list; nullptr when the depot has none.
  FreeNode* take_from_depot(int slot, int cls);
  void* allocate_oversize(int slot, std::size_t size);

  void count_hit(int slot) {
    if (stats_ != nullptr && slot >= 0) {
      stats_->add(slot, util::Counter::kPoolHits);
    }
  }
  void count_miss(int slot) {
    if (stats_ != nullptr && slot >= 0) {
      stats_->add(slot, util::Counter::kPoolMisses);
    }
  }
  void count_return(int slot) {
    if (stats_ != nullptr && slot >= 0) {
      stats_->add(slot, util::Counter::kPoolReturns);
    }
  }

  util::ThreadRegistry& registry_;
  util::StatsDomain* stats_;
  bool enabled_;
  int listener_id_ = -1;
  std::vector<LocalLists> local_;
  std::vector<ReturnStacks> returns_;
  std::mutex slabs_mutex_;
  std::vector<void*> slabs_;
  /// Free blocks of vacant slots, per class, for any slot to take.
  std::mutex depot_mutex_;
  FreeNode* depot_[kClassCount] = {};
};

}  // namespace zstm::object
