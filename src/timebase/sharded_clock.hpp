// Sharded clock: per-shard padded tick counters with a static thread→shard
// map, producing (shard, tick) stamps ordered through the clock_order.hpp
// machinery (DESIGN.md §10).
//
// This is the most aggressive relaxation in the timebase hierarchy: stamps
// from the same shard are totally ordered by tick; stamps from different
// shards are incomparable (Order::kConcurrent). That deliberately discards
// even the cross-shard causality a plausible REV clock (§4.3) retains, so a
// ShardedClock can NEVER replace the commit clock of a runtime whose
// criterion needs cross-thread ordering — using it there would admit
// schedules the paper's §4.1 conditions reject. What the total loss of
// cross-shard order buys is shard-local fetch_adds: commit-stamp
// acquisition scales with the shard count instead of serializing on one
// cache line (zstm_bench's clock_scale section quantifies it).
//
// Safe productized uses, wired through the runtimes:
//  * unique_id(): globally unique ids that need no ordering at all —
//    every runtime's transaction ids (runtime::Core::next_tx_id). The
//    shard index rides in the low kShardBits of the id.
//  * Raw (shard, tick) stamps for harnesses/tests that only ever compare
//    within a shard.
//
// The default slot→shard map is cache-topology aware: slots map to their
// util::slot_home_group, so threads placed by the topology-aware
// ThreadRegistry bump a counter that lives in their own cache group.
#pragma once

#include <cstdint>
#include <vector>

#include "timebase/clock_order.hpp"
#include "util/align.hpp"
#include "util/cpu_topology.hpp"

namespace zstm::timebase {

/// A (shard, tick) pair. Same shard ⇒ ordered by tick; different shards ⇒
/// concurrent. Ticks start at 1 (a zero-tick stamp precedes every stamp of
/// its shard and is concurrent with every other shard, like an unwritten
/// vector-clock entry).
struct ShardStamp {
  std::uint32_t shard = 0;
  std::uint64_t tick = 0;

  Order compare(const ShardStamp& other) const {
    if (shard != other.shard) return Order::kConcurrent;
    if (tick == other.tick) return Order::kEqual;
    return tick < other.tick ? Order::kBefore : Order::kAfter;
  }
};

class ShardedClock {
 public:
  /// unique_id() packs the shard into this many low bits, so at most
  /// 2^kShardBits shards participate in id generation.
  static constexpr int kShardBits = 6;
  static constexpr int kMaxShards = 1 << kShardBits;

  /// `slots`: registry capacity the slot→shard map covers. `shards`: 0
  /// selects one shard per cache-topology group (>= 1); explicit values
  /// are clamped to [1, kMaxShards]. Requesting shards >= slots selects
  /// the *exclusive* layout: every slot gets its own single-writer lane
  /// (identity map), and tick() needs no atomic RMW at all — just a plain
  /// load and a release store, since the registry guarantees one thread
  /// per slot. That is the fastest configuration on every host (no lock
  /// prefix even uncontended) and the maximum-contention-relief one on
  /// multi-core parts; it is what the runtimes use for id generation.
  explicit ShardedClock(int slots, int shards = 0)
      : slots_(slots > 0 ? slots : 1) {
    if (shards <= 0) shards = util::cpu_topology().groups;
    if (shards < 1) shards = 1;
    if (shards > kMaxShards) shards = kMaxShards;
    if (shards > slots_) shards = slots_;
    shards_ = shards;
    exclusive_ = (shards_ == slots_);
    // vector(n), not resize: PaddedCounter holds an atomic and is not
    // move-insertable; the count constructor only default-constructs.
    counters_ = std::vector<util::PaddedCounter>(
        static_cast<std::size_t>(shards_));
    map_.resize(static_cast<std::size_t>(slots_));
    for (int s = 0; s < slots_; ++s) {
      map_[static_cast<std::size_t>(s)] =
          exclusive_ ? s : util::slot_home_group(s, slots_) % shards_;
    }
  }

  int shards() const { return shards_; }
  bool exclusive() const { return exclusive_; }

  int shard_of(int slot) const {
    if (slot < 0 || slot >= slots_) return 0;
    return map_[static_cast<std::size_t>(slot)];
  }

  /// Next stamp of the slot's shard: unique within the shard, strictly
  /// increasing per shard, concurrent with every other shard.
  ShardStamp tick(int slot) {
    const int sh = shard_of(slot);
    auto& c = counters_[static_cast<std::size_t>(sh)].value;
    std::uint64_t t;
    if (exclusive_) {
      // Single-writer lane: only this slot's thread ever advances it, so
      // a plain load + release store suffices (uniqueness and per-shard
      // monotonicity are trivial with one writer; concurrent now() readers
      // see a monotone sequence through the atomic).
      t = c.load(std::memory_order_relaxed) + 1;
      c.store(t, std::memory_order_release);
    } else {
      t = c.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    return ShardStamp{static_cast<std::uint32_t>(sh), t};
  }

  /// Current shard time without advancing it.
  ShardStamp now(int slot) const {
    const int sh = shard_of(slot);
    return ShardStamp{static_cast<std::uint32_t>(sh),
                      counters_[static_cast<std::size_t>(sh)].value.load(
                          std::memory_order_relaxed)};
  }

  /// Globally unique, non-zero id: (tick << kShardBits) | shard. Ids carry
  /// no ordering across shards — use only where identity suffices
  /// (transaction ids, object ids), never as a commit stamp.
  std::uint64_t unique_id(int slot) {
    const ShardStamp s = tick(slot);
    return (s.tick << kShardBits) | s.shard;
  }

 private:
  int slots_;
  int shards_ = 1;
  bool exclusive_ = false;
  std::vector<int> map_;
  std::vector<util::PaddedCounter> counters_;
};

}  // namespace zstm::timebase
