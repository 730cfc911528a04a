// runtime::Core — the part every runtime builds the same way (DESIGN.md §1):
// the one Config, the thread registry, the stats domain, the node pool, EBR,
// the history recorder, the transaction-id lanes and the contention
// manager's start ticks. lsa, cs, sstm and tl2 derive from it (zl wraps
// lsa); the versioned-object store reaches the pool, stats and EBR through
// it.
//
// Member order is teardown order, reversed: the pool outlives the
// EpochManager, whose destructor drains deleters that return nodes to the
// pool, and everything a derived runtime declares (its store, sstm's
// descriptor arena) is destroyed before any of this; lsa removes its
// registry listener in its own destructor, while the registry is alive.
#pragma once

#include <cstdint>

#include "history/recorder.hpp"
#include "object/node_pool.hpp"
#include "runtime/config.hpp"
#include "timebase/sharded_clock.hpp"
#include "util/align.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::runtime {

class Core {
 public:
  explicit Core(const Config& cfg)
      : cfg_(cfg),
        registry_(cfg.max_threads),
        stats_(registry_),
        pool_(registry_, &stats_, cfg.use_node_pool),
        epochs_(registry_),
        recorder_(cfg.record_history, cfg.max_threads),
        ids_(cfg.max_threads, /*shards=*/cfg.max_threads) {}

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  const Config& config() const { return cfg_; }
  util::StatsSnapshot stats() const { return stats_.snapshot(); }
  void reset_stats() { stats_.reset(); }
  history::History collect_history() const { return recorder_.collect(); }

  util::ThreadRegistry& registry() { return registry_; }
  util::StatsDomain& stats_domain() { return stats_; }
  object::NodePool& node_pool() { return pool_; }
  util::EpochManager& epochs() { return epochs_; }
  history::Recorder& recorder() { return recorder_; }

  /// Globally unique transaction id from the slot's own lane of the
  /// exclusive sharded clock (no atomic RMW). Ids are identity only:
  /// nothing orders by them, and the history checkers reject a duplicate.
  std::uint64_t next_tx_id(int slot) { return ids_.unique_id(slot); }

  /// Start-time tick for the contention manager's age-based policies.
  std::uint64_t next_tick() {
    return ticks_.value.fetch_add(1, std::memory_order_relaxed);
  }

  /// Retire `p` (a pool-created node) through EBR: it returns to the pool
  /// once no pinned thread can reach it, or is deleted when the pool is
  /// off. Must be called by the thread owning `slot`.
  template <typename T>
  void retire(int slot, T* p) {
    if (pool_.enabled()) {
      epochs_.retire_raw(slot, p, &object::NodePool::ebr_destroy<T>);
    } else {
      epochs_.retire(slot, p);
    }
  }

 protected:
  Config cfg_;
  util::ThreadRegistry registry_;
  util::StatsDomain stats_;
  object::NodePool pool_;
  util::EpochManager epochs_;
  history::Recorder recorder_;

 private:
  util::PaddedCounter ticks_;
  timebase::ShardedClock ids_;
};

}  // namespace zstm::runtime
