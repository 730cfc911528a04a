// runtime::Core — the part every runtime builds the same way (DESIGN.md §1):
// the one Config, the thread registry, the stats domain, the node pool, EBR,
// the history recorder and the transaction-id lanes. lsa, cs, sstm and tl2
// derive from it (zl wraps lsa); the versioned-object store reaches the
// pool, stats and EBR through it.
//
// Member order is teardown order, reversed: the pool outlives the
// EpochManager, whose destructor drains deleters that return nodes to the
// pool; the registry outlives the pool, which removes its release listener
// on destruction; and everything a derived runtime declares (its store,
// sstm's descriptor arena) is destroyed before any of this.
#pragma once

#include <cstdint>
#include <vector>

#include "history/recorder.hpp"
#include "object/node_pool.hpp"
#include "runtime/config.hpp"
#include "util/align.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::runtime {

class Core {
 public:
  /// A transaction id carries its slot in this many low bits.
  static constexpr int kSlotBits = 6;
  static_assert(util::ThreadRegistry::kMaxThreads <= (1 << kSlotBits),
                "every registry slot must fit the transaction id's slot bits");

  explicit Core(const Config& cfg)
      : cfg_(cfg),
        registry_(cfg.max_threads),
        stats_(registry_),
        pool_(registry_, &stats_, cfg.use_node_pool),
        epochs_(registry_),
        recorder_(cfg.record_history, cfg.max_threads),
        // vector(n): PaddedCounter holds an atomic and cannot be moved.
        id_lanes_(static_cast<std::size_t>(cfg.max_threads)) {}

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

  /// Globally unique, non-zero transaction id, `(tick << kSlotBits) |
  /// slot`, from the slot's own padded lane. Only the slot's owner
  /// advances its lane (the registry's claim and release order successive
  /// owners), so a load and a store suffice: no atomic RMW. Ids are
  /// identity only: nothing orders by them, and the history checkers
  /// reject a duplicate.
  std::uint64_t next_tx_id(int slot) {
    auto& lane = id_lanes_[static_cast<std::size_t>(slot)].value;
    const std::uint64_t tick = lane.load(std::memory_order_relaxed) + 1;
    lane.store(tick, std::memory_order_relaxed);
    return (tick << kSlotBits) | static_cast<std::uint64_t>(slot);
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
  std::vector<util::PaddedCounter> id_lanes_;
};

}  // namespace zstm::runtime
