// Per-thread statistics, aggregated on demand.
//
// Counters are bumped on transaction hot paths, so each thread slot gets a
// cache-line-padded block and increments are relaxed (only aggregate totals
// matter, and they are read after workers quiesce or as monotone progress
// indicators).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/align.hpp"
#include "util/thread_registry.hpp"

namespace zstm::util {

enum class Counter : int {
  kCommits = 0,
  kAborts,
  kShortCommits,
  kShortAborts,
  kLongCommits,
  kLongAborts,
  kReads,
  kWrites,
  kExtensions,       // LSA snapshot extensions
  kExtensionFails,
  kValidationFails,  // commit-time validation aborts
  kZoneConflicts,    // Z-STM short transactions hitting an active zone edge
  kZonePassed,       // Z-STM long transactions passed by a higher zc
  kCmWaits,          // acquire's waits on a committing owner
  kCmKills,          // acquire's aborts of an active owner
  kPoolHits,         // node allocations served from a slab free list
  kPoolMisses,       // node allocations that hit the global heap (slab carve)
  kPoolReturns,      // cross-thread node releases routed via an MPSC stack
  kVersionPruned,    // aborts because the version a read needs was pruned
  kCount
};

const char* counter_name(Counter c);

struct StatsSnapshot {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)> totals{};

  std::uint64_t operator[](Counter c) const {
    return totals[static_cast<std::size_t>(c)];
  }
  std::string to_string() const;
};

class StatsDomain {
 public:
  explicit StatsDomain(const ThreadRegistry& registry);

  void add(int slot, Counter c, std::uint64_t n = 1) {
    cells_[static_cast<std::size_t>(slot)]
        .value[static_cast<std::size_t>(c)]
        .fetch_add(n, std::memory_order_relaxed);
  }

  StatsSnapshot snapshot() const;
  void reset();

 private:
  using Cell =
      std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Counter::kCount)>;

  const ThreadRegistry& registry_;
  std::vector<Padded<Cell>> cells_;
};

/// Starvation watchdog: per-slot progress cells the façade's retry loop
/// updates when a transaction ends or enters the serial fallback (a relaxed
/// load, plus a CAS only on a new high-water, padded per slot).
/// `snapshot()` is the monitoring hook: the highest attempt count any
/// transaction needed, and how often the serial fallback fired. All reads
/// are advisory — a snapshot races with live transactions by design.
class ProgressTracker {
 public:
  explicit ProgressTracker(int max_slots);

  /// Monotonic nanoseconds (steady clock) — exposed so tests, the KV
  /// service's arrival stamps and the benchmarks share one timebase.
  static std::uint64_t now_ns();

  void note_serial(int slot) {
    cells_[static_cast<std::size_t>(slot)].value.serial_entries.fetch_add(
        1, std::memory_order_relaxed);
  }
  void tx_end(int slot, std::uint32_t attempts) {
    auto& high = cells_[static_cast<std::size_t>(slot)].value.max_attempts;
    std::uint32_t prev = high.load(std::memory_order_relaxed);
    while (attempts > prev &&
           !high.compare_exchange_weak(prev, attempts,
                                       std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    /// Highest attempt count any finished transaction needed, and where.
    std::uint32_t max_attempts = 0;
    int max_attempts_slot = -1;
    /// Times the serial-irrevocable fallback was entered.
    std::uint64_t serial_entries = 0;
  };
  Snapshot snapshot() const;
  void reset();

 private:
  struct Cell {
    std::atomic<std::uint32_t> max_attempts{0};
    std::atomic<std::uint64_t> serial_entries{0};
  };
  std::vector<Padded<Cell>> cells_;
};

}  // namespace zstm::util
