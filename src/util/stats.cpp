#include "util/stats.hpp"

#include <chrono>
#include <sstream>

namespace zstm::util {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kCommits: return "commits";
    case Counter::kAborts: return "aborts";
    case Counter::kShortCommits: return "short_commits";
    case Counter::kShortAborts: return "short_aborts";
    case Counter::kLongCommits: return "long_commits";
    case Counter::kLongAborts: return "long_aborts";
    case Counter::kReads: return "reads";
    case Counter::kWrites: return "writes";
    case Counter::kExtensions: return "extensions";
    case Counter::kExtensionFails: return "extension_fails";
    case Counter::kValidationFails: return "validation_fails";
    case Counter::kZoneConflicts: return "zone_conflicts";
    case Counter::kZonePassed: return "zone_passed";
    case Counter::kCmWaits: return "cm_waits";
    case Counter::kCmKills: return "cm_kills";
    case Counter::kPoolHits: return "pool_hits";
    case Counter::kPoolMisses: return "pool_misses";
    case Counter::kPoolReturns: return "pool_returns";
    case Counter::kVersionPruned: return "version_pruned";
    case Counter::kCount: break;
  }
  return "?";
}

StatsDomain::StatsDomain(const ThreadRegistry& registry)
    : registry_(registry),
      cells_(static_cast<std::size_t>(registry.capacity())) {}

StatsSnapshot StatsDomain::snapshot() const {
  StatsSnapshot snap;
  for (std::size_t s = 0; s < cells_.size(); ++s) {
    for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c) {
      snap.totals[c] += cells_[s].value[c].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void StatsDomain::reset() {
  for (auto& cell : cells_) {
    for (auto& counter : cell.value) {
      counter.store(0, std::memory_order_relaxed);
    }
  }
}

ProgressTracker::ProgressTracker(int max_slots)
    : cells_(static_cast<std::size_t>(max_slots > 0 ? max_slots : 1)) {}

std::uint64_t ProgressTracker::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ProgressTracker::Snapshot ProgressTracker::snapshot() const {
  Snapshot snap;
  for (std::size_t s = 0; s < cells_.size(); ++s) {
    const Cell& c = cells_[s].value;
    const std::uint32_t high = c.max_attempts.load(std::memory_order_relaxed);
    if (high > snap.max_attempts) {
      snap.max_attempts = high;
      snap.max_attempts_slot = static_cast<int>(s);
    }
    snap.serial_entries +=
        c.serial_entries.load(std::memory_order_relaxed);
  }
  return snap;
}

void ProgressTracker::reset() {
  for (auto& cell : cells_) {
    cell.value.max_attempts.store(0, std::memory_order_relaxed);
    cell.value.serial_entries.store(0, std::memory_order_relaxed);
  }
}

std::string StatsSnapshot::to_string() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < totals.size(); ++c) {
    if (totals[c] == 0) continue;
    os << counter_name(static_cast<Counter>(c)) << "=" << totals[c] << " ";
  }
  return os.str();
}

}  // namespace zstm::util
