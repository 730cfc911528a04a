#include "util/ebr.hpp"

#include <thread>

#include "fault/failpoint.hpp"

namespace zstm::util {

namespace {

// Single-writer counter increment: a plain load and store, no RMW.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

}  // namespace

EpochManager::EpochManager(ThreadRegistry& registry)
    : registry_(registry),
      slots_(static_cast<std::size_t>(registry.capacity())),
      garbage_(static_cast<std::size_t>(registry.capacity())) {
  // Epochs start at 2 so `epoch + 2 <= global` can never be satisfied by
  // wraparound arithmetic on the initial value.
  global_epoch_.value.store(2, std::memory_order_relaxed);
}

EpochManager::~EpochManager() { drain_all(); }

void EpochManager::pin(int slot) {
  auto& st = slots_[static_cast<std::size_t>(slot)];
  if (st.nesting++ > 0) return;  // already pinned by an outer guard
  reclaim(slot);
  // seq_cst: the announcement must be globally visible before this thread
  // dereferences any shared version pointer, otherwise a concurrent
  // try_advance() could free memory this thread is about to read.
  st.announced.store(global_epoch_.value.load(std::memory_order_seq_cst),
                     std::memory_order_seq_cst);
}

void EpochManager::unpin(int slot) {
  auto& st = slots_[static_cast<std::size_t>(slot)];
  if (--st.nesting > 0) return;
  st.announced.store(kQuiescent, std::memory_order_release);
}

bool EpochManager::pinned(int slot) const {
  return slots_[static_cast<std::size_t>(slot)].announced.load(
             std::memory_order_seq_cst) != kQuiescent;
}

void EpochManager::retire_raw(int slot, void* p, Deleter deleter) {
  fault::poke(fault::Site::kEbrRetire);  // delay-only site
  auto& st = slots_[static_cast<std::size_t>(slot)];
  garbage_[static_cast<std::size_t>(slot)].value.push_back(
      Retired{p, deleter, global_epoch_.value.load(std::memory_order_acquire)});
  bump(st.retired, 1);
  if (++st.since_collect >= kCollectPeriod) {
    st.since_collect = 0;
    collect(slot);
  }
}

void EpochManager::flush(int slot) {
  // Each collect() attempts one epoch advance before freeing; with no
  // straggler pinned in an old epoch, three rounds walk the global epoch
  // past retire_epoch + 2 for everything retired before this call.
  for (int i = 0; i < 3; ++i) collect(slot);
  slots_[static_cast<std::size_t>(slot)].since_collect = 0;
}

void EpochManager::reclaim(int slot) {
  // Unannounced, the slot cannot hold the epoch back itself. The list is
  // scanned again only once no straggler is left, and each yield hands the
  // CPU to a straggler that may be waiting for one.
  const auto& list = garbage_[static_cast<std::size_t>(slot)].value;
  if (list.size() >= kGarbageCap) collect(slot);
  for (int i = 0; i < kReclaimYields && list.size() >= kGarbageCap; ++i) {
    std::this_thread::yield();
    if (try_advance()) collect(slot);
  }
}

bool EpochManager::try_advance() {
  const std::uint64_t e = global_epoch_.value.load(std::memory_order_seq_cst);
  const int hw = registry_.high_water();
  for (int i = 0; i < hw; ++i) {
    const std::uint64_t a =
        slots_[static_cast<std::size_t>(i)].announced.load(
            std::memory_order_seq_cst);
    if (a != kQuiescent && a != e) return false;  // straggler in an old epoch
  }
  std::uint64_t expected = e;
  global_epoch_.value.compare_exchange_strong(expected, e + 1,
                                              std::memory_order_seq_cst);
  return true;
}

void EpochManager::collect(int slot) {
  try_advance();
  const std::uint64_t e = global_epoch_.value.load(std::memory_order_acquire);
  auto& list = garbage_[static_cast<std::size_t>(slot)].value;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    // Retired in epoch r: reclaimable once the global epoch reached r+2,
    // because every thread pinned then has announced an epoch >= r+1 and so
    // started after the retire was published.
    if (list[i].epoch + 2 <= e) {
      list[i].deleter(list[i].ptr, slot);
    } else {
      list[kept++] = list[i];
    }
  }
  bump(slots_[static_cast<std::size_t>(slot)].freed, list.size() - kept);
  list.resize(kept);
}

void EpochManager::drain_all() {
  for (std::size_t s = 0; s < garbage_.size(); ++s) {
    auto& list = garbage_[s].value;
    for (auto& item : list) {
      // Single-threaded teardown: free on behalf of the retiring slot so
      // pooled nodes land back on their owner's free list.
      item.deleter(item.ptr, static_cast<int>(s));
    }
    bump(slots_[s].freed, list.size());
    list.clear();
  }
}

std::uint64_t EpochManager::retired_count() const {
  std::uint64_t total = 0;
  for (const auto& st : slots_) {
    total += st.retired.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t EpochManager::freed_count() const {
  std::uint64_t total = 0;
  for (const auto& st : slots_) {
    total += st.freed.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace zstm::util
