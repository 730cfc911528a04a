// Tests for epoch-based reclamation: pinning, deferral, advancement, and a
// multi-threaded use-after-free hunt.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/ebr.hpp"

namespace zstm::util {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : alive(&counter) {
    alive->fetch_add(1);
  }
  ~Tracked() { alive->fetch_sub(1); }
  std::atomic<int>* alive;
  int payload = 42;
};

TEST(Ebr, PinUnpinTogglesState) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto r = reg.attach();
  EXPECT_FALSE(ebr.pinned(r.slot()));
  {
    auto g = ebr.pin_guard(r.slot());
    EXPECT_TRUE(ebr.pinned(r.slot()));
  }
  EXPECT_FALSE(ebr.pinned(r.slot()));
}

TEST(Ebr, NestedPinsShareOneAnnouncement) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto r = reg.attach();
  auto g1 = ebr.pin_guard(r.slot());
  {
    auto g2 = ebr.pin_guard(r.slot());
    EXPECT_TRUE(ebr.pinned(r.slot()));
  }
  EXPECT_TRUE(ebr.pinned(r.slot()));  // outer guard still holds
}

TEST(Ebr, RetiredNodeNotFreedWhilePinned) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto r = reg.attach();
  std::atomic<int> alive{0};
  auto guard = ebr.pin_guard(r.slot());
  auto* node = new Tracked(alive);
  ebr.retire(r.slot(), node);
  for (int i = 0; i < 10; ++i) ebr.collect(r.slot());
  // Our own pin keeps the epoch from advancing twice.
  EXPECT_EQ(alive.load(), 1);
  EXPECT_EQ(node->payload, 42);  // still valid to dereference
}

TEST(Ebr, RetiredNodeFreedAfterQuiescence) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto r = reg.attach();
  std::atomic<int> alive{0};
  {
    auto guard = ebr.pin_guard(r.slot());
    ebr.retire(r.slot(), new Tracked(alive));
  }
  for (int i = 0; i < 4; ++i) ebr.collect(r.slot());
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, DrainAllFreesEverything) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto r = reg.attach();
  std::atomic<int> alive{0};
  for (int i = 0; i < 100; ++i) ebr.retire(r.slot(), new Tracked(alive));
  ebr.drain_all();
  EXPECT_EQ(alive.load(), 0);
  EXPECT_EQ(ebr.freed_count(), ebr.retired_count());
}

TEST(Ebr, EpochAdvancesWhenAllQuiescent) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto r = reg.attach();
  const std::uint64_t before = ebr.global_epoch();
  ebr.collect(r.slot());
  EXPECT_GT(ebr.global_epoch(), before);
}

TEST(Ebr, StragglerBlocksAdvancement) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto a = reg.attach();
  auto b = reg.attach();
  auto guard = ebr.pin_guard(a.slot());       // a pins the current epoch
  const std::uint64_t e0 = ebr.global_epoch();
  ebr.collect(b.slot());                      // b tries to advance: ok once
  const std::uint64_t e1 = ebr.global_epoch();
  EXPECT_LE(e1, e0 + 1);
  ebr.collect(b.slot());                      // now a's announcement is stale
  EXPECT_EQ(ebr.global_epoch(), e1);
}

// A slot left holding kGarbageCap retires by a straggler frees down below
// the cap at its next pin, once the straggler has unpinned.
TEST(Ebr, PinFreesGarbageOverTheCapOnceTheStragglerLeaves) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto a = reg.attach();
  auto b = reg.attach();
  std::atomic<int> alive{0};
  const int n = static_cast<int>(EpochManager::kGarbageCap) + 10;
  {
    auto straggler = ebr.pin_guard(a.slot());
    for (int i = 0; i < n; ++i) ebr.retire(b.slot(), new Tracked(alive));
    EXPECT_EQ(alive.load(), n);  // nothing freeable while a is pinned
  }
  auto g = ebr.pin_guard(b.slot());
  EXPECT_LT(alive.load(), static_cast<int>(EpochManager::kGarbageCap));
}

// The wait is bounded: a straggler that stays pinned slows the next pin
// down but never blocks it, and nothing it may still reach is freed.
TEST(Ebr, PinOverTheCapReturnsWhileAStragglerStaysPinned) {
  ThreadRegistry reg(4);
  EpochManager ebr(reg);
  auto a = reg.attach();
  auto b = reg.attach();
  std::atomic<int> alive{0};
  const int n = static_cast<int>(EpochManager::kGarbageCap) + 10;
  {
    auto straggler = ebr.pin_guard(a.slot());
    for (int i = 0; i < n; ++i) ebr.retire(b.slot(), new Tracked(alive));
    {
      auto g = ebr.pin_guard(b.slot());
      EXPECT_TRUE(ebr.pinned(b.slot()));
    }
    EXPECT_EQ(alive.load(), n);
  }
  ebr.drain_all();
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, CountsAreMonotone) {
  ThreadRegistry reg(2);
  EpochManager ebr(reg);
  auto r = reg.attach();
  std::atomic<int> alive{0};
  ebr.retire(r.slot(), new Tracked(alive));
  EXPECT_EQ(ebr.retired_count(), 1u);
  EXPECT_LE(ebr.freed_count(), ebr.retired_count());
}

// Per-slot tallies: concurrent retirers never lose a count, and a reader
// summing the slots mid-run sees a monotone total that never overshoots.
TEST(Ebr, CountsAreExactUnderConcurrentRetires) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  ThreadRegistry reg(kThreads + 1);
  EpochManager ebr(reg);
  std::atomic<int> alive{0};
  std::atomic<bool> stop{false};
  std::thread watcher([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = ebr.retired_count();
      ASSERT_GE(now, last);
      ASSERT_LE(now, kThreads * kPerThread);
      last = now;
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = reg.attach();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        auto g = ebr.pin_guard(r.slot());
        ebr.retire(r.slot(), new Tracked(alive));
      }
      ebr.flush(r.slot());
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  watcher.join();
  EXPECT_EQ(ebr.retired_count(), kThreads * kPerThread);
  EXPECT_EQ(ebr.freed_count(),
            kThreads * kPerThread - static_cast<std::uint64_t>(alive.load()));
  ebr.drain_all();
  EXPECT_EQ(ebr.freed_count(), ebr.retired_count());
  EXPECT_EQ(alive.load(), 0);
}

// Multi-threaded hunt: readers traverse a shared atomic pointer under pin
// while a writer continuously swaps and retires nodes. TSAN/ASAN builds
// turn latent bugs into hard failures; in plain builds the payload check
// catches gross use-after-free.
TEST(Ebr, ConcurrentSwapAndReadStress) {
  ThreadRegistry reg(8);
  EpochManager ebr(reg);
  std::atomic<int> alive{0};
  std::atomic<Tracked*> shared{new Tracked(alive)};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      auto r = reg.attach();
      while (!stop.load(std::memory_order_acquire)) {
        auto g = ebr.pin_guard(r.slot());
        Tracked* node = shared.load(std::memory_order_acquire);
        ASSERT_EQ(node->payload, 42);  // must never observe freed memory
      }
    });
  }
  std::thread writer([&] {
    auto r = reg.attach();
    for (int i = 0; i < 30000; ++i) {
      auto* fresh = new Tracked(alive);
      Tracked* old = shared.exchange(fresh, std::memory_order_acq_rel);
      ebr.retire(r.slot(), old);
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& th : readers) th.join();
  ebr.retire(0, shared.load());
  ebr.drain_all();
  EXPECT_EQ(alive.load(), 0);
}

}  // namespace
}  // namespace zstm::util
