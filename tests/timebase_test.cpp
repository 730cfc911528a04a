// Tests for the time bases: global counter, vector stamps (§4), the REV
// clock domain (§4.3) including the four plausibility guarantees and r = n
// as the exact vector clock, and the simulated synchronized real-time
// clocks (§2/[9]).
//
// CTest label: `smoke` — fast canary, gates CI before the stress suites
// (DESIGN.md §6).
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "timebase/global_counter.hpp"
#include "timebase/plausible_clock.hpp"
#include "timebase/scalar_timebase.hpp"
#include "timebase/sync_clock.hpp"
#include "timebase/vector_clock.hpp"
#include "util/rng.hpp"

namespace zstm::timebase {
namespace {

// --- global counter ----------------------------------------------------------

TEST(GlobalCounter, StartsAtZero) {
  GlobalCounter c;
  EXPECT_EQ(c.now(), 0u);
}

TEST(GlobalCounter, AcquireIncrementsAndReturnsNewValue) {
  GlobalCounter c;
  EXPECT_EQ(c.acquire_commit_time(), 1u);
  EXPECT_EQ(c.acquire_commit_time(), 2u);
  EXPECT_EQ(c.now(), 2u);
}

TEST(GlobalCounter, ConcurrentAcquiresAreUnique) {
  GlobalCounter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        got[static_cast<std::size_t>(t)].push_back(c.acquire_commit_time());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (auto& v : got) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.now(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// --- vector stamps -----------------------------------------------------------

TEST(VectorClock, ZeroStampsAreEqual) {
  EXPECT_EQ(VcStamp(4).compare(VcStamp(4)), Order::kEqual);
}

TEST(VectorClock, BumpMakesStrictlyGreater) {
  VcStamp a(3);
  VcStamp b = a;
  b[1] += 1;
  EXPECT_EQ(a.compare(b), Order::kBefore);
  EXPECT_EQ(b.compare(a), Order::kAfter);
  EXPECT_TRUE(a.strictly_precedes(b));
  EXPECT_FALSE(b.strictly_precedes(a));
}

TEST(VectorClock, DistinctComponentsAreConcurrent) {
  VcStamp a(3);
  VcStamp b(3);
  a[0] += 1;
  b[1] += 1;
  EXPECT_EQ(a.compare(b), Order::kConcurrent);
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_FALSE(a.strictly_precedes(b));
}

TEST(VectorClock, MergeTakesElementwiseMax) {
  VcStamp a(3);
  VcStamp b(3);
  a[0] = 5;
  a[2] = 1;
  b[0] = 2;
  b[1] = 7;
  a.merge(b);
  EXPECT_EQ(a[0], 5u);
  EXPECT_EQ(a[1], 7u);
  EXPECT_EQ(a[2], 1u);
}

TEST(VectorClock, MergedStampDominatesBothInputs) {
  util::Xorshift rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    VcStamp a(4);
    VcStamp b(4);
    for (int k = 0; k < 4; ++k) {
      a[k] = rng.next_below(10);
      b[k] = rng.next_below(10);
    }
    VcStamp m = a;
    m.merge(b);
    EXPECT_NE(a.compare(m), Order::kAfter);
    EXPECT_NE(b.compare(m), Order::kAfter);
    EXPECT_NE(a.compare(m), Order::kConcurrent);
    EXPECT_NE(b.compare(m), Order::kConcurrent);
  }
}

TEST(VectorClock, CompareMatchesPaperRules) {
  // Rules (1)-(3) of §4 on hand-picked stamps.
  VcStamp t1(2), t2(2);
  t1[0] = 1;              // [1,0]
  t2[0] = 1, t2[1] = 1;   // [1,1]
  EXPECT_EQ(t1.compare(t2), Order::kBefore);  // t1 ≼ t2 ∧ t1 ≠ t2 ⇒ t1 ≺ t2
  t1[1] = 1;
  EXPECT_EQ(t1.compare(t2), Order::kEqual);
  t1[1] = 2;
  EXPECT_EQ(t1.compare(t2), Order::kAfter);
}

TEST(VectorClock, ToStringFormatsComponents) {
  VcStamp a(3);
  a[0] = 1;
  a[2] = 9;
  EXPECT_EQ(a.to_string(), "[1,0,9]");
}

TEST(VectorClock, FigureOneScenarioStampsAreConcurrent) {
  // §4.1's worked example on REV at r = n, the exact vector clock: T1 on
  // p0 commits [1,0,0]; T2 on p1 commits [0,1,0], concurrent with T1; TL
  // reads T2's version of o3 and can commit.
  RevDomain dom(3, 3);
  VcStamp t1 = dom.zero();
  dom.advance(0, t1);
  VcStamp t2 = dom.zero();
  dom.advance(1, t2);
  EXPECT_EQ(t1.to_string(), "[1,0,0]");
  EXPECT_EQ(t2.to_string(), "[0,1,0]");
  EXPECT_TRUE(t1.concurrent_with(t2));
  VcStamp tl = dom.zero();
  tl.merge(t2);  // TL reads T2's version of o3
  EXPECT_FALSE(t1.strictly_precedes(tl));  // validation passes (line 22)
}

// --- plausible clocks -----------------------------------------------------------

TEST(PlausibleClock, RejectsBadConfigurations) {
  EXPECT_THROW(RevDomain(0, 4), std::invalid_argument);
  EXPECT_THROW(RevDomain(8, 4), std::invalid_argument);
}

TEST(PlausibleClock, EntryMappingIsModuloR) {
  RevDomain dom(3, 8);
  EXPECT_EQ(dom.entries(), 3);
  EXPECT_EQ(dom.entry_of(0), 0);
  EXPECT_EQ(dom.entry_of(3), 0);
  EXPECT_EQ(dom.entry_of(4), 1);
  EXPECT_EQ(dom.entry_of(7), 1);
}

TEST(PlausibleClock, AdvanceYieldsUniqueValuesPerEntry) {
  RevDomain dom(1, 4);  // all four threads share one entry
  std::vector<std::vector<std::uint64_t>> got(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      VcStamp s = dom.zero();
      for (int i = 0; i < 10000; ++i) {
        dom.advance(t, s);
        got[static_cast<std::size_t>(t)].push_back(s[0]);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (auto& v : got) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 40000u);  // get-and-increment: no duplicates
}

TEST(PlausibleClock, AdvanceIsStrictlyIncreasingForOwnStamp) {
  RevDomain dom(2, 4);
  VcStamp s = dom.zero();
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    dom.advance(0, s);
    EXPECT_GT(s[0], prev);
    prev = s[0];
  }
}

TEST(PlausibleClock, AdvanceDominatesMergedObservations) {
  // A stamp that observed a large entry value must advance beyond it even
  // if the shared counter lags (the max-CAS in RevDomain::advance).
  RevDomain dom(2, 4);
  VcStamp a = dom.zero();
  a[0] = 1000;  // as if merged from a peer sharing entry 0
  dom.advance(0, a);
  EXPECT_GT(a[0], 1000u);
}

TEST(PlausibleClock, SingleEntryDegeneratesToScalarClock) {
  // r = 1: every commit is totally ordered — no two stamps concurrent.
  RevDomain dom(1, 4);
  VcStamp a = dom.zero(), b = dom.zero();
  dom.advance(0, a);
  dom.advance(1, b);
  EXPECT_NE(a.compare(b), Order::kConcurrent);
}

/// Simulates a shared-object system with both exact vector clocks and REV
/// plausible clocks side by side, then verifies the plausibility guarantees
/// of §4.3: causally related events are ordered identically; REV-concurrent
/// implies truly concurrent. The exact oracle is computed here, each thread
/// bumping its own component, not with the REV code under test.
class PlausibilityProperty : public ::testing::TestWithParam<int> {};

constexpr int kPlausibilityThreads = 6;

TEST_P(PlausibilityProperty, RevNeverContradictsExactCausality) {
  const int r = GetParam();
  constexpr int kThreads = kPlausibilityThreads;
  constexpr int kObjects = 4;
  constexpr int kSteps = 400;
  RevDomain rev_dom(r, kThreads);

  struct Pair {
    VcStamp vc;
    VcStamp rev;
  };
  std::vector<Pair> thread_state;
  std::vector<Pair> object_state;
  for (int t = 0; t < kThreads; ++t) {
    thread_state.push_back({VcStamp(kThreads), rev_dom.zero()});
  }
  for (int o = 0; o < kObjects; ++o) {
    object_state.push_back({VcStamp(kThreads), rev_dom.zero()});
  }

  std::vector<Pair> events;
  util::Xorshift rng(static_cast<std::uint64_t>(r) * 977 + 5);
  for (int step = 0; step < kSteps; ++step) {
    const int t = static_cast<int>(rng.next_below(kThreads));
    const int o = static_cast<int>(rng.next_below(kObjects));
    auto& ts = thread_state[static_cast<std::size_t>(t)];
    auto& os = object_state[static_cast<std::size_t>(o)];
    // "Receive": observe the object's timestamp.
    ts.vc.merge(os.vc);
    ts.rev.merge(os.rev);
    // Local commit event.
    ts.vc[t] += 1;
    rev_dom.advance(t, ts.rev);
    // "Send": publish to the object.
    os.vc = ts.vc;
    os.rev = ts.rev;
    events.push_back(ts);
  }

  std::uint64_t concurrent_pairs = 0;
  std::uint64_t false_orderings = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const Order exact = events[i].vc.compare(events[j].vc);
      const Order plaus = events[i].rev.compare(events[j].rev);
      if (exact == Order::kBefore) {
        // (2): ei → ej must be reported as before (never reversed/equal).
        EXPECT_EQ(plaus, Order::kBefore);
      } else if (exact == Order::kAfter) {
        EXPECT_EQ(plaus, Order::kAfter);
      } else if (exact == Order::kConcurrent) {
        // (2)/(3): plausible clocks may order concurrent events but must
        // never call them equal.
        EXPECT_NE(plaus, Order::kEqual);
        ++concurrent_pairs;
        if (plaus != Order::kConcurrent) ++false_orderings;
      }
      if (plaus == Order::kConcurrent) {
        // (4): REV-concurrent ⇒ truly concurrent.
        EXPECT_EQ(exact, Order::kConcurrent);
      }
    }
  }
  ASSERT_GT(concurrent_pairs, 0u);
  if (r == kThreads) {
    // r = n is the vector clock itself: no false ordering at all.
    EXPECT_EQ(false_orderings, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(EntryCounts, PlausibilityProperty,
                         ::testing::Values(1, 2, 3, 4, kPlausibilityThreads));

// --- synchronized real-time clocks ---------------------------------------------

TEST(SyncClock, ZeroDeviationHasZeroOffsets) {
  SyncRealTimeClock clock(4, std::chrono::nanoseconds(0));
  for (int s = 0; s < 4; ++s) EXPECT_EQ(clock.offset_ns(s), 0);
}

TEST(SyncClock, OffsetsBoundedByDeviation) {
  const auto dev = std::chrono::nanoseconds(5000);
  SyncRealTimeClock clock(16, dev, 99);
  bool some_nonzero = false;
  for (int s = 0; s < 16; ++s) {
    EXPECT_LE(std::abs(clock.offset_ns(s)), dev.count());
    some_nonzero |= clock.offset_ns(s) != 0;
  }
  EXPECT_TRUE(some_nonzero);
}

TEST(SyncClock, NowEncodesSlotInLowBits) {
  SyncRealTimeClock clock(4, std::chrono::nanoseconds(0));
  EXPECT_EQ(clock.now(2) & ((1u << SyncRealTimeClock::kSlotBits) - 1), 2u);
}

TEST(SyncClock, NowIsMonotonePerSlot) {
  SyncRealTimeClock clock(2, std::chrono::nanoseconds(0));
  std::uint64_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t t = clock.now(0);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(SyncClock, CommitStampsStrictlyIncreasePerSlot) {
  SyncRealTimeClock clock(2, std::chrono::nanoseconds(1000), 5);
  std::uint64_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t s = clock.acquire_commit_stamp(0, 0);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(SyncClock, CommitStampRespectsFloor) {
  SyncRealTimeClock clock(2, std::chrono::nanoseconds(0));
  const std::uint64_t huge_floor = clock.now(0) + (1u << 20);
  EXPECT_GT(clock.acquire_commit_stamp(0, huge_floor), huge_floor);
}

TEST(SyncClock, StampsUniqueAcrossSlots) {
  SyncRealTimeClock clock(4, std::chrono::nanoseconds(0));
  std::set<std::uint64_t> stamps;
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 100; ++i) stamps.insert(clock.acquire_commit_stamp(s, 0));
  }
  EXPECT_EQ(stamps.size(), 400u);
}

// --- scalar time base facade -----------------------------------------------------

TEST(ScalarTimeBase, CounterModeBasics) {
  ScalarTimeBase tb;
  EXPECT_EQ(tb.kind(), TimeBaseKind::kCounter);
  EXPECT_EQ(tb.now_snapshot(0), 0u);
  EXPECT_EQ(tb.acquire_commit_stamp(0, 0), 1u);
  EXPECT_EQ(tb.now_snapshot(3), 1u);
  EXPECT_EQ(tb.sync_clock(), nullptr);
}

TEST(ScalarTimeBase, CounterStampAlwaysAboveEarlierSnapshots) {
  ScalarTimeBase tb;
  const std::uint64_t snap = tb.now_snapshot(0);
  EXPECT_GT(tb.acquire_commit_stamp(1, 0), snap);
}

TEST(ScalarTimeBase, SyncModeSnapshotLagsByMargin) {
  ScalarTimeBase tb(4, std::chrono::nanoseconds(1000), 7);
  EXPECT_EQ(tb.kind(), TimeBaseKind::kSyncClock);
  ASSERT_NE(tb.sync_clock(), nullptr);
  // A snapshot anchored now must precede any stamp issued afterwards from
  // any slot, even with maximal skew.
  for (int reader = 0; reader < 4; ++reader) {
    const std::uint64_t snap = tb.now_snapshot(reader);
    for (int writer = 0; writer < 4; ++writer) {
      EXPECT_GT(tb.acquire_commit_stamp(writer, 0), snap);
    }
  }
}

TEST(ScalarTimeBase, WaitUntilSafeReturnsOnceStampIsCovered) {
  ScalarTimeBase tb(2, std::chrono::nanoseconds(500), 3);
  const std::uint64_t ct = tb.acquire_commit_stamp(0, 0);
  tb.wait_until_safe(0, ct);  // must terminate quickly
  EXPECT_GE(tb.now_snapshot(0), ct);
}

}  // namespace
}  // namespace zstm::timebase
