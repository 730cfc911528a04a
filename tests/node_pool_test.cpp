// Unit + stress tests for the epoch-integrated slab allocator
// (src/object/node_pool.hpp, DESIGN.md §7): same-thread reuse, the
// cross-thread MPSC return path, the depot that hands a vacant slot's
// blocks to other slots across thread churn, inline (SBO) vs heap payload
// storage, and a
// TSan-targeted stress round mixing pooled allocation with concurrent
// prunes.
//
// CTest label: `unit` (DESIGN.md §6); the stress round scales with
// ZSTM_STRESS_ROUNDS and runs under the TSan CI job like every suite.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "lsa/lsa.hpp"
#include "object/node_pool.hpp"
#include "object/versioned.hpp"
#include "runtime/payload.hpp"
#include "runtime/txdesc.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::object {
namespace {

struct Node {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

struct Rig {
  Rig() : registry(8), stats(registry), pool(registry, &stats) {}
  util::ThreadRegistry registry;
  util::StatsDomain stats;
  NodePool pool;
};

// The pool-mechanics tests are meaningless when ZSTM_POOL=0 forces the
// heap everywhere (e.g. an ASan run) — skip rather than fail.
#define ZSTM_REQUIRE_POOL()                                   \
  if (!NodePool::env_enabled()) {                             \
    GTEST_SKIP() << "ZSTM_POOL=0: slab pooling disabled";     \
  }                                                           \
  static_cast<void>(0)

TEST(NodePool, SameThreadReleaseIsReusedLifo) {
  ZSTM_REQUIRE_POOL();
  Rig rig;
  ASSERT_TRUE(rig.pool.enabled());
  auto reg = rig.registry.attach();
  const int s = reg.slot();

  Node* n1 = rig.pool.create<Node>(s);
  rig.pool.destroy(s, n1);
  Node* n2 = rig.pool.create<Node>(s);
  EXPECT_EQ(n1, n2);  // LIFO free list hands the same block back
  rig.pool.destroy(s, n2);

  const auto snap = rig.stats.snapshot();
  EXPECT_EQ(snap[util::Counter::kPoolMisses], 1u);  // one slab carve
  EXPECT_EQ(snap[util::Counter::kPoolHits], 1u);    // the reuse
  EXPECT_EQ(snap[util::Counter::kPoolReturns], 0u);
}

TEST(NodePool, DisabledPoolFallsBackToHeap) {
  util::ThreadRegistry registry(4);
  util::StatsDomain stats(registry);
  NodePool pool(registry, &stats, /*requested=*/false);
  EXPECT_FALSE(pool.enabled());
  auto reg = registry.attach();
  Node* n = pool.create<Node>(reg.slot());
  pool.destroy(reg.slot(), n);
  EXPECT_EQ(stats.snapshot()[util::Counter::kPoolMisses], 1u);
  EXPECT_EQ(stats.snapshot()[util::Counter::kPoolHits], 0u);
}

TEST(NodePool, CrossThreadReleaseReturnsToOwnerViaMpscStack) {
  ZSTM_REQUIRE_POOL();
  Rig rig;
  auto owner = rig.registry.attach();
  const int os = owner.slot();

  // Drain the slab stock so the next owner allocation must flush the
  // return stack.
  std::vector<Node*> stock;
  Node* n = rig.pool.create<Node>(os);
  while (rig.pool.local_free_count(os) > 0) {
    stock.push_back(rig.pool.create<Node>(os));
  }

  // Another thread (distinct slot) frees the owner's node: it must land on
  // the owner's MPSC return stack, not any local list.
  std::thread([&] {
    auto other = rig.registry.attach();
    ASSERT_NE(other.slot(), os);
    rig.pool.destroy(other.slot(), n);
  }).join();
  EXPECT_EQ(rig.pool.foreign_return_count(os), 1u);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kPoolReturns], 1u);

  // Owner's next allocation misses locally, flushes the stack, and gets
  // the very same block back — no heap traffic.
  const std::uint64_t misses_before =
      rig.stats.snapshot()[util::Counter::kPoolMisses];
  Node* back = rig.pool.create<Node>(os);
  EXPECT_EQ(back, n);
  EXPECT_EQ(rig.pool.foreign_return_count(os), 0u);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kPoolMisses], misses_before);

  rig.pool.destroy(os, back);
  for (Node* p : stock) rig.pool.destroy(os, p);
}

TEST(NodePool, SlotReleaseDrainsReturnStacksAndSurvivesChurn) {
  ZSTM_REQUIRE_POOL();
  Rig rig;
  Node* n = nullptr;
  int os = -1;
  {
    auto owner = rig.registry.attach();
    os = owner.slot();
    n = rig.pool.create<Node>(os);
    // A foreign thread returns the node while the owner is still attached.
    std::thread([&] {
      auto other = rig.registry.attach();
      rig.pool.destroy(other.slot(), n);
    }).join();
    EXPECT_EQ(rig.pool.foreign_return_count(os), 1u);
    // Registration release fires the drain hook: both lists go to the depot.
  }
  EXPECT_EQ(rig.pool.foreign_return_count(os), 0u);
  EXPECT_EQ(rig.pool.local_free_count(os), 0u);

  // A new thread claiming the same slot takes the blocks back from the
  // depot: the very first allocation is a hit, no slab carve.
  const std::uint64_t misses_before =
      rig.stats.snapshot()[util::Counter::kPoolMisses];
  auto successor = rig.registry.attach();
  ASSERT_EQ(successor.slot(), os);  // lowest free slot
  Node* again = rig.pool.create<Node>(os);
  EXPECT_EQ(again, n);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kPoolMisses], misses_before);
  rig.pool.destroy(os, again);
}

// A vacant slot's free blocks, and a block freed while its owner slot is
// vacant, go to the depot; another slot takes them there before carving,
// and owns them from then on.
TEST(NodePool, VacantSlotBlocksServeAnotherSlotThroughTheDepot) {
  ZSTM_REQUIRE_POOL();
  Rig rig;
  auto keeper = rig.registry.attach();
  const int ks = keeper.slot();
  int vacated = -1;
  Node* live = nullptr;
  std::thread([&] {
    auto r = rig.registry.attach();
    vacated = r.slot();
    rig.pool.destroy(vacated, rig.pool.create<Node>(vacated));
    live = rig.pool.create<Node>(vacated);
  }).join();
  ASSERT_NE(vacated, ks);
  rig.pool.destroy(ks, live);  // its owner is vacant now
  EXPECT_EQ(rig.pool.foreign_return_count(vacated), 0u);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kPoolReturns], 0u);

  const std::uint64_t misses_before =
      rig.stats.snapshot()[util::Counter::kPoolMisses];
  Node* again = rig.pool.create<Node>(ks);
  EXPECT_EQ(again, live);  // the depot is LIFO too
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kPoolMisses], misses_before);
  const std::size_t stocked = rig.pool.local_free_count(ks);
  EXPECT_GE(stocked, 1u);  // the rest of the depot batch
  rig.pool.destroy(ks, again);
  EXPECT_EQ(rig.pool.local_free_count(ks), stocked + 1);  // now ks's own
}

TEST(NodePool, OversizeAndSlotlessAllocationsBypassTheLists) {
  ZSTM_REQUIRE_POOL();
  Rig rig;
  auto reg = rig.registry.attach();
  const int s = reg.slot();

  struct Big {
    std::array<char, 1024> bytes{};
  };
  Big* big = rig.pool.create<Big>(s);  // > largest size class
  rig.pool.destroy(s, big);
  Node* unslotted = rig.pool.create<Node>(-1);  // unregistered caller
  rig.pool.destroy(-1, unslotted);
  EXPECT_EQ(rig.pool.local_free_count(s), 0u);  // neither touched the lists
}

// --- inline payload storage (SBO) ------------------------------------------

using TestVersion = Version<NoMeta, runtime::TxDescBase>;

TEST(NodePool, SmallTriviallyCopyablePayloadIsStoredInline) {
  const runtime::TypedPayload<long> src(42);
  TestVersion v{runtime::ClonePayload{src}};
  EXPECT_TRUE(v.payload_inline());
  EXPECT_EQ(runtime::payload_as<long>(*v.data), 42);
  // The inline copy is independent storage, not a reference to the source.
  runtime::payload_as<long>(*v.data) = 43;
  EXPECT_EQ(src.value(), 42);
}

TEST(NodePool, NonTriviallyCopyablePayloadFallsBackToHeap) {
  const runtime::TypedPayload<std::string> src(
      std::string("a string long enough to defeat its own SSO buffer"));
  TestVersion v{runtime::ClonePayload{src}};
  EXPECT_FALSE(v.payload_inline());
  EXPECT_EQ(runtime::payload_as<std::string>(*v.data), src.value());
}

TEST(NodePool, OversizedTriviallyCopyablePayloadFallsBackToHeap) {
  struct Wide {
    std::array<char, 128> bytes{};
  };
  Wide w;
  w.bytes[0] = 'x';
  w.bytes[127] = 'y';
  const runtime::TypedPayload<Wide> src(w);
  static_assert(sizeof(runtime::TypedPayload<Wide>) > kPayloadSboBytes);
  TestVersion v{runtime::ClonePayload{src}};
  EXPECT_FALSE(v.payload_inline());
  EXPECT_EQ(runtime::payload_as<Wide>(*v.data).bytes[0], 'x');
  EXPECT_EQ(runtime::payload_as<Wide>(*v.data).bytes[127], 'y');
}

// --- stress: pooled allocation vs concurrent prunes (TSan target) ----------

// Aggressive single-version retention makes every commit prune, so pooled
// versions cycle allocate -> publish -> retire -> free list while other
// threads still read them through pinned epochs. Under TSan this checks the
// happens-before chain EBR previously inherited from malloc/free. Halfway
// through, each worker detaches and attaches again while the others run, so
// its slot's blocks pass through the depot under load.
TEST(NodePool, StressPooledAllocationWithConcurrentPrunes) {
  constexpr int kThreads = 4;
  constexpr int kVars = 32;
  const int rounds = test_env::stress_rounds(2000);

  lsa::Config cfg;
  cfg.max_threads = kThreads + 1;
  cfg.versions_kept = 1;
  lsa::Runtime rt(cfg);
  std::vector<lsa::Var<long>> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(rt.make_var<long>(100));

  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) * 31 + 7);
      for (int i = 0; i < rounds; ++i) {
        if (i == rounds / 2) {
          th.reset();
          th = rt.attach();
        }
        if (t % 2 == 0) {
          const std::size_t a = rng.next_below(kVars);
          std::size_t b = rng.next_below(kVars);
          if (b == a) b = (b + 1) % kVars;
          rt.run(*th, [&](lsa::Tx& tx) {
            tx.write(vars[a]) -= 1;
            tx.write(vars[b]) += 1;
          });
        } else {
          long total = 0;
          rt.run(
              *th,
              [&](lsa::Tx& tx) {
                total = 0;
                for (auto& v : vars) total += tx.read(v);
              },
              /*read_only=*/true);
          if (total != 100L * kVars) failed.store(true);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());

  // Steady state reached: the storm ran out of a bounded node population.
  // (The workload itself is still worth running heap-mode under ZSTM_POOL=0;
  // only the hit-rate assertion is pool-specific.)
  if (NodePool::env_enabled()) {
    const auto snap = rt.stats();
    const std::uint64_t hits = snap[util::Counter::kPoolHits];
    const std::uint64_t misses = snap[util::Counter::kPoolMisses];
    ASSERT_GT(hits + misses, 0u);
    EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
              0.9);
  }
}

}  // namespace
}  // namespace zstm::object
