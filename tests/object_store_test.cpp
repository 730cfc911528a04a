// Unit tests for the shared versioned-object substrate (src/object/):
// chain walking, locator settling and the embedded locators' allocation
// and teardown, the open-for-write path (acquire's one rule and
// open_for_write's hook/install loop), exact pruning (sequential and
// concurrent) and prune-vs-pinned-reader interaction through EBR; the
// descriptor's status protocol; and the runtime core's transaction-id
// lanes.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "fault/failpoint.hpp"
#include "object/object_store.hpp"
#include "runtime/core.hpp"
#include "runtime/payload.hpp"
#include "runtime/txdesc.hpp"
#include "stress_env.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::object {
namespace {

class TestDesc final : public runtime::TxDescBase {
 public:
  using TxDescBase::TxDescBase;
};

struct TestVersionMeta {
  std::uint64_t ts = 0;
};

struct TestTraits {
  using Desc = TestDesc;
  using VersionMeta = TestVersionMeta;
  using ObjectMeta = NoMeta;
};

using Store = ObjectStore<TestTraits>;
using Version = Store::Version;
using Locator = Store::Locator;
using Object = Store::Object;

/// Test rig: a runtime core (registry, stats, pool, EBR) and a store on it
/// that keeps `kept` committed versions per object.
struct Rig {
  explicit Rig(int kept)
      : core(runtime::Config{.max_threads = 8, .versions_kept = kept}),
        store(core) {}

  runtime::Core core;
  util::ThreadRegistry& registry = core.registry();
  util::StatsDomain& stats = core.stats_domain();
  NodePool& pool = core.node_pool();
  util::EpochManager& epochs = core.epochs();
  Store store;
};

/// Commit one new version of `o` through the full locator protocol:
/// install a writer locator, flip the descriptor to committed, settle.
/// Returns the newly committed version. The descriptor must outlive any
/// use of the locator, so the caller provides it.
Version* commit_version(Rig& rig, Object& o, TestDesc& d, std::uint64_t ts,
                        int slot, long value) {
  Locator* l = o.loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);
  const runtime::TypedPayload<long> pv(value);
  Version* tent = rig.store.clone_version(slot, pv);
  EXPECT_TRUE(rig.store.install(o, l, &d, tent));
  tent->ts = ts;
  d.finish_commit();
  Locator* owned = o.loc.load(std::memory_order_acquire);
  rig.store.settle(o, owned, slot);
  return tent;
}

int chain_length(Object& o) {
  Version* v = o.loc.load(std::memory_order_acquire)->committed;
  int n = 0;
  while (v != nullptr) {
    ++n;
    v = v->prev.load(std::memory_order_acquire);
  }
  return n;
}

TEST(ObjectStore, AllocateCreatesSettledInitialState) {
  Rig rig(4);
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(7));
  Locator* l = o->loc.load(std::memory_order_acquire);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->tentative, nullptr);
  ASSERT_NE(l->committed, nullptr);
  EXPECT_EQ(runtime::payload_as<long>(*l->committed->data), 7);
  EXPECT_EQ(l, &l->committed->settled);  // embedded, not a separate node
  EXPECT_EQ(o->oid, 1u);
  EXPECT_EQ(rig.store.kept_bound(), 4u);
}

TEST(ObjectStore, SettleCommittedWriterPublishesTentative) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  TestDesc d(1, s, runtime::TxClass::kShort);
  Version* v1 = commit_version(rig, *o, d, 10, s, 42);

  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);       // settled
  EXPECT_EQ(l->committed, v1);         // tentative became current
  EXPECT_EQ(runtime::payload_as<long>(*l->committed->data), 42);
  EXPECT_EQ(chain_length(*o), 2);      // v1 -> initial
}

TEST(ObjectStore, SettleAbortedWriterKeepsCommittedAndRetiresTentative) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  Locator* initial = o->loc.load(std::memory_order_acquire);
  Version* base = initial->committed;

  TestDesc d(1, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(6);
  Version* tent = rig.store.clone_version(s, pv);
  ASSERT_TRUE(rig.store.install(*o, initial, &d, tent));
  d.finish_abort();

  const std::uint64_t retired_before = rig.epochs.retired_count();
  rig.store.settle(*o, o->loc.load(std::memory_order_acquire), s);
  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->committed, base);  // the tentative version never published
  // Only the tentative version (which held the writer's locator) retires.
  EXPECT_EQ(rig.epochs.retired_count(), retired_before + 1);
}

TEST(ObjectStore, AbortRepublishesBaseLocatorAndInstallSucceedsOverIt) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  Locator* initial = o->loc.load(std::memory_order_acquire);
  Version* base = initial->committed;

  TestDesc d1(1, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(6);
  Version* t1 = rig.store.clone_version(s, pv);
  ASSERT_TRUE(rig.store.install(*o, initial, &d1, t1));
  EXPECT_EQ(o->loc.load(std::memory_order_acquire), &t1->owned);
  d1.finish_abort();
  rig.store.settle(*o, &t1->owned, s);
  // The same pointer as before the install: a benign ABA, since the
  // contents are immutable and `base` is still the head.
  EXPECT_EQ(o->loc.load(std::memory_order_acquire), initial);

  // A writer that loaded `initial` before the aborted install still wins.
  TestDesc d2(2, s, runtime::TxClass::kShort);
  Version* t2 = rig.store.clone_version(s, pv);
  ASSERT_TRUE(rig.store.install(*o, initial, &d2, t2));
  EXPECT_EQ(t2->seq, base->seq + 1);
  d2.finish_commit();
  rig.store.release(*o, &d2, s);
  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l, &t2->settled);
  EXPECT_EQ(runtime::payload_as<long>(*l->committed->data), 6);
  EXPECT_EQ(chain_length(*o), 2);
}

TEST(ObjectStore, CommittedWriteCostsOnePoolAllocation) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  auto allocations = [&] {
    const util::StatsSnapshot snap = rig.stats.snapshot();
    return snap[util::Counter::kPoolHits] + snap[util::Counter::kPoolMisses];
  };

  std::vector<TestDesc*> descs;
  for (int i = 1; i <= 3; ++i) {
    descs.push_back(new TestDesc(static_cast<std::uint64_t>(i), s,
                                 runtime::TxClass::kShort));
    const std::uint64_t before = allocations();
    commit_version(rig, *o, *descs.back(), static_cast<std::uint64_t>(i), s,
                   i);
    // The tentative version; install and settle allocate nothing.
    EXPECT_EQ(allocations(), before + 1) << "commit " << i;
  }
  for (auto* d : descs) delete d;
}

TEST(ObjectStore, InstallFailsOnStaleLocatorWithoutConsuming) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  Locator* stale = o->loc.load(std::memory_order_acquire);

  TestDesc d1(1, s, runtime::TxClass::kShort);
  commit_version(rig, *o, d1, 5, s, 1);  // moves the locator on

  TestDesc d2(2, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(2);
  Version* tent = rig.store.clone_version(s, pv);
  EXPECT_FALSE(rig.store.install(*o, stale, &d2, tent));
  rig.store.discard_version(s, tent);  // caller still owns it on failure
}

TEST(ObjectStore, ResolveSkipsOwnLocatorToPreWriteVersion) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(3));
  Locator* l = o->loc.load(std::memory_order_acquire);
  Version* base = l->committed;

  TestDesc d(1, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(4);
  Version* tent = rig.store.clone_version(s, pv);
  ASSERT_TRUE(rig.store.install(*o, l, &d, tent));

  // The owner resolves to its pre-write base; a stranger sees the same
  // because the writer is still active (invisible tentative state).
  EXPECT_EQ(rig.store.resolve(*o, &d, OnCommitting::kWait, s), base);
  EXPECT_EQ(rig.store.resolve(*o, nullptr, OnCommitting::kWait, s), base);

  d.finish_abort();
  rig.store.settle(*o, o->loc.load(std::memory_order_acquire), s);
}

/// Installs an uncommitted tentative version of `o` owned by `d`, as a
/// rival transaction would between its open-for-write and its commit.
Version* install_rival(Rig& rig, Object& o, TestDesc& d, int slot, long value) {
  const runtime::TypedPayload<long> pv(value);
  Version* tent = rig.store.clone_version(slot, pv);
  EXPECT_TRUE(rig.store.install(o, o.loc.load(std::memory_order_acquire), &d,
                                tent));
  return tent;
}

TEST(ObjectStore, OpenForWriteSettlesAbortedWriterAndInstalls) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  Version* base = o->loc.load(std::memory_order_acquire)->committed;
  TestDesc rival(1, s, runtime::TxClass::kShort);
  install_rival(rig, *o, rival, s, 6);
  rival.finish_abort();

  TestDesc d(2, s, runtime::TxClass::kShort);
  Version* tent = rig.store.open_for_write(
      *o, &d, s, fault::Site::kLsaAcquire,
      [&](Version* b) { return rig.store.clone_version(s, *b->data); });
  ASSERT_NE(tent, nullptr);
  EXPECT_EQ(tent->prev.load(std::memory_order_relaxed), base);
  EXPECT_EQ(tent->seq, base->seq + 1);
  EXPECT_EQ(runtime::payload_as<long>(*tent->data), 5);  // not the rival's 6
  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l, &tent->owned);
  EXPECT_EQ(l->writer, &d);
  EXPECT_EQ(l->committed, base);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kWrites], 1u);
  d.finish_abort();
  rig.store.release(*o, &d, s);
}

TEST(ObjectStore, AcquireKillsActiveOwnerWithoutWaiting) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  Version* base = o->loc.load(std::memory_order_acquire)->committed;
  TestDesc owner(1, s, runtime::TxClass::kShort);
  install_rival(rig, *o, owner, s, 6);

  TestDesc d(2, s, runtime::TxClass::kShort);
  Locator* l = rig.store.acquire(*o, &d, s, fault::Site::kLsaAcquire);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l, &base->settled);  // the killed owner's write was settled away
  const util::StatsSnapshot snap = rig.stats.snapshot();
  EXPECT_EQ(snap[util::Counter::kCmWaits], 0u);
  EXPECT_EQ(snap[util::Counter::kCmKills], 1u);
  EXPECT_EQ(owner.status(), runtime::TxStatus::kAborted);
}

TEST(ObjectStore, AcquireWaitsOutCommittingOwner) {
  // A committing owner cannot be killed, and its outcome decides the base
  // version: acquire waits (counting kCmWaits) until it has finished. The
  // owner finishes from the acquire failpoint, which the loop pokes on
  // every look.
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  TestDesc owner(1, s, runtime::TxClass::kShort);
  Version* owned = install_rival(rig, *o, owner, s, 6);
  ASSERT_TRUE(owner.begin_commit());
  int looks = 0;
  fault::registry().arm_hook(fault::Site::kLsaAcquire, [&] {
    if (++looks == 3) owner.finish_commit();
  });

  TestDesc d(2, s, runtime::TxClass::kShort);
  Locator* l = rig.store.acquire(*o, &d, s, fault::Site::kLsaAcquire);
  fault::registry().disarm_all();
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l, &owned->settled);  // the committed write is the new head
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kCmWaits], 2u);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kCmKills], 0u);
}

TEST(ObjectStore, OpenForWriteReturnsNullOnInjectedAbortWithoutCloning) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  TestDesc owner(1, s, runtime::TxClass::kShort);
  Version* owned = install_rival(rig, *o, owner, s, 6);

  TestDesc d(2, s, runtime::TxClass::kShort);
  int clones = 0;
  ASSERT_TRUE(fault::registry().arm(fault::Site::kLsaAcquire, 1.0));
  Version* tent = rig.store.open_for_write(
      *o, &d, s, fault::Site::kLsaAcquire, [&](Version* base) {
        ++clones;
        return rig.store.clone_version(s, *base->data);
      });
  fault::registry().disarm_all();
  EXPECT_EQ(tent, nullptr);
  EXPECT_EQ(clones, 0);
  EXPECT_EQ(owner.status(), runtime::TxStatus::kActive);
  EXPECT_EQ(o->loc.load(std::memory_order_acquire), &owned->owned);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kWrites], 0u);
  owner.finish_abort();
  rig.store.release(*o, &owner, s);
}

TEST(ObjectStore, OpenForWriteLooksAgainAndDiscardsAfterLostInstall) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  TestDesc racer(1, s, runtime::TxClass::kShort);
  Version* raced = nullptr;

  // Call 1 asks to look again; during call 2 a racer commits, so call 2's
  // duplicate loses the install CAS and is discarded; call 3 installs over
  // the racer's version.
  TestDesc d(2, s, runtime::TxClass::kShort);
  int calls = 0;
  Version* tent = rig.store.open_for_write(
      *o, &d, s, fault::Site::kLsaAcquire, [&](Version* base) -> Version* {
        if (++calls == 1) return nullptr;
        Version* dup = rig.store.clone_version(s, *base->data);
        if (calls == 2) raced = commit_version(rig, *o, racer, 10, s, 7);
        return dup;
      });
  ASSERT_NE(tent, nullptr);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(tent->prev.load(std::memory_order_relaxed), raced);
  EXPECT_EQ(runtime::payload_as<long>(*tent->data), 7);
  EXPECT_EQ(o->loc.load(std::memory_order_acquire), &tent->owned);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kWrites], 1u);
  d.finish_abort();
  rig.store.release(*o, &d, s);
}

TEST(ObjectStore, SuccessorOfWalksChain) {
  Rig rig(8);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  Version* v0 = o->loc.load(std::memory_order_acquire)->committed;

  TestDesc d1(1, s, runtime::TxClass::kShort);
  Version* v1 = commit_version(rig, *o, d1, 10, s, 1);
  TestDesc d2(2, s, runtime::TxClass::kShort);
  Version* v2 = commit_version(rig, *o, d2, 20, s, 2);
  TestDesc d3(3, s, runtime::TxClass::kShort);
  Version* v3 = commit_version(rig, *o, d3, 30, s, 3);

  EXPECT_EQ(Store::successor_of(v3, v2), v3);
  EXPECT_EQ(Store::successor_of(v3, v1), v2);
  EXPECT_EQ(Store::successor_of(v3, v0), v1);
  // A version not on the chain (pruned) yields nullptr.
  Version detached(new runtime::TypedPayload<long>(99));
  EXPECT_EQ(Store::successor_of(v3, &detached), nullptr);
}

TEST(ObjectStore, PruneBoundsChainAtFixedDepth) {
  Rig rig(3);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  std::vector<TestDesc*> descs;
  for (int i = 1; i <= 10; ++i) {
    auto* d = new TestDesc(static_cast<std::uint64_t>(i), s,
                           runtime::TxClass::kShort);
    descs.push_back(d);
    commit_version(rig, *o, *d, static_cast<std::uint64_t>(10 * i), s, i);
    EXPECT_EQ(chain_length(*o), std::min(3, i + 1));
    Version* tail = o->tail.load(std::memory_order_acquire);
    EXPECT_EQ(tail->prev.load(std::memory_order_acquire), nullptr);
    EXPECT_EQ(tail->seq, static_cast<std::uint64_t>(std::max(0, i - 2)));
  }
  for (auto* d : descs) delete d;
}

TEST(ObjectStore, NonPositiveBoundKeepsOneVersion) {
  // versions_kept comes from the caller's Config; the store clamps it to 1.
  for (const int kept : {0, -3}) {
    SCOPED_TRACE(testing::Message() << "versions_kept " << kept);
    Rig rig(kept);
    EXPECT_EQ(rig.store.kept_bound(), 1u);
    auto reg = rig.registry.attach();
    const int s = reg.slot();
    Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
    TestDesc d1(1, s, runtime::TxClass::kShort);
    TestDesc d2(2, s, runtime::TxClass::kShort);
    commit_version(rig, *o, d1, 10, s, 1);
    commit_version(rig, *o, d2, 20, s, 2);
    EXPECT_EQ(chain_length(*o), 1);
  }
}

/// Payload that counts its live copies, so a version retired twice (or
/// never) shows up as a wrong count.
struct Counted {
  static inline std::atomic<long> live{0};
  explicit Counted(long v) : value(v) { live.fetch_add(1); }
  Counted(const Counted& other) : value(other.value) { live.fetch_add(1); }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { live.fetch_sub(1); }
  long value;
};

long counted_value(const Version* v) {
  return runtime::payload_as<Counted>(*v->data).value;
}

/// One increment of `o` through the locator protocol, retried until its
/// install wins. Finished writers found on the way are settled; an active
/// one (another thread between install and commit) is waited out.
void concurrent_increment(Rig& rig, Object& o, int slot, std::uint64_t id) {
  auto* d = new TestDesc(id, slot, runtime::TxClass::kShort);
  for (;;) {
    auto guard = rig.epochs.pin_guard(slot);
    Locator* l = o.loc.load(std::memory_order_acquire);
    if (l->writer != nullptr) {
      rig.store.settle(o, l, slot);
      std::this_thread::yield();
      continue;
    }
    const runtime::TypedPayload<Counted> pv(
        Counted(counted_value(l->committed) + 1));
    Version* tent = rig.store.clone_version(slot, pv);
    if (!rig.store.install(o, l, d, tent)) {
      rig.store.discard_version(slot, tent);
      continue;
    }
    d->finish_commit();
    rig.store.release(o, d, slot);
    break;
  }
  // Stale settlers may still read the status; EBR outlives them.
  rig.epochs.retire(slot, d);
}

/// Walk the chain from the head under a pin: values and seqs both step
/// down by exactly one per link, however far a pruner has cut.
void check_chain_walk(Rig& rig, Object& o, int slot) {
  auto guard = rig.epochs.pin_guard(slot);
  const Version* v = o.loc.load(std::memory_order_acquire)->committed;
  const long top = counted_value(v);
  const std::uint64_t top_seq = v->seq;
  for (long depth = 0; v != nullptr; ++depth) {
    ASSERT_EQ(counted_value(v), top - depth);
    ASSERT_EQ(v->seq, top_seq - static_cast<std::uint64_t>(depth));
    v = v->prev.load(std::memory_order_acquire);
  }
}

TEST(ObjectStore, TeardownFreesUnsettledWriters) {
  // The store is destroyed while each object still holds its writer's
  // owned locator, which lives inside the tentative version: teardown must
  // read the locator before it frees that version (an ASan target with
  // ZSTM_POOL=0), and every version must be freed exactly once.
  for (const runtime::TxStatus st :
       {runtime::TxStatus::kAborted, runtime::TxStatus::kCommitted,
        runtime::TxStatus::kActive}) {
    SCOPED_TRACE(testing::Message() << "status " << static_cast<int>(st));
    TestDesc d(1, 0, runtime::TxClass::kShort);  // outlives the store
    {
      Rig rig(8);
      auto reg = rig.registry.attach();
      const int s = reg.slot();
      Object* o = rig.store.allocate(
          new runtime::TypedPayload<Counted>(Counted(0)));
      Locator* l = o->loc.load(std::memory_order_acquire);
      const runtime::TypedPayload<Counted> pv(Counted(1));
      Version* tent = rig.store.clone_version(s, pv);
      ASSERT_TRUE(rig.store.install(*o, l, &d, tent));
      if (st == runtime::TxStatus::kAborted) d.finish_abort();
      if (st == runtime::TxStatus::kCommitted) d.finish_commit();
      EXPECT_EQ(Counted::live.load(), 3);  // initial, tentative, pv
    }
    EXPECT_EQ(Counted::live.load(), 0);
  }
}

TEST(ObjectStore, ConcurrentPrunesKeepExactChains) {
  // Four threads commit to two objects, so settles and prunes race on both;
  // each keeps walking the chains. The end state must be exact: chains of
  // exactly min(bound, commits + 1) versions, every other version retired
  // exactly once, and nothing left in EBR after a flush of every slot.
  constexpr int kThreads = 4;
  constexpr int kObjects = 2;
  // Even, so the alternating threads split commits evenly over the objects.
  const int per_thread = 2 * test_env::stress_rounds(750);
  for (const int bound : {1, 3, 8}) {
    SCOPED_TRACE(testing::Message() << "bound " << bound);
    {
      Rig rig(bound);
      std::vector<Object*> objs;
      for (int k = 0; k < kObjects; ++k) {
        objs.push_back(rig.store.allocate(
            new runtime::TypedPayload<Counted>(Counted(0))));
      }
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          auto reg = rig.registry.attach();
          for (int i = 0; i < per_thread; ++i) {
            Object& o = *objs[static_cast<std::size_t>((i + t) % kObjects)];
            concurrent_increment(
                rig, o, reg.slot(),
                static_cast<std::uint64_t>(t) * per_thread + i + 1);
            if (i % 16 == 0) check_chain_walk(rig, o, reg.slot());
          }
        });
      }
      for (auto& th : threads) th.join();

      long versions = 0;
      for (Object* o : objs) {
        const long commits = counted_value(
            o->loc.load(std::memory_order_acquire)->committed);
        EXPECT_EQ(commits, static_cast<long>(kThreads) * per_thread / 2);
        EXPECT_EQ(chain_length(*o), std::min<long>(bound, commits + 1));
        EXPECT_EQ(o->tail.load()->prev.load(), nullptr);
        versions += chain_length(*o);
      }
      for (int slot = 0; slot < rig.registry.capacity(); ++slot) {
        rig.epochs.flush(slot);
      }
      EXPECT_EQ(rig.epochs.freed_count(), rig.epochs.retired_count());
      EXPECT_EQ(Counted::live.load(), versions);
    }
    EXPECT_EQ(Counted::live.load(), 0);
  }
}

TEST(ObjectStore, PrunedSuffixSurvivesWhileReaderIsPinned) {
  Rig rig(1);  // aggressive pruning: single-version
  auto reader_reg = rig.registry.attach();
  auto writer_reg = rig.registry.attach();
  const int ws = writer_reg.slot();

  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(123));
  Version* old_version = o->loc.load(std::memory_order_acquire)->committed;

  // A reader pins (as every transaction attempt does) and holds a pointer
  // to the current version.
  auto guard = rig.epochs.pin_guard(reader_reg.slot());

  // A writer commits over it; prune severs the old version off the chain.
  TestDesc d(1, ws, runtime::TxClass::kShort);
  commit_version(rig, *o, d, 10, ws, 124);
  EXPECT_EQ(chain_length(*o), 1);

  // The severed version was retired but must not be freed while the reader
  // is pinned: its payload stays dereferenceable.
  for (int i = 0; i < 10; ++i) rig.epochs.collect(ws);
  EXPECT_EQ(runtime::payload_as<long>(*old_version->data), 123);
  EXPECT_LT(rig.epochs.freed_count(), rig.epochs.retired_count());

  // After the reader unpins, collection may reclaim everything retired.
  guard = util::EpochManager::Guard();
  for (int i = 0; i < 10; ++i) rig.epochs.collect(ws);
  EXPECT_EQ(rig.epochs.freed_count(), rig.epochs.retired_count());
}

// --- the descriptor's status protocol (the commit CAS discipline every STM
// relies on) -----------------------------------------------------------------

TEST(TxDesc, EnemyAbortOnlyWhileActive) {
  TestDesc d(1, 0, runtime::TxClass::kShort);
  EXPECT_EQ(d.status(), runtime::TxStatus::kActive);
  ASSERT_TRUE(d.begin_commit());
  EXPECT_EQ(d.status(), runtime::TxStatus::kCommitting);
  EXPECT_FALSE(d.abort_by_enemy());  // immune once committing
  d.finish_commit();
  EXPECT_EQ(d.status(), runtime::TxStatus::kCommitted);
  EXPECT_FALSE(d.abort_by_enemy());
}

TEST(TxDesc, EnemyAbortWinsOverLateCommit) {
  TestDesc d(1, 0, runtime::TxClass::kShort);
  ASSERT_TRUE(d.abort_by_enemy());
  EXPECT_EQ(d.status(), runtime::TxStatus::kAborted);
  EXPECT_FALSE(d.begin_commit());  // victim discovers the abort
}

TEST(TxDesc, FinishAbortFromCommitting) {
  TestDesc d(1, 0, runtime::TxClass::kShort);
  ASSERT_TRUE(d.begin_commit());
  d.finish_abort();
  EXPECT_EQ(d.status(), runtime::TxStatus::kAborted);
}

TEST(TxDesc, FinishAbortIdempotentOnFinalStates) {
  TestDesc d(1, 0, runtime::TxClass::kShort);
  ASSERT_TRUE(d.begin_commit());
  d.finish_commit();
  d.finish_abort();  // must not demote a committed transaction
  EXPECT_EQ(d.status(), runtime::TxStatus::kCommitted);
}

TEST(TxDesc, StatusNamesReadable) {
  EXPECT_STREQ(runtime::to_string(runtime::TxStatus::kActive), "active");
  EXPECT_STREQ(runtime::to_string(runtime::TxStatus::kCommitted), "committed");
}

// --- the core's transaction-id lanes ----------------------------------------

TEST(Core, TxIdsAreUniqueAcrossEverySlotOfAFullRegistry) {
  // Every slot of a full registry draws ids from its own lane at once: no
  // two ids collide, none is zero, and the low bits name every slot.
  constexpr int kThreads = util::ThreadRegistry::kMaxThreads;
  constexpr int kPerThread = 2000;
  runtime::Core core(runtime::Config{.max_threads = kThreads});
  std::latch all_attached(kThreads);
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto reg = core.registry().attach();
      all_attached.arrive_and_wait();
      auto& mine = got[static_cast<std::size_t>(t)];
      mine.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        mine.push_back(core.next_tx_id(reg.slot()));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  std::set<std::uint64_t> slots;
  for (const auto& v : got) {
    for (const std::uint64_t id : v) {
      all.insert(id);
      slots.insert(id & ((1u << runtime::Core::kSlotBits) - 1));
    }
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(all.count(0), 0u);
  EXPECT_EQ(slots.size(), static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace zstm::object
