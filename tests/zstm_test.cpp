// Functional tests for Z-STM (Algorithms 2 and 3): zone assignment and
// crossing rules, long-transaction timestamp ordering, visible long writes,
// LZC thread-order protection, and z-linearizability of recorded histories.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "history/checkers.hpp"
#include "zstm/zstm.hpp"

namespace zstm::zl {
namespace {

using util::Counter;

Config quiet_config() {
  Config cfg;
  cfg.max_threads = 8;
  return cfg;
}

TEST(ZShort, BehavesLikeLsaWithoutLongs) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  for (int i = 0; i < 10; ++i) {
    rt.run_short(*th, [&](ShortTx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  rt.run_short(*th, [&](ShortTx& tx) { EXPECT_EQ(tx.read(x), 10); });
  EXPECT_EQ(rt.zone_counter(), 0u);
  EXPECT_EQ(rt.commit_time(), 0u);
}

TEST(ZLong, BasicLongTransactionCommits) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(1);
  auto y = rt.make_var<int>(2);
  auto th = rt.attach();
  int sum = 0;
  rt.run_long(*th, [&](LongTx& tx) { sum = tx.read(x) + tx.read(y); });
  EXPECT_EQ(sum, 3);
  EXPECT_EQ(rt.zone_counter(), 1u);
  EXPECT_EQ(rt.commit_time(), 1u);  // CT ← T.zc
  EXPECT_EQ(th->last_zone_committed(), 1u);  // LZCp ← T.zc
}

TEST(ZLong, ZoneNumbersAreUniqueAndIncreasing) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  std::uint64_t prev = 0;
  for (int i = 0; i < 5; ++i) {
    rt.run_long(*th, [&](LongTx& tx) {
      EXPECT_GT(tx.zone(), prev);
      prev = tx.zone();
      (void)tx.read(x);
    });
  }
  EXPECT_EQ(rt.zone_counter(), 5u);
  EXPECT_EQ(rt.commit_time(), 5u);
}

TEST(ZLong, LongWritesAreInvisibleUntilCommit) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& tl = a->begin_long();
  tl.write(x, 42);
  // A short transaction on another context still sees the old value.
  int seen = -1;
  rt.run_short(*b, [&](ShortTx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 0);
  a->commit_long();
  rt.run_short(*b, [&](ShortTx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 42);
}

TEST(ZLong, PassedLongAbortsOnOpen) {
  // L1 (zc=1) opens o after L2 (zc=2) already stamped it: L1 was passed.
  Runtime rt(quiet_config());
  auto o = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& l1 = a->begin_long();   // zc = 1
  LongTx& l2 = b->begin_long();   // zc = 2
  (void)l2.read(o);               // o.zc ← 2
  EXPECT_THROW((void)l1.read(o), TxAborted);
  EXPECT_GE(rt.stats()[Counter::kZonePassed], 1u);
  b->commit_long();
}

TEST(ZLong, LongsMustCommitInZoneOrder) {
  // Disjoint objects, but L2 (zc=2) commits before L1 (zc=1): CT jumps to
  // 2 and L1's commit check T.zc > CT fails.
  Runtime rt(quiet_config());
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& l1 = a->begin_long();
  (void)l1.read(o1);
  LongTx& l2 = b->begin_long();
  (void)l2.read(o2);
  b->commit_long();  // CT = 2
  EXPECT_THROW(a->commit_long(), TxAborted);
  EXPECT_EQ(rt.commit_time(), 2u);
}

TEST(ZLong, AbortDiscardsLongWrites) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(5);
  auto th = rt.attach();
  LongTx& tl = th->begin_long();
  tl.write(x, 6);
  EXPECT_THROW(tl.abort(), TxAborted);
  rt.run_short(*th, [&](ShortTx& tx) { EXPECT_EQ(tx.read(x), 5); });
}

TEST(ZLong, LongWriteConflictsArbitrated) {
  Config cfg = quiet_config();
  cfg.cm_policy = cm::Policy::kAggressive;
  Runtime rt(cfg);
  auto x = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& l1 = a->begin_long();
  l1.write(x, 1);
  LongTx& l2 = b->begin_long();
  l2.write(x, 2);  // aggressive CM kills l1's ownership
  b->commit_long();
  EXPECT_THROW(a->commit_long(), TxAborted);
  rt.run_short(*a, [&](ShortTx& tx) { EXPECT_EQ(tx.read(x), 2); });
}

TEST(ZShort, FirstObjectDeterminesZone) {
  Runtime rt(quiet_config());
  auto o1 = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& tl = a->begin_long();  // zc = 1
  (void)tl.read(o1);             // o1.zc = 1

  ShortTx& ts = b->begin_short();
  (void)ts.read(o1);
  EXPECT_EQ(ts.zone(), 1u);  // adopted the long transaction's zone
  b->commit_short();
  a->commit_long();
}

TEST(ZShort, CrossingActiveZoneAborts) {
  // The long transaction has opened o1 but not yet o2; a short transaction
  // touching both would cross its path (the T1/T2 situation of Figure 4).
  Runtime rt(quiet_config());
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& tl = a->begin_long();  // zc = 1
  (void)tl.read(o1);             // o1.zc = 1, o2 untouched (zone 0)

  ShortTx& ts = b->begin_short();
  (void)ts.read(o1);  // zone 1 (active)
  EXPECT_THROW((void)ts.read(o2), TxAborted);  // zone 0 ≠ zone 1, zone 1 active
  EXPECT_GE(rt.stats()[Counter::kZoneConflicts], 1u);
  a->commit_long();
}

TEST(ZShort, CrossingIsAllowedOnceZonesArePast) {
  Runtime rt(quiet_config());
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  rt.run_long(*a, [&](LongTx& tx) { (void)tx.read(o1); });  // zone 1 done

  ShortTx& ts = b->begin_short();
  (void)ts.read(o1);  // zone 1 (≤ CT: in the past)
  EXPECT_NO_THROW((void)ts.read(o2));  // both zones past ⇒ zc ← CT
  EXPECT_EQ(ts.zone(), rt.commit_time());
  b->commit_short();
}

TEST(ZShort, CannotMoveToPastZone) {
  // Thread commits a short in the active zone 1, then starts a short whose
  // first object is from zone 0: LZC = 1 > CT = 0 ⇒ abort (property 4).
  Runtime rt(quiet_config());
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& tl = a->begin_long();  // zc = 1, stays active
  (void)tl.read(o1);

  rt.run_short(*b, [&](ShortTx& tx) { (void)tx.read(o1); });  // commits in zone 1
  EXPECT_EQ(b->last_zone_committed(), 1u);

  ShortTx& ts = b->begin_short();
  EXPECT_THROW((void)ts.read(o2), TxAborted);  // o2 from zone 0 < LZC, zone 1 active

  a->commit_long();  // CT = 1
  // Now the same open succeeds: LZC ≤ CT lets the short run at CT.
  ShortTx& ts2 = b->begin_short();
  EXPECT_NO_THROW((void)ts2.read(o2));
  EXPECT_EQ(ts2.zone(), 1u);
  b->commit_short();
}

TEST(ZShort, TransferUpdatesObjectRightAfterLongReadIt) {
  // The Figure 7 discussion: a short transaction may update an object as
  // soon as the long transaction has read it — no visible-read blocking.
  Runtime rt(quiet_config());
  auto o1 = rt.make_var<int>(10);
  auto o2 = rt.make_var<int>(10);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& tl = a->begin_long();
  const int v1 = tl.read(o1);  // long reads o1 (invisible read)

  // Short updates o1 while the long transaction is still running.
  rt.run_short(*b, [&](ShortTx& tx) { tx.write(o1) += 5; });

  const int v2 = tl.read(o2);
  EXPECT_NO_THROW(a->commit_long());  // Z-STM long never validates reads
  EXPECT_EQ(v1 + v2, 20);  // pre-short snapshot — consistent

  int seen = 0;
  rt.run_short(*b, [&](ShortTx& tx) { seen = tx.read(o1); });
  EXPECT_EQ(seen, 15);
}

TEST(ZShort, ZoneWaitModeProceedsAfterLongCommits) {
  Config cfg = quiet_config();
  cfg.wait_on_zone_conflict = true;
  cfg.zone_wait_attempts = 1u << 20;
  Runtime rt(cfg);
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);

  auto a = rt.attach();
  LongTx& tl = a->begin_long();
  (void)tl.read(o1);

  std::thread shorter([&] {
    auto b = rt.attach();
    rt.run_short(*b, [&](ShortTx& tx) {
      (void)tx.read(o1);
      (void)tx.read(o2);  // waits for the long transaction to finish
      tx.write(o2, 1);
    });
  });
  // Give the short a moment to hit the zone conflict, then release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  a->commit_long();
  shorter.join();

  auto th = rt.attach();
  int seen = 0;
  rt.run_short(*th, [&](ShortTx& tx) { seen = tx.read(o2); });
  EXPECT_EQ(seen, 1);
}

TEST(ZShort, WriterWaitedOutByLongCannotCommitIntoClaimedZone) {
  // DESIGN.md §5.4. S2 owns o2 when the long transaction L claims it, and
  // Karma makes L wait S2 out instead of killing it. Meanwhile S1 adopts
  // L's zone through o2, reads the pre-S2 version and writes o1, which L
  // read first. Were S2 to commit now, L would read its write:
  // L →rw S1 →rw S2 →wr L. S2's commit-time zone re-check must refuse.
  Config cfg = quiet_config();
  cfg.cm_policy = cm::Policy::kKarma;
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o1 = rt.make_var<long>(0);
  auto o2 = rt.make_var<long>(0);
  auto c1 = rt.attach();
  auto c2 = rt.attach();

  ShortTx& s2 = c2->begin_short();
  s2.write(o2, 2L);
  s2.inner().descriptor()->add_work(1u << 30);  // outweighs L under Karma

  std::atomic<std::uint64_t> long_zone{0};
  long long_saw_o2 = -1;
  std::thread long_thread([&] {
    auto cl = rt.attach();
    rt.run_long(*cl, [&](LongTx& tx) {
      long_zone.store(tx.zone());
      (void)tx.read(o1);
      long_saw_o2 = tx.read(o2);  // waits until S2 finishes
    });
  });
  while (long_zone.load() == 0 ||
         o2.object()->zc.load() != long_zone.load()) {
    std::this_thread::yield();
  }

  rt.run_short(*c1, [&](ShortTx& tx) { tx.write(o1, tx.read(o2) + 1); });
  EXPECT_THROW(c2->commit_short(), TxAborted);
  long_thread.join();
  EXPECT_EQ(long_saw_o2, 0);

  auto res = history::check_z_linearizable(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

TEST(ZHistory, DeterministicMixIsZLinearizable) {
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o1 = rt.make_var<long>(0);
  auto o2 = rt.make_var<long>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  rt.run_short(*b, [&](ShortTx& tx) { tx.write(o1) += 1; });
  rt.run_long(*a, [&](LongTx& tx) {
    (void)tx.read(o1);
    (void)tx.read(o2);
  });
  rt.run_short(*b, [&](ShortTx& tx) { tx.write(o2) += 1; });
  rt.run_long(*a, [&](LongTx& tx) { tx.write(o1) = tx.read(o2); });
  rt.run_short(*b, [&](ShortTx& tx) {
    (void)tx.read(o1);
    (void)tx.read(o2);
  });

  const auto h = rt.collect_history();
  EXPECT_EQ(h.committed_count(), 5u);
  auto res = history::check_z_linearizable(h);
  EXPECT_TRUE(res) << res.reason;
  // Long transactions carry their zones in the history.
  for (const auto& t : h.txs) {
    if (t.tx_class == runtime::TxClass::kLong && t.committed) {
      EXPECT_GT(t.zone, 0u);
    }
  }
}

TEST(ZLong, UpdateLongTransactionWithPrivateStateCommits) {
  // The Figure 7 workload shape: compute-total writes private-but-
  // transactional state; Z-STM must sustain it effortlessly.
  Runtime rt(quiet_config());
  constexpr int kAccounts = 20;
  std::vector<lsa::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(rt.make_var<long>(5));
  auto result = rt.make_var<long>(0);
  auto th = rt.attach();

  const runtime::RunResult res = rt.run_long(*th, [&](LongTx& tx) {
    long total = 0;
    for (auto& acc : accounts) total += tx.read(acc);
    tx.write(result, total);
  });
  EXPECT_EQ(res.attempts, 1u);
  rt.run_short(*th, [&](ShortTx& tx) {
    EXPECT_EQ(tx.read(result), kAccounts * 5);
  });
}

}  // namespace
}  // namespace zstm::zl
