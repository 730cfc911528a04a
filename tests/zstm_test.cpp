// Functional tests for Z-STM (Algorithms 2 and 3): zone assignment and
// crossing rules, long-transaction timestamp and zone ordering, visible long
// writes, LZC thread-order protection, and z-linearizability of recorded
// histories.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <cstdint>

#include "fault/failpoint.hpp"
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
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  LongTx& l1 = a->begin_long();
  l1.write(x, 1);
  LongTx& l2 = b->begin_long();
  l2.write(x, 2);  // kills the active owner l1
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

TEST(ZShort, WriterWaitedOutByLongCannotCommitIntoClaimedZone) {
  // DESIGN.md §5.4. S2 owns o2 when the long transaction L claims it. L
  // kills an active writer, so the window is S2 entering kCommitting after
  // L's zone claim on o2 and before L loads o2's writer status; L then
  // waits S2 out. The zl.acquire failpoint sits in exactly that window (the
  // top of ObjectStore::acquire), and its hook runs the window on this one
  // thread: S1 adopts L's zone through o2, reads the pre-S2 version and
  // writes o1, which L read first; then S2 commits. Were S2 to succeed, L
  // would read its write: L →rw S1 →rw S2 →wr L. S2's commit-time zone
  // re-check (ShortTx::admit) must refuse.
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o1 = rt.make_var<long>(0);
  auto o2 = rt.make_var<long>(0);
  auto c1 = rt.attach();
  auto c2 = rt.attach();
  auto cl = rt.attach();

  ShortTx& s2 = c2->begin_short();
  s2.write(o2, 2L);

  LongTx& l = cl->begin_long();
  bool window_run = false;
  fault::registry().arm_hook(fault::Site::kZlAcquire, [&] {
    if (window_run || o2.object()->zc.load() != l.zone()) return;
    window_run = true;
    rt.run_short(*c1, [&](ShortTx& tx) {
      tx.write(o1, tx.read(o2) + 1);
      EXPECT_EQ(tx.zone(), l.zone());
    });
    EXPECT_THROW(c2->commit_short(), TxAborted);
  });
  (void)l.read(o1);
  const long long_saw_o2 = l.read(o2);
  fault::registry().disarm_all();
  cl->commit_long();
  EXPECT_TRUE(window_run);
  EXPECT_EQ(long_saw_o2, 0);

  auto res = history::check_z_linearizable(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

TEST(ZLong, WriteAbortsOnceItsOwnZonesCommitIsCurrent) {
  // Algorithm 2's zone order on a long write (LongTx::write_object): L
  // reads o, which claims o's zone; a short transaction adopts L's zone
  // through o and commits a write to o, which serializes that write after
  // L. L can then no longer insert a write to o before it, so L's attempt
  // aborts as a zone conflict.
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o = rt.make_var<long>(0);
  auto cl = rt.attach();
  auto cs = rt.attach();

  LongTx& l = cl->begin_long();
  EXPECT_EQ(l.read(o), 0);
  rt.run_short(*cs, [&](ShortTx& tx) {
    tx.write(o) += 1;
    EXPECT_EQ(tx.zone(), l.zone());
  });
  const std::uint64_t conflicts = rt.stats()[Counter::kZoneConflicts];
  EXPECT_THROW(l.write(o, 5L), TxAborted);
  EXPECT_EQ(rt.stats()[Counter::kZoneConflicts], conflicts + 1);
  EXPECT_FALSE(cl->in_long_transaction());

  long seen = 0;
  rt.run_short(*cs, [&](ShortTx& tx) { seen = tx.read(o); });
  EXPECT_EQ(seen, 1);
  auto res = history::check_z_linearizable(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

// LongTx::read_object takes the newest version not from L's own zone as
// L's pre-claim state. The zl.acquire hook runs between L's zone claim on
// o and its locator load; the two cases below commit a write to o in that
// window so that no such version is left, and L's read must abort.

TEST(ZLong, ReadAbortsWhenALaterLongsWriteIsCurrent) {
  // A later long transaction L2 (higher zone) writes o and commits inside
  // the window: the current version comes from a zone above L's, so L was
  // passed.
  Runtime rt(quiet_config());
  auto o = rt.make_var<long>(0);
  auto cl = rt.attach();
  auto c2 = rt.attach();

  LongTx& l = cl->begin_long();
  bool window_run = false;
  fault::registry().arm_hook(fault::Site::kZlAcquire, [&] {
    if (window_run || o.object()->zc.load() != l.zone()) return;
    window_run = true;
    LongTx& l2 = c2->begin_long();
    l2.write(o, 2L);
    EXPECT_GT(l2.zone(), l.zone());
    c2->commit_long();
  });
  const std::uint64_t passed = rt.stats()[Counter::kZonePassed];
  EXPECT_THROW((void)l.read(o), TxAborted);
  fault::registry().disarm_all();
  EXPECT_TRUE(window_run);
  EXPECT_EQ(rt.stats()[Counter::kZonePassed], passed + 1);
  EXPECT_FALSE(cl->in_long_transaction());
}

TEST(ZLong, ReadAbortsWhenItsPreClaimVersionWasPruned) {
  // With one version kept, a short transaction that adopts L's zone
  // through o and commits a write to it inside the window prunes the
  // pre-claim version: every version left is from L's own zone.
  Config cfg = quiet_config();
  cfg.versions_kept = 1;
  Runtime rt(cfg);
  auto o = rt.make_var<long>(0);
  auto cl = rt.attach();
  auto cs = rt.attach();

  LongTx& l = cl->begin_long();
  bool window_run = false;
  fault::registry().arm_hook(fault::Site::kZlAcquire, [&] {
    if (window_run || o.object()->zc.load() != l.zone()) return;
    window_run = true;
    rt.run_short(*cs, [&](ShortTx& tx) {
      tx.write(o) += 1;
      EXPECT_EQ(tx.zone(), l.zone());
    });
  });
  const std::uint64_t passed = rt.stats()[Counter::kZonePassed];
  const std::uint64_t pruned = rt.stats()[Counter::kVersionPruned];
  EXPECT_THROW((void)l.read(o), TxAborted);
  fault::registry().disarm_all();
  EXPECT_TRUE(window_run);
  // Pruned, not passed: no higher zone is anywhere in play.
  EXPECT_EQ(rt.stats()[Counter::kVersionPruned], pruned + 1);
  EXPECT_EQ(rt.stats()[Counter::kZonePassed], passed);
  EXPECT_FALSE(cl->in_long_transaction());
}

// DESIGN.md §5.5: three windows through which a short transaction's reads
// could escape its zone. Each test replays one on this one thread and
// ends with the history check that caught it.

/// Runs `step` in T's open short attempt, then commits T; true when T
/// aborted instead.
template <typename F>
bool aborts_before_commit(ThreadCtx& t_ctx, F&& step) {
  try {
    step();
    t_ctx.commit_short();
    return false;
  } catch (const TxAborted&) {
    return true;
  }
}

TEST(ZShort, ReadThatRacesALongClaimIsReChecked) {
  // T checks o2's zone (0), and before its read resolves o2 the long
  // transaction L claims o2 and S, adopting L's zone, commits a write to
  // it. The settle-CAS failpoint's hook opens that gap: T's read settles
  // an aborted writer X first. Were T to keep S's write, its thread's next
  // transaction T2 writes o3, which L reads: L →rw S →wr T →po T2 →wr L.
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o1 = rt.make_var<long>(0);
  auto o2 = rt.make_var<long>(0);
  auto o3 = rt.make_var<long>(0);
  auto ct = rt.attach();
  auto cl = rt.attach();
  auto cs = rt.attach();
  auto cx = rt.attach();

  ShortTx& x = cx->begin_short();
  x.write(o2, 9L);
  ASSERT_TRUE(x.inner().descriptor()->abort_by_enemy());  // left unsettled

  ShortTx& t = ct->begin_short(/*read_only=*/true);
  (void)t.read(o1);  // zone 0
  LongTx& l = cl->begin_long();
  bool gap_run = false;
  fault::registry().arm_hook(fault::Site::kStoreSettleCas, [&] {
    if (gap_run) return;
    gap_run = true;
    EXPECT_EQ(l.read(o2), 0);  // claims o2
    rt.run_short(*cs, [&](ShortTx& tx) { tx.write(o2, 1L); });
  });
  EXPECT_TRUE(aborts_before_commit(*ct, [&] { (void)t.read(o2); }));
  fault::registry().disarm_all();
  EXPECT_TRUE(gap_run);
  cx->abort_short_attempt();

  rt.run_short(*ct, [&](ShortTx& tx) { tx.write(o3, 3L); });
  EXPECT_EQ(l.read(o3), 3);
  cl->commit_long();
  auto res = history::check_z_linearizable(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

TEST(ZShort, ShortInAClaimedZoneNeverReadsInThePast) {
  // T joins L's zone, so it serializes after L and must see what L read.
  // T read S's zone-1 write to o2; S' then supersedes o1, which T read
  // first, so T's snapshot cannot be extended past S'. W commits o4 after
  // that, and L reads W's write. A read of o4 in the past would give
  // L →rw S →wr T →rw W →wr L.
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o1 = rt.make_var<long>(0);
  auto o2 = rt.make_var<long>(0);
  auto o4 = rt.make_var<long>(0);
  auto ct = rt.attach();
  auto cl = rt.attach();
  auto cs = rt.attach();
  auto cw = rt.attach();  // a fresh LZC: cs commits in zone 1 first

  LongTx& l = cl->begin_long();
  (void)l.read(o1);
  (void)l.read(o2);
  ShortTx& t = ct->begin_short(/*read_only=*/true);
  (void)t.read(o1);
  EXPECT_EQ(t.zone(), l.zone());
  rt.run_short(*cs, [&](ShortTx& tx) { tx.write(o2, 2L); });  // S
  EXPECT_EQ(t.read(o2), 2);  // extends T's snapshot over S's commit
  rt.run_short(*cs, [&](ShortTx& tx) { tx.write(o1, 1L); });  // S'
  rt.run_short(*cw, [&](ShortTx& tx) { tx.write(o4, 4L); });  // W, zone 0
  EXPECT_EQ(l.read(o4), 4);
  EXPECT_TRUE(aborts_before_commit(*ct, [&] { (void)t.read(o4); }));
  cl->commit_long();
  auto res = history::check_z_linearizable(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

TEST(ZShort, SlideIsRefusedOnceAReadWasSuperseded) {
  // T (zone 0) read o6 before W superseded it; L read W's write and
  // committed. Crossing into L's zone then would slide T behind L, yet T
  // also reads S's zone-1 write to o2, which its snapshot already covers:
  // L →rw S →wr T →rw W →wr L. The slide must be refused.
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o2 = rt.make_var<long>(0);
  auto o6 = rt.make_var<long>(0);
  auto ct = rt.attach();
  auto cl = rt.attach();
  auto cs = rt.attach();
  auto cw = rt.attach();  // a fresh LZC: cs commits in zone 1 first

  LongTx& l = cl->begin_long();
  (void)l.read(o2);
  rt.run_short(*cs, [&](ShortTx& tx) { tx.write(o2, 2L); });  // S
  ShortTx& t = ct->begin_short(/*read_only=*/true);
  EXPECT_EQ(t.read(o6), 0);  // zone 0
  rt.run_short(*cw, [&](ShortTx& tx) { tx.write(o6, 6L); });  // W
  EXPECT_EQ(l.read(o6), 6);
  cl->commit_long();
  const std::uint64_t conflicts = rt.stats()[Counter::kZoneConflicts];
  EXPECT_TRUE(aborts_before_commit(*ct, [&] { (void)t.read(o2); }));
  EXPECT_EQ(rt.stats()[Counter::kZoneConflicts], conflicts + 1);
  auto res = history::check_z_linearizable(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

TEST(ZShort, ReadOnlyShortWithoutReadSetsStillCommits) {
  // With track_readonly_readsets off, a read-only short transaction's reads
  // are untracked, yet a slide needs them current. Thread b's LZC (2) is
  // above o1's zone (1), so its first open joins CT = 2; the re-check of
  // o1's older stamp keeps it at CT, which needs no read check: one
  // attempt. A fresh thread c joins o1's zone 1 and must slide to CT = 2
  // to read o2 (zone 0). Its first attempt cannot show its reads current;
  // the second tracks them and commits.
  Config cfg = quiet_config();
  cfg.track_readonly_readsets = false;
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o1 = rt.make_var<long>(1);
  auto o2 = rt.make_var<long>(2);
  auto o3 = rt.make_var<long>(3);
  auto b = rt.attach();
  auto c = rt.attach();
  rt.run_long(*b, [&](LongTx& tx) { (void)tx.read(o1); });  // zone 1
  rt.run_long(*b, [&](LongTx& tx) { (void)tx.read(o3); });  // zone 2
  ASSERT_EQ(rt.commit_time(), 2u);
  ASSERT_EQ(b->last_zone_committed(), 2u);

  // The attempt that committed, or 0 if none did within the budget.
  const auto commit_within_budget = [&](ThreadCtx& ctx, bool read_o2) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      try {
        ShortTx& tx = ctx.begin_short(/*read_only=*/true);
        EXPECT_EQ(tx.read(o1), 1);
        if (read_o2) {
          EXPECT_EQ(tx.read(o2), 2);
        }
        ctx.commit_short();
        return attempt;
      } catch (const TxAborted&) {
      }
    }
    return 0;
  };
  EXPECT_EQ(commit_within_budget(*b, /*read_o2=*/false), 1);
  EXPECT_EQ(commit_within_budget(*c, /*read_o2=*/true), 2);
  auto res = history::check_z_linearizable(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

TEST(ZShort, CrossingAtCommitTimeNeedsNoReadCheck) {
  // T joins zone 1 = CT through o1 and reads it; S then supersedes o1.
  // Crossing to o2 (zone 0) keeps T at CT: T moves past no long
  // transaction, so its superseded read does not refuse the crossing.
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto o1 = rt.make_var<long>(0);
  auto o2 = rt.make_var<long>(0);
  auto ct = rt.attach();
  auto cl = rt.attach();
  auto cs = rt.attach();
  rt.run_long(*cl, [&](LongTx& tx) { (void)tx.read(o1); });  // CT = 1

  ShortTx& t = ct->begin_short(/*read_only=*/true);
  EXPECT_EQ(t.read(o1), 0);
  EXPECT_EQ(t.zone(), 1u);
  rt.run_short(*cs, [&](ShortTx& tx) { tx.write(o1, 1L); });  // S
  const std::uint64_t conflicts = rt.stats()[Counter::kZoneConflicts];
  EXPECT_EQ(t.read(o2), 0);
  EXPECT_NO_THROW(ct->commit_short());
  EXPECT_EQ(rt.stats()[Counter::kZoneConflicts], conflicts);
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
