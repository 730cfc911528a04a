// Functional tests for CS-STM (Algorithm 1): timestamp propagation,
// causal-serializability validation, the Figure 1 / Figure 3 behaviours,
// plausible-clock variants, and history conditions.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "cs/cs.hpp"
#include "history/checkers.hpp"

namespace zstm::cs {
namespace {

using util::Counter;

/// cs-vc's clock: one entry per slot, the exact vector clock (as
/// api::visit_variant("cs-vc") sets it).
Config quiet_config() {
  Config cfg;
  cfg.max_threads = 8;
  cfg.plausible_entries = cfg.max_threads;
  return cfg;
}

/// quiet_config() for cs-r with r plausible-clock entries.
Config rev_config(int r) {
  Config cfg = quiet_config();
  cfg.plausible_entries = r;
  return cfg;
}

TEST(Cs, ReadAndWriteBasics) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(5);
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) {
    EXPECT_EQ(tx.read(x), 5);
    tx.write(x, 6);
    EXPECT_EQ(tx.read(x), 6);
  });
  rt.run(*th, [&](Tx& tx) { EXPECT_EQ(tx.read(x), 6); });
}

TEST(Cs, CommitBumpsOwnComponentOnly) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();  // slot 0
  rt.run(*th, [&](Tx& tx) { tx.write(x, 1); });
  const auto& vcp = th->last_committed();
  EXPECT_EQ(vcp[0], 1u);
  for (int k = 1; k < vcp.dimension(); ++k) EXPECT_EQ(vcp[k], 0u);
}

TEST(Cs, ReusedSlotNeverRepeatsAStamp) {
  // A slot outlives its thread. The next thread on slot 0 starts from a
  // zero VCp, so only the entry's counter keeps its first commit from
  // carrying the stamp the previous holder's commit carried.
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto y = rt.make_var<int>(0);
  std::uint64_t first = 0;
  std::thread([&] {
    auto th = rt.attach();
    ASSERT_EQ(th->slot(), 0);
    rt.run(*th, [&](Tx& tx) { tx.write(x, 1); });
    first = th->last_committed()[0];
  }).join();
  ASSERT_GT(first, 0u);
  std::thread([&] {
    auto th = rt.attach();
    ASSERT_EQ(th->slot(), 0);
    rt.run(*th, [&](Tx& tx) { tx.write(y, 1); });
    EXPECT_GT(th->last_committed()[0], first);
  }).join();
}

TEST(Cs, ReadOnlyCommitDoesNotBump) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) { (void)tx.read(x); });
  EXPECT_EQ(th->last_committed()[0], 0u);
}

TEST(Cs, TimestampsMergeOnRead) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto a = rt.attach();  // slot 0
  auto b = rt.attach();  // slot 1
  rt.run(*b, [&](Tx& tx) { tx.write(x, 1); });  // b commits [0,1,..]
  Tx& ta = a->begin();
  (void)ta.read(x);
  EXPECT_EQ(ta.tentative_ct()[1], 1u);  // observed b's component (line 8)
  a->commit();
}

TEST(Cs, ThreadCarriesItsLastCommittedTime) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) { tx.write(x, 1); });
  Tx& t2 = th->begin();  // T.ct starts from VCp (line 3)
  EXPECT_EQ(t2.tentative_ct()[0], 1u);
  th->commit();
}

TEST(Cs, FigureOneLongTransactionCommits) {
  // The motivating example: under a single clock TL must abort; under
  // causal serializability T1's concurrent successor does not kill TL.
  Runtime rt(quiet_config());
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto o4 = rt.make_var<int>(0);
  auto p1 = rt.attach();
  auto p2 = rt.attach();
  auto pl = rt.attach();

  Tx& tl = pl->begin();
  (void)tl.read(o1);
  (void)tl.read(o2);

  // T1 writes o1, o2 and commits — overwrites TL's read versions.
  rt.run(*p1, [&](Tx& tx) {
    tx.write(o1, 1);
    tx.write(o2, 1);
  });
  // T2 writes o3 twice and commits.
  rt.run(*p2, [&](Tx& tx) {
    tx.write(o3, 1);
    tx.write(o3, 2);
  });

  (void)tl.read(o3);  // merges T2's timestamp — concurrent with T1's
  tl.write(o4, 1);
  EXPECT_NO_THROW(pl->commit());  // causally serializable: TL commits
}

TEST(Cs, FigureThreeReaderOfCausallyOverwrittenVersionAborts) {
  // T1 reads o3; T2 (which causally follows what T1 will read next)
  // overwrites o3; when T1's timestamp comes to dominate T2's, validation
  // fails (Figure 3's T1).
  Runtime rt(quiet_config());
  auto o1 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto a = rt.attach();  // will play T1
  auto b = rt.attach();  // plays T2

  Tx& t1 = a->begin();
  (void)t1.read(o3);  // reads the initial version of o3

  // T2 overwrites o3 and commits.
  rt.run(*b, [&](Tx& tx) { tx.write(o3, 9); });
  // T2' (same thread b ⇒ causally after T2) writes o1.
  rt.run(*b, [&](Tx& tx) { tx.write(o1, 9); });

  // T1 reads o1 — now T1.ct dominates T2.ct, so o3's successor causally
  // precedes T1: both-before-and-after ⇒ abort.
  (void)t1.read(o1);
  t1.write(o3, 1);  // make it an update so the bump applies
  EXPECT_THROW(a->commit(), TxAborted);
  EXPECT_GE(rt.stats()[Counter::kValidationFails], 1u);
}

TEST(Cs, ValidationAbortsWhenItsReadVersionWasPruned) {
  // With one version kept, a commit to o prunes the version T1 read, so
  // T1's validation cannot find its successor and aborts conservatively:
  // counted as a failed validation and as a pruned version.
  Config cfg = quiet_config();
  cfg.versions_kept = 1;
  Runtime rt(cfg);
  auto o = rt.make_var<int>(0);
  auto y = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& t1 = a->begin();
  (void)t1.read(o);
  t1.write(y, 1);
  rt.run(*b, [&](Tx& tx) { tx.write(o, 1); });
  const std::uint64_t fails = rt.stats()[Counter::kValidationFails];
  const std::uint64_t pruned = rt.stats()[Counter::kVersionPruned];
  EXPECT_THROW(a->commit(), TxAborted);
  EXPECT_EQ(rt.stats()[Counter::kValidationFails], fails + 1);
  EXPECT_EQ(rt.stats()[Counter::kVersionPruned], pruned + 1);
}

TEST(Cs, WriteWriteConflictSingleWriterRule) {
  Config cfg = quiet_config();
  Runtime rt(cfg);
  auto x = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();
  Tx& ta = a->begin();
  ta.write(x, 1);
  rt.run(*b, [&](Tx& tx) { tx.write(x, 2); });  // kills A
  EXPECT_THROW(a->commit(), TxAborted);
}

TEST(Cs, AbortDiscardsWrites) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(3);
  auto th = rt.attach();
  Tx& tx = th->begin();
  tx.write(x, 4);
  EXPECT_THROW(tx.abort(), TxAborted);
  rt.run(*th, [&](Tx& t) { EXPECT_EQ(t.read(x), 3); });
}

TEST(Cs, HistorySatisfiesCausalConditions) {
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto x = rt.make_var<long>(0);
  auto y = rt.make_var<long>(0);
  auto a = rt.attach();
  auto b = rt.attach();
  for (int i = 0; i < 10; ++i) {
    rt.run(*a, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
    rt.run(*b, [&](Tx& tx) { tx.write(y, tx.read(y) + 1); });
    rt.run(*a, [&](Tx& tx) { (void)tx.read(y); });
  }
  auto res = history::check_causal_conditions(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

// --- plausible clock variants -----------------------------------------------

TEST(CsRev, BasicCommitWithSharedEntries) {
  Runtime rt(rev_config(2));
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  for (int i = 0; i < 10; ++i) {
    rt.run(*th, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  rt.run(*th, [&](Tx& tx) { EXPECT_EQ(tx.read(x), 10); });
}

TEST(CsRev, SingleEntryBehavesLikeScalarClock) {
  // r = 1: all commits totally ordered; Figure 1's TL no longer benefits
  // from causal slack — its read versions' successors *always* precede the
  // merged timestamp, so TL aborts exactly like in a single-clock TBTM.
  Runtime rt(rev_config(1));
  auto o1 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto o4 = rt.make_var<int>(0);
  auto p1 = rt.attach();
  auto p2 = rt.attach();
  auto pl = rt.attach();

  Tx& tl = pl->begin();
  (void)tl.read(o1);
  rt.run(*p1, [&](Tx& tx) { tx.write(o1, 1); });
  rt.run(*p2, [&](Tx& tx) { tx.write(o3, 1); });
  (void)tl.read(o3);  // merges a stamp that dominates o1's successor
  tl.write(o4, 1);
  EXPECT_THROW(pl->commit(), TxAborted);
}

TEST(CsRev, SharedEntryCausesFalseConflict) {
  // p1 and p2 share entry 0 under r = 1's modulo mapping... use r = 2 with
  // slots 0 and 2 sharing entry 0: T1 (slot 0) and T2 (slot 2) are truly
  // concurrent, but their REV stamps are ordered, so a reader merging T2's
  // stamp sees T1's version as causally overwritten — an unnecessary abort
  // (the accuracy/size trade-off of §4.3).
  Runtime rt(rev_config(2));
  auto o1 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto o4 = rt.make_var<int>(0);
  auto p0 = rt.attach();  // slot 0 → entry 0
  auto p1 = rt.attach();  // slot 1 → entry 1
  auto p2 = rt.attach();  // slot 2 → entry 0 (shared with slot 0)

  Tx& tl = p1->begin();
  (void)tl.read(o1);
  rt.run(*p0, [&](Tx& tx) { tx.write(o1, 1); });  // entry 0
  rt.run(*p2, [&](Tx& tx) { tx.write(o3, 1); });  // entry 0, later
  (void)tl.read(o3);  // REV stamp of o3 dominates o1's successor stamp
  tl.write(o4, 1);
  EXPECT_THROW(p1->commit(), TxAborted);
}

}  // namespace
}  // namespace zstm::cs
