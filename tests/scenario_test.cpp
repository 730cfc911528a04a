// The paper's figures as deterministic executable scenarios.
//
// Figure 1:  linearizability (LSA) forces the long transaction TL to abort;
//            causal serializability (CS-STM) and z-linearizability (Z-STM,
//            TL as a long transaction) admit it.
// Figure 4:  short transactions crossing an active long transaction abort;
//            shorts whose objects were all already opened by the long
//            transaction proceed and commit after it.
// Figure 5:  long transactions partition shorts into zones; the recorded
//            history passes the z-linearizability checker.
//
// CTest label: `stress` — randomized multi-threaded rounds; run under TSan
// in CI (DESIGN.md §6).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/stm.hpp"

namespace zstm {
namespace {

// --- Figure 1 ------------------------------------------------------------------

TEST(Figure1, LsaAbortsTheLongTransaction) {
  lsa::Runtime rt(lsa::Config{.max_threads = 8});
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto o4 = rt.make_var<int>(0);
  auto p1 = rt.attach();
  auto p2 = rt.attach();
  auto pl = rt.attach();

  lsa::Tx& tl = pl->begin();
  (void)tl.read(o1);
  (void)tl.read(o2);

  rt.run(*p1, [&](lsa::Tx& tx) {  // T1: w(o1) w(o2), commits first
    tx.write(o1, 1);
    tx.write(o2, 1);
  });
  rt.run(*p2, [&](lsa::Tx& tx) {  // T2: w(o3) w(o3)
    tx.write(o3, 1);
    tx.write(o3, 2);
  });

  (void)tl.read(o3);
  tl.write(o4, 1);
  // "Linearizability imposes an ordering of T1 before T2, which prevents
  // long transaction TL from committing."
  EXPECT_THROW(pl->commit(), lsa::TxAborted);
}

TEST(Figure1, CsStmAdmitsTheLongTransaction) {
  // r = max_threads: the exact vector clock (cs-vc).
  cs::Runtime rt(cs::Config{.max_threads = 8, .plausible_entries = 8});
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto o4 = rt.make_var<int>(0);
  auto p1 = rt.attach();
  auto p2 = rt.attach();
  auto pl = rt.attach();

  cs::Tx& tl = pl->begin();
  (void)tl.read(o1);
  (void)tl.read(o2);

  rt.run(*p1, [&](cs::Tx& tx) {
    tx.write(o1, 1);
    tx.write(o2, 1);
  });
  rt.run(*p2, [&](cs::Tx& tx) {
    tx.write(o3, 1);
    tx.write(o3, 2);
  });

  (void)tl.read(o3);
  tl.write(o4, 1);
  // "There is a valid serialization T2 → TL → T1" — vector time sees T1 and
  // T2 as concurrent and lets TL commit.
  EXPECT_NO_THROW(pl->commit());
}

TEST(Figure1, ZStmAdmitsTheLongTransaction) {
  zl::Runtime rt;
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto o4 = rt.make_var<int>(0);
  auto p1 = rt.attach();
  auto p2 = rt.attach();
  auto pl = rt.attach();

  zl::LongTx& tl = pl->begin_long();
  (void)tl.read(o1);
  (void)tl.read(o2);

  rt.run_short(*p1, [&](zl::ShortTx& tx) {  // T1 updates objects TL has read
    tx.write(o1, 1);
    tx.write(o2, 1);
  });
  rt.run_short(*p2, [&](zl::ShortTx& tx) {
    tx.write(o3, 1);
    tx.write(o3, 2);
  });

  (void)tl.read(o3);
  tl.write(o4, 1);
  EXPECT_NO_THROW(pl->commit_long());  // no read validation for longs
}

TEST(Figure1, SstmAlsoAdmitsTheLongTransaction) {
  // Serializability is weaker than linearizability here too: the valid
  // serialization T2 → TL → T1 is accepted.
  sstm::Runtime rt(sstm::Config{.max_threads = 8});
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto o4 = rt.make_var<int>(0);
  auto p1 = rt.attach();
  auto p2 = rt.attach();
  auto pl = rt.attach();

  sstm::Tx& tl = pl->begin();
  (void)tl.read(o1);
  (void)tl.read(o2);
  rt.run(*p1, [&](sstm::Tx& tx) {
    tx.write(o1, 1);
    tx.write(o2, 1);
  });
  rt.run(*p2, [&](sstm::Tx& tx) {
    tx.write(o3, 1);
    tx.write(o3, 2);
  });
  (void)tl.read(o3);
  tl.write(o4, 1);
  EXPECT_NO_THROW(pl->commit());
}

// --- Figure 4 ------------------------------------------------------------------

TEST(Figure4, ShortCrossingLongAbortsShortBehindItCommits) {
  zl::Runtime rt;
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(0);
  auto o4 = rt.make_var<int>(0);
  auto pl = rt.attach();
  auto ps = rt.attach();

  zl::LongTx& tl1 = pl->begin_long();  // TL1 accesses all objects, in order
  (void)tl1.read(o1);
  (void)tl1.read(o2);
  // TL1 has not reached o3/o4 yet.

  // T1-like short: spans the long transaction's frontier (o2 opened, o3
  // not): must abort.
  zl::ShortTx& t1 = ps->begin_short();
  (void)t1.read(o2);
  EXPECT_THROW((void)t1.read(o3), zl::TxAborted);

  // T5-like short: entirely behind the frontier (o1 and o2 both opened by
  // TL1): proceeds in TL1's zone and commits, updating an object the long
  // transaction already read.
  rt.run_short(*ps, [&](zl::ShortTx& tx) {
    tx.write(o1) += 7;
    tx.write(o2) += 7;
  });

  (void)tl1.read(o3);
  (void)tl1.read(o4);
  EXPECT_NO_THROW(pl->commit_long());

  // T1's retry succeeds now that TL1 is done.
  rt.run_short(*ps, [&](zl::ShortTx& tx) {
    (void)tx.read(o2);
    (void)tx.read(o3);
  });
}

TEST(Figure4, ShortEntirelyAheadOfLongCommitsBeforeIt) {
  // A short touching only objects the long transaction has NOT opened yet
  // serializes before it (zone in the past).
  zl::Runtime rt;
  auto o1 = rt.make_var<int>(0);
  auto o3 = rt.make_var<int>(5);
  auto o4 = rt.make_var<int>(5);
  auto pl = rt.attach();
  auto ps = rt.attach();

  zl::LongTx& tl = pl->begin_long();
  (void)tl.read(o1);

  rt.run_short(*ps, [&](zl::ShortTx& tx) {  // zone 0: fully ahead of TL
    tx.write(o3) += 1;
    tx.write(o4) += 1;
  });

  EXPECT_EQ(tl.read(o3), 6);  // TL sees the short's committed effects
  EXPECT_EQ(tl.read(o4), 6);
  EXPECT_NO_THROW(pl->commit_long());
}

// --- Figure 5 ------------------------------------------------------------------

TEST(Figure5, LongTransactionsPartitionShortsIntoZones) {
  zl::Config cfg;
  cfg.record_history = true;
  zl::Runtime rt(cfg);
  constexpr int kObjects = 4;
  std::vector<lsa::Var<long>> objs;
  for (int i = 0; i < kObjects; ++i) objs.push_back(rt.make_var<long>(0));
  auto pl = rt.attach();
  auto ps = rt.attach();

  auto run_zone_shorts = [&](long delta) {
    rt.run_short(*ps, [&](zl::ShortTx& tx) {
      tx.write(objs[0]) += delta;
      tx.write(objs[1]) -= delta;
    });
    rt.run_short(*ps, [&](zl::ShortTx& tx) {
      tx.write(objs[2]) += delta;
      tx.write(objs[3]) -= delta;
    });
  };

  run_zone_shorts(1);  // zone 0
  rt.run_long(*pl, [&](zl::LongTx& tx) {  // TL1: reads everything
    long sum = 0;
    for (auto& o : objs) sum += tx.read(o);
    EXPECT_EQ(sum, 0);
  });
  run_zone_shorts(2);  // zone 1
  rt.run_long(*pl, [&](zl::LongTx& tx) {  // TL2
    long sum = 0;
    for (auto& o : objs) sum += tx.read(o);
    EXPECT_EQ(sum, 0);
  });
  run_zone_shorts(3);  // zone 2

  const auto h = rt.collect_history();
  auto res = history::check_z_linearizable(h);
  EXPECT_TRUE(res) << res.reason;

  // Shorts landed in three distinct zones delimited by the two longs.
  std::set<std::uint64_t> zones;
  for (const auto& t : h.txs) {
    if (t.committed && t.tx_class == runtime::TxClass::kShort) {
      zones.insert(t.zone);
    }
  }
  EXPECT_EQ(zones.size(), 3u);
}

}  // namespace
}  // namespace zstm
