// Tests for automatic long/short classification (§5.3's "automatic marking
// based on past behaviors of transactions").
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "zstm/auto_class.hpp"

namespace zstm::zl {
namespace {

TEST(AutoClass, FreshSiteRunsShort) {
  AutoClassifier cls;
  for (int site = 0; site < 8; ++site) {
    EXPECT_FALSE(cls.classify_long(site));
  }
}

TEST(AutoClass, LargeOpenCountsPromoteToLong) {
  AutoClassifier::Config cfg;
  cfg.long_open_threshold = 10.0;
  cfg.ema_weight = 0.5;
  AutoClassifier cls(cfg);
  // EMA: 0 → 50 → 75 after two samples of 100; crosses 10 immediately.
  cls.record(0, 100, 0, false);
  EXPECT_TRUE(cls.classify_long(0));
  EXPECT_GT(cls.avg_opens(0), 10.0);
}

TEST(AutoClass, SmallTransactionsStayShort) {
  AutoClassifier cls;
  for (int i = 0; i < 100; ++i) cls.record(3, 2, 0, false);
  EXPECT_FALSE(cls.classify_long(3));
  EXPECT_NEAR(cls.avg_opens(3), 2.0, 0.1);
}

TEST(AutoClass, AbortPressurePromotesEvenSmallSites) {
  AutoClassifier::Config cfg;
  cfg.abort_promote_threshold = 3.0;
  cfg.ema_weight = 0.5;
  AutoClassifier cls(cfg);
  cls.record(1, 2, 8, false);  // 2 opens but 8 aborted attempts
  cls.record(1, 2, 8, false);
  EXPECT_TRUE(cls.classify_long(1));
}

TEST(AutoClass, PromotedSiteDecaysBackToShort) {
  AutoClassifier::Config cfg;
  cfg.abort_promote_threshold = 3.0;
  cfg.long_open_threshold = 1000.0;
  cfg.ema_weight = 0.5;
  AutoClassifier cls(cfg);
  cls.record(2, 4, 10, false);
  cls.record(2, 4, 10, false);
  ASSERT_TRUE(cls.classify_long(2));
  // Calm long-mode runs decay the abort average.
  for (int i = 0; i < 10; ++i) cls.record(2, 4, 0, true);
  EXPECT_FALSE(cls.classify_long(2));
}

TEST(AutoClass, SiteIdsWrapModuloTable) {
  AutoClassifier::Config cfg;
  cfg.max_sites = 4;
  cfg.long_open_threshold = 5.0;
  AutoClassifier cls(cfg);
  cls.record(1, 100, 0, false);
  EXPECT_TRUE(cls.classify_long(1 + 4));  // same bucket
}

TEST(AutoClass, CountersTrackExecutions) {
  AutoClassifier cls;
  cls.record(0, 5, 0, false);
  cls.record(0, 5, 0, true);
  EXPECT_EQ(cls.executions(0), 2u);
  EXPECT_EQ(cls.long_runs(0), 1u);
}

TEST(AutoClass, RunAutoLearnsToRunScansAsLong) {
  Runtime rt;
  AutoClassifier::Config ccfg;
  ccfg.long_open_threshold = 16.0;
  AutoClassifier cls(ccfg);
  constexpr int kAccounts = 64;
  std::vector<lsa::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(rt.make_var<long>(1));
  auto sink = rt.make_var<long>(0);
  auto th = rt.attach();

  constexpr int kScanSite = 0;
  for (int i = 0; i < 5; ++i) {
    run_auto(*th, cls, kScanSite, [&](Tx& tx) {
      long total = 0;
      for (auto& a : accounts) total += tx.read(a);
      tx.write(sink, total);
    });
  }
  // The first execution ran short (no history); the opens average (64)
  // crossed the threshold immediately, so the rest ran long.
  EXPECT_EQ(cls.executions(kScanSite), 5u);
  EXPECT_GE(cls.long_runs(kScanSite), 4u);
  EXPECT_TRUE(cls.classify_long(kScanSite));

  // A transfer site stays on the short path.
  constexpr int kTransferSite = 1;
  for (int i = 0; i < 5; ++i) {
    run_auto(*th, cls, kTransferSite, [&](Tx& tx) {
      tx.write(accounts[0]) -= 1;
      tx.write(accounts[1]) += 1;
    });
  }
  EXPECT_EQ(cls.long_runs(kTransferSite), 0u);
  EXPECT_FALSE(cls.classify_long(kTransferSite));
}

TEST(AutoClass, FacadeReportsMode) {
  Runtime rt;
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  AutoClassifier cls;

  bool saw_long = false;
  rt.run_long(*th, [&](LongTx& tx) {
    Tx facade(tx);
    saw_long = facade.is_long();
    (void)facade.read(x);
  });
  EXPECT_TRUE(saw_long);

  bool saw_short = true;
  rt.run_short(*th, [&](ShortTx& tx) {
    Tx facade(tx);
    saw_short = !facade.is_long();
    facade.write(x, 1);
  });
  EXPECT_TRUE(saw_short);
  (void)cls;
}

TEST(AutoClass, ConcurrentMixedWorkloadConservesMoney) {
  Runtime rt;
  AutoClassifier cls;
  constexpr int kAccounts = 48;
  constexpr long kInitial = 30;
  std::vector<lsa::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(rt.make_var<long>(kInitial));
  auto sink = rt.make_var<long>(0);

  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 400; ++i) {
        if (t == 0 && rng.chance(0.15)) {
          run_auto(*th, cls, /*site=*/0, [&](Tx& tx) {  // scan site
            long total = 0;
            for (auto& a : accounts) total += tx.read(a);
            tx.write(sink, total);
          });
        } else {
          const auto from = rng.next_below(kAccounts);
          auto to = rng.next_below(kAccounts);
          if (to == from) to = (to + 1) % kAccounts;
          run_auto(*th, cls, /*site=*/1, [&](Tx& tx) {
            tx.write(accounts[from]) -= 1;
            tx.write(accounts[to]) += 1;
          });
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  auto th = rt.attach();
  long total = 0;
  rt.run_long(*th, [&](LongTx& tx) {
    total = 0;
    for (auto& a : accounts) total += tx.read(a);
  });
  EXPECT_EQ(total, kAccounts * kInitial);
  // The scan site migrated to long transactions; transfers did not. On an
  // oversubscribed box (TSan CI) the abort-pressure heuristic may promote
  // the transfer site for an isolated execution before decaying back —
  // that is designed behavior, so only sustained migration fails here.
  EXPECT_GT(cls.long_runs(0), 0u);
  EXPECT_LT(cls.long_runs(1), cls.executions(1) / 10);
}

}  // namespace
}  // namespace zstm::zl
