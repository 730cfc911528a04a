// Multi-threaded stress tests for Z-STM: the paper's bank workload with
// concurrent long transactions (read-only and update Compute-Total), money
// conservation, long-transaction liveness, and machine-checked
// z-linearizability of recorded histories.
//
// CTest label: `stress` — randomized multi-threaded rounds; run under TSan
// in CI (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "history/checkers.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"
#include "zstm/zstm.hpp"

namespace zstm::zl {
namespace {

struct ZParam {
  int threads;
  bool update_total;  // Compute-Total writes private transactional state
  const char* label;
};

class ZStress : public ::testing::TestWithParam<ZParam> {};

TEST_P(ZStress, BankWithLongComputeTotal) {
  const ZParam& p = GetParam();
  Config cfg;
  cfg.max_threads = 16;
  Runtime rt(cfg);

  constexpr int kAccounts = 64;
  constexpr long kInitial = 100;
  constexpr long kExpected = kAccounts * kInitial;
  std::vector<lsa::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(rt.make_var<long>(kInitial));
  auto total_sink = rt.make_var<long>(0);

  std::atomic<long> bad_totals{0};
  std::atomic<long> long_commits{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < p.threads; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) * 7919 + 3);
      // Thread 0 mixes transfers (80%) and Compute-Total (20%), as in the
      // paper's §5.5 setup; other threads only transfer.
      for (int i = 0, n = test_env::stress_rounds(1200); i < n; ++i) {
        if (t == 0 && rng.chance(0.2)) {
          long observed = 0;
          rt.run_long(*th, [&](LongTx& tx) {
            observed = 0;
            for (auto& a : accounts) observed += tx.read(a);
            if (p.update_total) tx.write(total_sink, observed);
          });
          long_commits.fetch_add(1);
          if (observed != kExpected) bad_totals.fetch_add(1);
        } else {
          const auto from = rng.next_below(kAccounts);
          auto to = rng.next_below(kAccounts);
          if (to == from) to = (to + 1) % kAccounts;
          rt.run_short(*th, [&](ShortTx& tx) {
            const long amount = 1 + static_cast<long>(rng.next_below(9));
            tx.write(accounts[from]) -= amount;
            tx.write(accounts[to]) += amount;
          });
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Every Compute-Total saw a consistent snapshot: the sum is invariant.
  EXPECT_EQ(bad_totals.load(), 0);
  EXPECT_GT(long_commits.load(), 0);

  auto th = rt.attach();
  long final_total = 0;
  rt.run_long(*th, [&](LongTx& tx) {
    final_total = 0;
    for (auto& a : accounts) final_total += tx.read(a);
  });
  EXPECT_EQ(final_total, kExpected);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ZStress,
    ::testing::Values(ZParam{2, false, "t2_readonly_abort"},
                      ZParam{4, false, "t4_readonly_abort"},
                      ZParam{4, true, "t4_update_abort"},
                      ZParam{8, true, "t8_update_abort"}),
    [](const ::testing::TestParamInfo<ZParam>& info) {
      return info.param.label;
    });

TEST(ZStressHistory, RecordedHistoryIsZLinearizable) {
  Config cfg;
  cfg.max_threads = 16;
  cfg.record_history = true;
  Runtime rt(cfg);

  constexpr int kAccounts = 12;
  constexpr long kInitial = 30;
  std::vector<lsa::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(rt.make_var<long>(kInitial));
  auto sink = rt.make_var<long>(0);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 101);
      for (int i = 0, n = test_env::stress_rounds(400); i < n; ++i) {
        if (t == 0 && rng.chance(0.15)) {
          rt.run_long(*th, [&](LongTx& tx) {
            long total = 0;
            for (auto& a : accounts) total += tx.read(a);
            tx.write(sink, total);
          });
        } else {
          const auto from = rng.next_below(kAccounts);
          auto to = rng.next_below(kAccounts);
          if (to == from) to = (to + 1) % kAccounts;
          rt.run_short(*th, [&](ShortTx& tx) {
            const long amount = 1 + static_cast<long>(rng.next_below(5));
            tx.write(accounts[from]) -= amount;
            tx.write(accounts[to]) += amount;
          });
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto h = rt.collect_history();
  ASSERT_GT(h.committed_count(), 0u);
  auto serial = history::check_serializable(h);
  EXPECT_TRUE(serial) << serial.reason;
  auto zlin = history::check_z_linearizable(h);
  EXPECT_TRUE(zlin) << zlin.reason;
}

TEST(ZStressHistory, ShortOnlyWorkloadIsStrictlySerializable) {
  // Without long transactions every short lands in zone 0, and clause (2)
  // demands full real-time order — i.e. Z-STM degrades to exactly LSA's
  // guarantee when no zones exist.
  Config cfg;
  cfg.max_threads = 16;
  cfg.record_history = true;
  Runtime rt(cfg);
  auto x = rt.make_var<long>(0);
  auto y = rt.make_var<long>(0);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 201);
      for (int i = 0, n = test_env::stress_rounds(500); i < n; ++i) {
        rt.run_short(*th, [&](ShortTx& tx) {
          if (rng.chance(0.5)) {
            tx.write(x) += 1;
          } else {
            tx.write(y) += tx.read(x);
          }
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  auto strict = history::check_strictly_serializable(rt.collect_history());
  EXPECT_TRUE(strict) << strict.reason;
}

TEST(ZStress, LongUpdateNeverStarvesUnderTransferStorm) {
  // The qualitative heart of Figure 7: a long update transaction keeps
  // committing while transfer traffic hammers the accounts it reads.
  Config cfg;
  cfg.max_threads = 8;
  Runtime rt(cfg);
  constexpr int kAccounts = 48;
  std::vector<lsa::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(rt.make_var<long>(10));
  auto sink = rt.make_var<long>(0);

  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 3; ++t) {
    hammers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 41);
      while (!stop.load(std::memory_order_acquire)) {
        const auto from = rng.next_below(kAccounts);
        auto to = rng.next_below(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        rt.run_short(*th, [&](ShortTx& tx) {
          tx.write(accounts[from]) -= 1;
          tx.write(accounts[to]) += 1;
        });
      }
    });
  }

  auto th = rt.attach();
  std::uint64_t total_attempts = 0;
  for (int i = 0; i < 25; ++i) {
    total_attempts += rt.run_long(*th, [&](LongTx& tx) {
                          long total = 0;
                          for (auto& a : accounts) total += tx.read(a);
                          tx.write(sink, total);
                        }).attempts;
  }
  stop.store(true, std::memory_order_release);
  for (auto& h : hammers) h.join();

  EXPECT_EQ(rt.stats()[util::Counter::kLongCommits], 25u);
  // Liveness quality: long transactions should not need pathological retry
  // counts (LSA in this situation would essentially never commit).
  EXPECT_LT(total_attempts, 25u * 50u);
}

}  // namespace
}  // namespace zstm::zl
