// Failure injection: stalled owners, abandoned transactions, enemy-abort
// storms, and recovery of Z-STM zones after a long transaction dies.
//
// CTest label: `stress` — randomized multi-threaded rounds; run under TSan
// in CI (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/stm.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"

namespace zstm {
namespace {

TEST(FailureInjection, StalledOwnerIsKilled) {
  // A transaction acquires write ownership and stalls (simulating a
  // descheduled or crashed thread mid-transaction). The next writer kills
  // it — the system stays live.
  lsa::Runtime rt(lsa::Config{.max_threads = 8});
  auto x = rt.make_var<int>(0);

  auto staller = rt.attach();
  lsa::Tx& ts = staller->begin();
  ts.write(x, 99);  // owns x, never commits

  std::atomic<bool> done{false};
  std::thread worker([&] {
    auto th = rt.attach();
    rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, 1); });
    done.store(true, std::memory_order_release);
  });
  worker.join();
  EXPECT_TRUE(done.load());
  EXPECT_THROW(staller->commit(), lsa::TxAborted);  // victim learns its fate
  EXPECT_GE(rt.stats()[util::Counter::kCmKills], 1u);
}

TEST(FailureInjection, AbandonedContextReleasesOwnershipOnDestruction) {
  lsa::Runtime rt(lsa::Config{.max_threads = 8});
  auto x = rt.make_var<int>(0);
  {
    auto ctx = rt.attach();
    lsa::Tx& tx = ctx->begin();
    tx.write(x, 123);
  }  // destroyed mid-transaction: ownership must be released
  auto th = rt.attach();
  // If the locator were leaked in an active state, this would deadlock or
  // spuriously conflict forever.
  rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, 1); });
  int seen = 0;
  rt.run(*th, [&](lsa::Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 1);
}

TEST(FailureInjection, EnemyAbortStormPreservesCounts) {
  // A single hot object: maximal enemy-abort traffic must not lose or
  // duplicate increments.
  lsa::Runtime rt(lsa::Config{.max_threads = 8});
  auto x = rt.make_var<long>(0);
  constexpr int kThreads = 4;
  const int kIncrements = test_env::stress_rounds(2000);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto th = rt.attach();
      for (int i = 0; i < kIncrements; ++i) {
        rt.run(*th, [&](lsa::Tx& tx) { tx.write(x) += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();
  auto th = rt.attach();
  long final_value = 0;
  rt.run(*th, [&](lsa::Tx& tx) { final_value = tx.read(x); });
  EXPECT_EQ(final_value, kThreads * kIncrements);
}

TEST(FailureInjection, AbortedLongRetiresItsOwnZone) {
  // A long transaction stamps objects with its zone and then dies. Before
  // PR 8 the zone stayed "active" until the *next* long commit moved CT —
  // if no long ever came, shorts crossing the dead zone livelocked forever
  // (DESIGN.md §11.2). The abort path now retires the claimed zone itself
  // (CT <- max(CT, T.zc), the empty transaction committing in zone order).
  zl::Runtime rt;
  auto o1 = rt.make_var<int>(0);
  auto o2 = rt.make_var<int>(0);
  auto pl = rt.attach();
  auto ps = rt.attach();

  zl::LongTx& dead = pl->begin_long();  // zc = 1
  (void)dead.read(o1);                  // o1.zc = 1
  EXPECT_THROW(dead.abort(), zl::TxAborted);

  // The abort already moved CT past zone 1: a crossing short sees both
  // zones in the past and commits without waiting for any future long.
  EXPECT_EQ(rt.commit_time(), 1u);
  rt.run_short(*ps, [&](zl::ShortTx& tx) {
    (void)tx.read(o1);
    (void)tx.read(o2);
  });

  // A later long transaction still advances CT past the retired zone.
  rt.run_long(*pl, [&](zl::LongTx& tx) { (void)tx.read(o2); });
  EXPECT_EQ(rt.commit_time(), 2u);
}

TEST(FailureInjection, SstmSurvivesKilledReaders) {
  // Readers registered in visible-reader lists get enemy-killed mid-flight
  // by cycle resolution or CM; the lists must never dangle (descriptors are
  // runtime-retained) and the system must stay consistent.
  sstm::Runtime rt(sstm::Config{.max_threads = 16});
  auto x = rt.make_var<long>(0);
  auto y = rt.make_var<long>(0);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 911);
      for (int i = 0, n = test_env::stress_rounds(1000); i < n; ++i) {
        rt.run(*th, [&](sstm::Tx& tx) {
          if (rng.chance(0.5)) {
            tx.write(x) += tx.read(y);
          } else {
            tx.write(y) += 1;
          }
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  auto th = rt.attach();
  rt.run(*th, [&](sstm::Tx& tx) {
    EXPECT_GE(tx.read(y), 0L);
  });
}

TEST(FailureInjection, ZShortStormAroundAbortingLongs) {
  // Long transactions abort ~half the time mid-flight; shorts hammer the
  // same objects. Money must be conserved throughout.
  zl::Runtime rt{[] {
    zl::Config c;
    c.max_threads = 16;
    return c;
  }()};
  constexpr int kAccounts = 16;
  constexpr long kInitial = 20;
  std::vector<lsa::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(rt.make_var<long>(kInitial));

  // The long-runner must outlive every transfer thread: a short crossing a
  // dead (aborted) long's zone only unblocks when a later long commits.
  std::atomic<int> transfers_done{0};
  constexpr int kTransferThreads = 2;
  std::vector<std::thread> workers;
  for (int t = 0; t < kTransferThreads; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 71);
      for (int i = 0, n = test_env::stress_rounds(1200); i < n; ++i) {
        const auto from = rng.next_below(kAccounts);
        auto to = rng.next_below(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        rt.run_short(*th, [&](zl::ShortTx& tx) {
          tx.write(accounts[from]) -= 1;
          tx.write(accounts[to]) += 1;
        });
      }
      transfers_done.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  workers.emplace_back([&] {
    auto th = rt.attach();
    util::Xorshift rng(1234);
    while (transfers_done.load(std::memory_order_acquire) <
           kTransferThreads) {
      zl::LongTx& tl = th->begin_long();
      try {
        long sum = 0;
        const std::size_t n = rng.chance(0.5) ? kAccounts : kAccounts / 2;
        for (std::size_t i = 0; i < n; ++i) sum += tl.read(accounts[i]);
        if (rng.chance(0.5)) {
          tl.abort();  // die mid-flight, leaving a dead zone behind
        } else {
          th->commit_long();
        }
      } catch (const zl::TxAborted&) {
        // expected half the time
      }
    }
  });
  for (auto& w : workers) w.join();

  auto th = rt.attach();
  long total = 0;
  rt.run_long(*th, [&](zl::LongTx& tx) {
    total = 0;
    for (auto& a : accounts) total += tx.read(a);
  });
  EXPECT_EQ(total, kAccounts * kInitial);
}

}  // namespace
}  // namespace zstm
