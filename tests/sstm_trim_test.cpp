// S-STM descriptor trim (DESIGN.md §11.5): Runtime::trim_descriptors()
// must free every slot's finished descriptors at quiescence, refuse to run
// while an attempt is live, and preserve serializability by folding reader
// constraints into per-version stamps; begin must wait out a trim that
// holds the trim gate, and run the same trim once kTrimWatermark
// descriptors are retained, so retention stays bounded with no call from
// the user.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "fault/failpoint.hpp"
#include "history/checkers.hpp"
#include "sstm/sstm.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"

namespace zstm::sstm {
namespace {

Config quiet_config() {
  Config cfg;
  cfg.max_threads = 8;
  return cfg;
}

TEST(SstmTrim, QuiescentTrimFreesAllDescriptors) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  for (int i = 0; i < 100; ++i) {
    rt.run(*th, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  EXPECT_EQ(rt.descriptor_count(), 100u);
  EXPECT_EQ(rt.trim_descriptors(), 100u);
  EXPECT_EQ(rt.descriptor_count(), 0u);
  // The runtime keeps working after a trim, and folded stamps keep the
  // post-trim transactions ordered after everything trimmed away.
  rt.run(*th, [&](Tx& tx) { EXPECT_EQ(tx.read(x), 100); });
  EXPECT_EQ(rt.descriptor_count(), 1u);
}

TEST(SstmTrim, TrimFreesEverySlotsDescriptors) {
  // Each slot retains its descriptors on its own list; one trim takes
  // them all. Every thread holds its context until all are attached, so
  // the four use four slots. They write disjoint variables, so no attempt
  // aborts and each registers exactly one descriptor per commit.
  constexpr int kThreads = 4;
  constexpr int kTxPerThread = 100;
  Runtime rt(quiet_config());
  std::vector<Var<int>> vars;
  for (int t = 0; t < kThreads; ++t) vars.push_back(rt.make_var<int>(0));
  std::atomic<int> attached{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto th = rt.attach();
      attached.fetch_add(1);
      while (attached.load() < kThreads) std::this_thread::yield();
      auto& v = vars[static_cast<std::size_t>(t)];
      for (int i = 0; i < kTxPerThread; ++i) {
        rt.run(*th, [&](Tx& tx) { tx.write(v, tx.read(v) + 1); });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rt.trim_descriptors(),
            static_cast<std::size_t>(kThreads * kTxPerThread));
  EXPECT_EQ(rt.descriptor_count(), 0u);
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) {
    for (auto& v : vars) EXPECT_EQ(tx.read(v), kTxPerThread);
  });
}

TEST(SstmTrim, BeginWaitsOutATrim) {
  // A begin that arrives while a trim holds the gate returns only after
  // the trim, so its descriptor is not among those the trim frees. The
  // sstm.trim hook runs inside the fold: it starts a thread that begins on
  // its own context and checks, after a bounded wait, that the begin has
  // not returned.
  using namespace std::chrono_literals;
  fault::registry().disarm_all();
  Runtime rt(quiet_config());
  auto x = rt.make_var<long>(0);
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) { tx.write(x, 1L); });

  std::atomic<bool> begun{false};
  bool begun_during_fold = true;
  std::thread beginner;
  fault::registry().arm_hook(fault::Site::kSstmTrim, [&] {
    beginner = std::thread([&] {
      auto ctx = rt.attach();
      Tx& tx = ctx->begin();
      begun.store(true);
      tx.write(x, tx.read(x) + 1);
      ctx->commit();
    });
    std::this_thread::sleep_for(50ms);
    begun_during_fold = begun.load();
  });
  EXPECT_EQ(rt.trim_descriptors(), 1u);
  fault::registry().disarm_all();
  ASSERT_TRUE(beginner.joinable());
  beginner.join();
  EXPECT_FALSE(begun_during_fold);
  EXPECT_TRUE(begun.load());
  EXPECT_EQ(rt.descriptor_count(), 1u);
  rt.run(*th, [&](Tx& tx) { EXPECT_EQ(tx.read(x), 2L); });
}

TEST(SstmTrim, TrimRefusesWhileAttemptIsLive) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  Tx& tx = th->begin();
  tx.write(x, 7);
  EXPECT_EQ(rt.trim_descriptors(), 0u);  // live attempt: safe no-op
  EXPECT_EQ(rt.descriptor_count(), 1u);
  th->commit();
  EXPECT_EQ(rt.trim_descriptors(), 1u);
}

TEST(SstmTrim, ChurnLoopStaysBounded) {
  // The leak regression proper: with periodic trims, the live descriptor
  // count stays bounded by the churn between trims instead of growing
  // linearly with the total transaction count.
  Runtime rt(quiet_config());
  auto x = rt.make_var<long>(0);
  constexpr int kRounds = 50;
  constexpr int kTxPerRound = 64;
  std::size_t max_live = 0;
  for (int round = 0; round < kRounds; ++round) {
    auto th = rt.attach();  // attach/detach churn alongside tx churn
    for (int i = 0; i < kTxPerRound; ++i) {
      rt.run(*th, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
    }
    th.reset();
    const std::size_t live = rt.descriptor_count();
    max_live = std::max(max_live, live);
    EXPECT_EQ(rt.trim_descriptors(), live);
    EXPECT_EQ(rt.descriptor_count(), 0u);
  }
  EXPECT_LE(max_live, static_cast<std::size_t>(kTxPerRound));
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) {
    EXPECT_EQ(tx.read(x), static_cast<long>(kRounds) * kTxPerRound);
  });
}

struct Retention {
  std::size_t high_water = 0;  // largest descriptor_count() sampled
  int trims_seen = 0;          // most falls of the count one worker saw
};

template <typename T>
void raise_to(std::atomic<T>& a, T v) {
  T cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Workers run `op` on `stm` until `done(commits, trims_seen)` holds, each
/// sampling descriptor_count() after every op. Only a trim lowers the
/// count, and no one here calls trim_descriptors, so every fall a worker
/// sees is a distinct begin-triggered trim.
template <typename Op, typename Done>
Retention run_sampled(api::SStm& stm, int threads, Op op, Done done) {
  std::atomic<long> commits{0};
  std::atomic<std::size_t> high_water{0};
  std::atomic<int> trims_seen{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      util::Xorshift rng(0x5eedULL + static_cast<std::uint64_t>(t));
      std::size_t last = 0;
      int falls = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        op(rng);
        const long n_commits = commits.fetch_add(1) + 1;
        const std::size_t n = stm.runtime().descriptor_count();
        raise_to(high_water, n);
        if (n < last) raise_to(trims_seen, ++falls);
        last = n;
        if (done(n_commits, trims_seen.load())) stop.store(true);
      }
    });
  }
  for (auto& w : workers) w.join();
  return {high_water.load(), trims_seen.load()};
}

constexpr std::size_t kWatermark = Runtime::kTrimWatermark;

TEST(SstmTrim, BeginTrimsAtTheWatermark) {
  // No caller ever trims: begin does once kTrimWatermark descriptors are
  // retained, so one thread's count never exceeds the watermark.
  api::SStm stm;
  auto x = stm.make_var<long>(0);
  std::size_t high_water = 0;
  int trims_seen = 0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < 3 * kWatermark; ++i) {
    stm.run(api::TxKind::kUpdate,
            [&](auto& tx) { tx.write(x, tx.read(x) + 1); });
    const std::size_t n = stm.runtime().descriptor_count();
    high_water = std::max(high_water, n);
    if (n < last) ++trims_seen;
    last = n;
  }
  EXPECT_LE(high_water, kWatermark);
  EXPECT_EQ(trims_seen, 2);
  stm.run(api::TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(x), static_cast<long>(3 * kWatermark));
  });
}

TEST(SstmTrim, ConcurrentTransfersKeepRetentionBounded) {
  // Four threads transfer for eight watermarks' worth of commits. Each
  // begin-triggered drain waits a bounded time for the attempts in flight;
  // one that times out (a preempted worker on a loaded host) is retried a
  // watermark later, so the bound allows four misses in a row.
  constexpr int kThreads = 4;
  constexpr int kAccounts = 8;
  constexpr long kInitial = 1000;
  api::CommonConfig cfg;
  cfg.max_threads = kThreads + 2;
  api::SStm stm(cfg);
  std::vector<api::SStm::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(stm.make_var(kInitial));

  const Retention r = run_sampled(
      stm, kThreads,
      [&](util::Xorshift& rng) {
        const std::size_t a = rng.next_below(kAccounts);
        const std::size_t b = (a + 1 + rng.next_below(kAccounts - 1)) % kAccounts;
        stm.run(api::TxKind::kUpdate, [&](auto& tx) {
          tx.write(accounts[a]) -= 1;
          tx.write(accounts[b]) += 1;
        });
      },
      [](long commits, int) {
        return commits >= static_cast<long>(8 * kWatermark);
      });
  EXPECT_LE(r.high_water, 5 * kWatermark + kThreads);
  EXPECT_GE(r.trims_seen, 1);
  long total = 0;
  stm.run(api::TxKind::kReadOnly, [&](auto& tx) {
    total = 0;
    for (auto& acc : accounts) total += tx.read(acc);
  });
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(SstmTrim, BeginTriggeredTrimsPreserveSerializability) {
  // The history battery's transfer and write-skew ops, recorded, with at
  // least two begin-triggered trims landing while the workers run: the
  // folded stamps must carry every trimmed reader's constraint.
  constexpr int kThreads = 4;
  constexpr int kAccounts = 6;
  api::CommonConfig cfg;
  cfg.max_threads = kThreads + 2;
  cfg.record_history = true;
  api::SStm stm(cfg);
  std::vector<api::SStm::Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(stm.make_var(50L));

  const Retention r = run_sampled(
      stm, kThreads,
      [&](util::Xorshift& rng) {
        const std::size_t a = rng.next_below(kAccounts);
        const std::size_t b = (a + 1 + rng.next_below(kAccounts - 1)) % kAccounts;
        if (rng.next_below(2) == 0) {
          stm.run(api::TxKind::kUpdate, [&](auto& tx) {
            tx.write(accounts[a]) -= 1;
            tx.write(accounts[b]) += 1;
          });
          return;
        }
        // Write skew over two hot accounts (history_conformance_test).
        const std::size_t rd = rng.next_below(2);
        stm.run(api::TxKind::kUpdate, [&](auto& tx) {
          const long seen = tx.read(accounts[rd]);
          tx.write(accounts[1 - rd]) += (seen & 1);
          std::this_thread::yield();
        });
      },
      [](long commits, int trims_seen) {
        return (commits >= static_cast<long>(4 * kWatermark) &&
                trims_seen >= 2) ||
               commits >= static_cast<long>(16 * kWatermark);
      });
  EXPECT_GE(r.trims_seen, 2);

  const history::History h = stm.runtime().collect_history();
  const history::CheckResult res = history::check_serializable(h);
  EXPECT_TRUE(res.ok) << res.reason;
}

TEST(SstmTrim, TrimFromAnotherThreadWhileAWorkerCommits) {
  // Any thread may trim while another commits. The worker commits in a
  // loop with the settle CAS failing half the time; its release retries
  // until its own locators are settled, so a trim that finds the runtime
  // quiescent finds no locator naming a writer (the trim asserts it).
  // ThreadSanitizer flags any unordered use of the reader lists the trim
  // folds.
  fault::registry().disarm_all();
  ASSERT_TRUE(fault::registry().arm(fault::Site::kStoreSettleCas, 0.5, 0,
                                    fault::Effect::kCasFail));
  Runtime rt(quiet_config());
  constexpr int kVars = 4;
  std::vector<Var<long>> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(rt.make_var<long>(0));

  std::atomic<bool> attached{false};
  std::atomic<bool> stop{false};
  long commits = 0;
  std::thread worker([&] {
    auto th = rt.attach();
    attached.store(true);
    while (!stop.load()) {
      auto& v = vars[static_cast<std::size_t>(commits % kVars)];
      rt.run(*th, [&](Tx& tx) { tx.write(v, tx.read(v) + 1); });
      ++commits;
    }
  });
  while (!attached.load()) std::this_thread::yield();
  const int rounds = test_env::stress_rounds(2000);
  for (int i = 0; i < rounds; ++i) rt.trim_descriptors();
  stop.store(true);
  worker.join();
  fault::registry().disarm_all();

  rt.trim_descriptors();  // quiescent now
  EXPECT_EQ(rt.descriptor_count(), 0u);
  auto th = rt.attach();
  long total = 0;
  rt.run(*th, [&](Tx& tx) {
    total = 0;
    for (auto& v : vars) total += tx.read(v);
  });
  EXPECT_EQ(total, commits);
}

TEST(SstmTrim, FoldedStampsPreserveSerializability) {
  // Concurrent history with trims interleaved at quiescent points between
  // rounds; the offline checker must still certify serializability — the
  // folded stamps must carry every committed reader's constraint.
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  constexpr int kVars = 6;
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  constexpr int kTxPerThread = 40;
  std::vector<Var<int>> vars;
  vars.reserve(kVars);
  for (int i = 0; i < kVars; ++i) vars.push_back(rt.make_var<int>(0));

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, round] {
        util::Xorshift rng(0x7157ead5ULL + round * 131 + t);
        auto th = rt.attach();
        for (int i = 0; i < kTxPerThread; ++i) {
          rt.run(*th, [&](Tx& tx) {
            auto& a = vars[rng.next_below(kVars)];
            auto& b = vars[rng.next_below(kVars)];
            const int sum = tx.read(a) + tx.read(b);
            if (rng.next_below(2) == 0) tx.write(vars[rng.next_below(kVars)], sum);
          });
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_GT(rt.trim_descriptors(), 0u);  // quiescent between rounds
  }

  const history::History h = rt.collect_history();
  const history::CheckResult res = history::check_serializable(h);
  EXPECT_TRUE(res.ok) << res.reason;
}

}  // namespace
}  // namespace zstm::sstm
