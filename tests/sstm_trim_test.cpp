// S-STM descriptor trim (the carried-over retained-descriptor leak):
// Runtime::trim_descriptors() must free every finished descriptor at
// quiescence, refuse to run while an attempt is live, and preserve
// serializability by folding reader constraints into per-version stamps.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
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

TEST(SstmTrim, FacadeMaintainTrims) {
  // api::Stm::maintain() is the façade spelling of trim_descriptors():
  // reclaimed/retained must mirror the raw counters, and on a runtime with
  // nothing to trim it reports an empty result.
  api::SStm stm;
  auto x = stm.make_var<int>(0);
  for (int i = 0; i < 50; ++i) {
    stm.run(api::TxKind::kUpdate, [&](auto& tx) { tx.write(x, i); });
  }
  EXPECT_EQ(stm.runtime().descriptor_count(), 50u);
  const api::MaintainResult r = stm.maintain();
  EXPECT_EQ(r.reclaimed, 50u);
  EXPECT_EQ(r.retained, 0u);

  api::LsaStm lsa;
  const api::MaintainResult empty = lsa.maintain();
  EXPECT_EQ(empty.reclaimed, 0u);
  EXPECT_EQ(empty.retained, 0u);
}

TEST(SstmTrim, MaintainEveryNCommitsKeepsCountBounded) {
  // The automatic fallback trigger (CommonConfig::maintain_every): a long
  // single-threaded run must never accumulate more than one trigger
  // period's worth of descriptors, with no maintain() call ever made by
  // the test — descriptor_count() is a read-only gauge.
  api::CommonConfig cfg;
  cfg.maintain_every = 32;
  api::SStm stm(cfg);
  auto x = stm.make_var<long>(0);
  std::size_t high_water = 0;
  for (int i = 0; i < 500; ++i) {
    stm.run(api::TxKind::kUpdate,
            [&](auto& tx) { tx.write(x, tx.read(x) + 1); });
    high_water = std::max(high_water, stm.runtime().descriptor_count());
  }
  EXPECT_LE(high_water, 32u);
  // Without the trigger the same loop retains every descriptor.
  api::SStm bare;
  auto y = bare.make_var<long>(0);
  for (int i = 0; i < 100; ++i) {
    bare.run(api::TxKind::kUpdate,
             [&](auto& tx) { tx.write(y, tx.read(y) + 1); });
  }
  EXPECT_EQ(bare.runtime().descriptor_count(), 100u);
  stm.run(api::TxKind::kReadOnly,
          [&](auto& tx) { EXPECT_EQ(tx.read(x), 500); });
}

TEST(SstmTrim, DetachingThreadsTrimPastWatermark) {
  // A façade user that never calls maintain(): threads that commit more
  // than a watermark's worth of transactions and then exit leave nothing
  // retained, because the last detach finds the runtime quiescent.
  api::SStm stm;
  auto x = stm.make_var<long>(0);
  constexpr int kThreads = 4;
  const int per_thread =
      static_cast<int>(Runtime::kDetachTrimWatermark) / kThreads + 64;
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) {
        stm.run(api::TxKind::kUpdate,
                [&](auto& tx) { tx.write(x, tx.read(x) + 1); });
      }
      // Nobody detaches before every commit is in: the trim must not find
      // a sibling mid-attempt.
      finished.fetch_add(1);
      while (finished.load() < kThreads) std::this_thread::yield();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(stm.runtime().descriptor_count(), 0u);
  stm.run(api::TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(x), static_cast<long>(kThreads) * per_thread);
  });
}

TEST(SstmTrim, TrimFromAnotherThreadSettlesOnItsOwnSlot) {
  // Any thread may trim — KvService's housekeeper does while its worker 0
  // owns slot 0. The trim's defensive settle retires into an EBR list and
  // may collect into a pool free list, both owner-only, so it must run on a
  // slot the trimming thread owns, never on the worker's. The worker
  // attaches first (slot 0 on a one-cache-group host) and commits in a
  // loop with the settle CAS failing half the time; this thread trims
  // throughout. ThreadSanitizer flags any unordered use of one slot's
  // lists from both threads.
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
