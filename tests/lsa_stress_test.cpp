// Multi-threaded stress tests for LSA-STM: invariant preservation, torn-
// snapshot hunting, and machine-checked strict serializability of recorded
// histories, swept over thread counts, time bases and version depths.
//
// CTest label: `stress` — randomized multi-threaded rounds; run under TSan
// in CI (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "history/checkers.hpp"
#include "lsa/lsa.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"

namespace zstm::lsa {
namespace {

struct StressParam {
  int threads;
  timebase::TimeBaseKind time_base;
  int versions_kept;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const StressParam& p) {
  return os << p.label;
}

class LsaStress : public ::testing::TestWithParam<StressParam> {
 protected:
  Config make_config() const {
    const StressParam& p = GetParam();
    Config cfg;
    cfg.max_threads = 16;
    cfg.time_base = p.time_base;
    cfg.clock_deviation = std::chrono::nanoseconds(500);
    cfg.versions_kept = p.versions_kept;
    return cfg;
  }
};

TEST_P(LsaStress, BankInvariantHolds) {
  constexpr int kAccounts = 32;
  constexpr long kInitial = 100;
  const int kTransfersPerThread = test_env::stress_rounds(2000);

  Runtime rt(make_config());
  std::vector<Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.push_back(rt.make_var<long>(kInitial));

  std::vector<std::thread> workers;
  for (int t = 0; t < GetParam().threads; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const auto from = rng.next_below(kAccounts);
        auto to = rng.next_below(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        rt.run(*th, [&](Tx& tx) {
          const long amount = 1 + static_cast<long>(rng.next_below(5));
          tx.write(accounts[from]) -= amount;
          tx.write(accounts[to]) += amount;
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  auto th = rt.attach();
  long total = 0;
  rt.run(*th, [&](Tx& tx) {
    total = 0;
    for (auto& a : accounts) total += tx.read(a);
  });
  EXPECT_EQ(total, kAccounts * kInitial);
  EXPECT_EQ(rt.stats()[util::Counter::kCommits],
            static_cast<std::uint64_t>(GetParam().threads) *
                    kTransfersPerThread +
                1);
}

TEST_P(LsaStress, ReadersNeverSeeTornSnapshots) {
  // Writers keep x + y == 0; readers (tracked and untracked read-only)
  // must never observe a violation.
  Runtime rt(make_config());
  auto x = rt.make_var<long>(0);
  auto y = rt.make_var<long>(0);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};

  std::vector<std::thread> workers;
  const int writer_count = std::max(1, GetParam().threads - 1);
  for (int t = 0; t < writer_count; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 77);
      for (int i = 0, n = test_env::stress_rounds(3000); i < n; ++i) {
        rt.run(*th, [&](Tx& tx) {
          const long delta = 1 + static_cast<long>(rng.next_below(9));
          tx.write(x) += delta;
          tx.write(y) -= delta;
        });
      }
      stop.store(true, std::memory_order_release);
    });
  }
  workers.emplace_back([&] {
    auto th = rt.attach();
    bool declared_ro = false;
    while (!stop.load(std::memory_order_acquire)) {
      declared_ro = !declared_ro;
      rt.run(
          *th,
          [&](Tx& tx) {
            const long sum = tx.read(x) + tx.read(y);
            if (sum != 0) violations.fetch_add(1);
          },
          declared_ro);
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST_P(LsaStress, RecordedHistoryIsStrictlySerializable) {
  Config cfg = make_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  constexpr int kObjects = 8;
  // Unsigned: the checksum below grows without bound and must wrap.
  std::vector<Var<std::uint64_t>> vars;
  for (int i = 0; i < kObjects; ++i) {
    vars.push_back(rt.make_var<std::uint64_t>(0));
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < GetParam().threads; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 31);
      for (int i = 0, n = test_env::stress_rounds(800); i < n; ++i) {
        if (rng.chance(0.3)) {
          rt.run(*th, [&](Tx& tx) {  // read-only scan of three objects
            std::uint64_t sink = 0;
            for (int k = 0; k < 3; ++k) {
              sink += tx.read(vars[rng.next_below(kObjects)]);
            }
            (void)sink;
          });
        } else {
          const auto a = rng.next_below(kObjects);
          auto b = rng.next_below(kObjects);
          if (b == a) b = (b + 1) % kObjects;
          rt.run(*th, [&](Tx& tx) {
            const std::uint64_t v = tx.read(vars[a]);
            tx.write(vars[b]) += v + 1;
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
  if (GetParam().time_base == timebase::TimeBaseKind::kCounter) {
    // Full strictness needs a linearizable time base (§2); with skewed
    // clocks the guarantee weakens to serializability + program order.
    auto strict = history::check_strictly_serializable(h);
    EXPECT_TRUE(strict) << strict.reason;
  } else {
    auto po = history::check_serializable_with_program_order(h);
    EXPECT_TRUE(po) << po.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LsaStress,
    ::testing::Values(
        StressParam{2, timebase::TimeBaseKind::kCounter, 8, "t2_counter_k8"},
        StressParam{4, timebase::TimeBaseKind::kCounter, 8, "t4_counter_k8"},
        StressParam{4, timebase::TimeBaseKind::kCounter, 1, "t4_counter_k1"},
        StressParam{4, timebase::TimeBaseKind::kSyncClock, 8,
                    "t4_syncclock_k8"},
        StressParam{8, timebase::TimeBaseKind::kSyncClock, 4,
                    "t8_syncclock_k4"}),
    [](const ::testing::TestParamInfo<StressParam>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace zstm::lsa
