// Adversarial round tests: many short, randomized multi-threaded rounds,
// each machine-checked against its STM's consistency criterion. These are
// the harnesses that found the concurrency bugs catalogued in DESIGN.md §5
// (zone-claim windows, reader-list compaction, transitive constraint
// absorption) — kept in the suite to guard the fixes.
//
// CTest label: `stress` — randomized multi-threaded rounds; run under TSan
// in CI (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/stm.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"

namespace zstm {
namespace {

TEST(Adversarial, SstmRoundsStaySerializable) {
  const int kSstmRounds = test_env::stress_rounds(30);
  for (int round = 0; round < kSstmRounds; ++round) {
    sstm::Config cfg;
    cfg.max_threads = 16;
    cfg.record_history = true;
    sstm::Runtime rt(cfg);
    constexpr int kObjects = 6;
    // Unsigned: the checksum below grows without bound and must wrap.
    std::vector<sstm::Var<std::uint64_t>> vars;
    for (int i = 0; i < kObjects; ++i) {
      vars.push_back(rt.make_var<std::uint64_t>(0));
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        auto th = rt.attach();
        util::Xorshift rng(static_cast<std::uint64_t>(t) + round * 131 + 7);
        for (int i = 0; i < 250; ++i) {
          const auto a = rng.next_below(kObjects);
          auto b = rng.next_below(kObjects);
          if (b == a) b = (b + 1) % kObjects;
          if (rng.chance(0.35)) {
            rt.run(*th, [&](sstm::Tx& tx) {
              (void)tx.read(vars[a]);
              (void)tx.read(vars[b]);
            });
          } else {
            rt.run(*th, [&](sstm::Tx& tx) {
              tx.write(vars[b]) += tx.read(vars[a]) + 1;
            });
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    auto res = history::check_serializable(rt.collect_history());
    ASSERT_TRUE(res) << "round " << round << ": " << res.reason;
  }
}

TEST(Adversarial, ZStmRoundsStayZLinearizable) {
  const int kZRounds = test_env::stress_rounds(25);
  for (int round = 0; round < kZRounds; ++round) {
    zl::Config cfg;
    cfg.record_history = true;
    zl::Runtime rt(cfg);
    constexpr int kProducts = 8;
    std::vector<lsa::Var<long>> products;
    for (int i = 0; i < kProducts; ++i) products.push_back(rt.make_var<long>(100));
    auto sink = rt.make_var<long>(0);

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back([&, t] {
        auto th = rt.attach();
        util::Xorshift rng(static_cast<std::uint64_t>(t) + round * 91);
        while (!stop.load(std::memory_order_acquire)) {
          const std::size_t p = rng.next_below(kProducts);
          rt.run_short(*th, [&](zl::ShortTx& tx) {
            long& v = tx.write(products[p]);
            v = v >= 3 ? v - 3 : v + 50;
          });
        }
      });
    }
    auto th = rt.attach();
    for (int i = 0; i < 25; ++i) {
      rt.run_long(*th, [&](zl::LongTx& tx) {
        long total = 0;
        for (auto& p : products) total += tx.read(p);
        tx.write(sink, total);
      });
    }
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();

    auto res = history::check_z_linearizable(rt.collect_history());
    ASSERT_TRUE(res) << "round " << round << ": " << res.reason;
  }
}

TEST(Adversarial, LsaRoundsStayStrictlySerializable) {
  const int kLsaRounds = test_env::stress_rounds(25);
  for (int round = 0; round < kLsaRounds; ++round) {
    lsa::Config cfg;
    cfg.max_threads = 16;
    cfg.record_history = true;
    // Alternate rounds exercise the synchronized-clock time base with a
    // sizeable deviation — the spurious-abort-prone configuration.
    if (round % 2 == 1) {
      cfg.time_base = timebase::TimeBaseKind::kSyncClock;
      cfg.clock_deviation = std::chrono::nanoseconds(2000);
      cfg.seed = static_cast<std::uint64_t>(round);
    }
    lsa::Runtime rt(cfg);
    constexpr int kObjects = 6;
    std::vector<lsa::Var<std::uint64_t>> vars;
    for (int i = 0; i < kObjects; ++i) {
      vars.push_back(rt.make_var<std::uint64_t>(0));
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        auto th = rt.attach();
        util::Xorshift rng(static_cast<std::uint64_t>(t) + round * 17 + 3);
        for (int i = 0; i < 250; ++i) {
          const auto a = rng.next_below(kObjects);
          auto b = rng.next_below(kObjects);
          if (b == a) b = (b + 1) % kObjects;
          if (rng.chance(0.3)) {
            rt.run(
                *th,
                [&](lsa::Tx& tx) {
                  (void)tx.read(vars[a]);
                  (void)tx.read(vars[b]);
                },
                /*read_only=*/rng.chance(0.5));
          } else {
            rt.run(*th, [&](lsa::Tx& tx) {
              tx.write(vars[b]) += tx.read(vars[a]) + 1;
            });
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const auto h = rt.collect_history();
    if (round % 2 == 0) {
      // Linearizable counter time base: full strict serializability.
      auto res = history::check_strictly_serializable(h);
      ASSERT_TRUE(res) << "round " << round << ": " << res.reason;
    } else {
      // Skewed clocks are not a linearizable time base (§2): snapshots may
      // anchor up to the deviation in the past of other threads' commits.
      // The guarantee is serializability + per-thread program order.
      auto res = history::check_serializable_with_program_order(h);
      ASSERT_TRUE(res) << "round " << round << ": " << res.reason;
    }
  }
}

TEST(Adversarial, CsRoundsSatisfyCausalConditions) {
  const int kCsRounds = test_env::stress_rounds(20);
  for (int round = 0; round < kCsRounds; ++round) {
    cs::Config cfg;
    cfg.max_threads = 16;
    cfg.record_history = true;
    cfg.plausible_entries = 1 + round % 4;
    cs::Runtime rt(cfg);
    constexpr int kObjects = 6;
    std::vector<cs::Var<std::uint64_t>> vars;
    for (int i = 0; i < kObjects; ++i) {
      vars.push_back(rt.make_var<std::uint64_t>(0));
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        auto th = rt.attach();
        util::Xorshift rng(static_cast<std::uint64_t>(t) + round * 53 + 11);
        for (int i = 0; i < 250; ++i) {
          const auto a = rng.next_below(kObjects);
          auto b = rng.next_below(kObjects);
          if (b == a) b = (b + 1) % kObjects;
          rt.run(*th, [&](cs::Tx& tx) {
            if (rng.chance(0.4)) {
              (void)tx.read(vars[a]);
              (void)tx.read(vars[b]);
            } else {
              tx.write(vars[b]) += tx.read(vars[a]) + 1;
            }
          });
        }
      });
    }
    for (auto& w : workers) w.join();
    auto res = history::check_causal_conditions(rt.collect_history());
    ASSERT_TRUE(res) << "round " << round << " (r=" << 1 + round % 4
                     << "): " << res.reason;
  }
}

}  // namespace
}  // namespace zstm
