// Exception safety of the transaction retry loops: a foreign (non-retry)
// exception escaping a transaction body must abort the attempt and release
// every ownership it holds — locators, stripe redo buffers, zone claims,
// epoch pins — before propagating. A leaked ownership would deadlock or
// livelock every later writer of the object, so each battery round proves
// the runtime still commits promptly after the throw.
//
// Covers both layers that own a retry loop: the raw Runtime::run loops of
// all five native runtimes (plus Z-STM's two transaction classes) and the
// zstm::api façade attempt path, TYPED_TEST'd across the variants with
// throws at randomized operation points.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "cs/cs.hpp"
#include "lsa/lsa.hpp"
#include "sstm/sstm.hpp"
#include "tl2/tl2.hpp"
#include "util/rng.hpp"
#include "variants.hpp"
#include "zstm/auto_class.hpp"
#include "zstm/zstm.hpp"

namespace zstm {
namespace {

using api::CommonConfig;
using api::TxKind;

/// The foreign exception: deliberately unrelated to any runtime's abort
/// token so only the catch(...) unwind path can handle it.
struct Boom {};

// --- façade battery ---------------------------------------------------------

template <typename S>
class ApiExceptionSafety : public ::testing::Test {
 public:
  static CommonConfig config() {
    CommonConfig cfg;
    cfg.max_threads = 8;
    return cfg;
  }
};

TYPED_TEST_SUITE(ApiExceptionSafety, test_env::Variants);

TYPED_TEST(ApiExceptionSafety, ThrowAtRandomPointReleasesOwnership) {
  TypeParam stm(this->config());
  auto x = stm.make_var(0L);
  auto y = stm.make_var(0L);

  util::Xorshift rng(0xb00f1a6ULL);
  long expected = 0;
  constexpr TxKind kKinds[] = {TxKind::kUpdate, TxKind::kLongUpdate};
  for (int trial = 0; trial < 60; ++trial) {
    const TxKind kind = kKinds[rng.next_below(2)];
    // Throw after 0..3 of the 4 ops: exercises unwind with no state, with
    // reads only, with one locator/redo held, and with both held.
    const std::uint64_t boom_at = rng.next_below(4);
    EXPECT_THROW(stm.run(kind,
                         [&](auto& tx) {
                           std::uint64_t op = 0;
                           if (op++ == boom_at) throw Boom{};
                           (void)tx.read(x);
                           if (op++ == boom_at) throw Boom{};
                           tx.write(x) += 1;
                           if (op++ == boom_at) throw Boom{};
                           tx.write(y) += 1;
                           throw Boom{};
                         }),
                 Boom);
    // The aborted attempt's writes must be invisible, and the runtime must
    // still commit promptly — a leaked locator/stripe would starve this.
    api::RunResult r = stm.run(
        TxKind::kUpdate,
        [&](auto& tx) {
          tx.write(x) += 1;
          tx.write(y) += 1;
        },
        /*max_attempts=*/10000);
    ASSERT_TRUE(r.committed);
    ++expected;
    stm.run(TxKind::kReadOnly, [&](auto& tx) {
      EXPECT_EQ(tx.read(x), expected);
      EXPECT_EQ(tx.read(y), expected);
    });
  }
}

TYPED_TEST(ApiExceptionSafety, ConcurrentThrowersDontWedgeTheRuntime) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  TypeParam stm(this->config());
  auto counter = stm.make_var(0L);

  std::atomic<long> committed{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      util::Xorshift rng(0xdeadULL + t);
      for (int i = 0; i < kRounds; ++i) {
        const bool blow_up = rng.next_below(3) == 0;
        try {
          stm.run(TxKind::kUpdate, [&](auto& tx) {
            tx.write(counter) += 1;
            if (blow_up) throw Boom{};
          });
          committed.fetch_add(1, std::memory_order_relaxed);
        } catch (const Boom&) {
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(counter), committed.load());
  });
}

// --- raw runtime loops ------------------------------------------------------
//
// The native run loops reach runtime::attempt through their own begin, so
// each one's unwind is exercised separately: throw with one locator (or
// redo buffer) held, then prove a plain transaction still commits and sees
// the old value.

template <typename Rt, typename Ctx, typename RunFn>
void raw_round_trip(Rt& rt, Ctx& ctx, RunFn&& run) {
  auto x = rt.template make_var<long>(5);
  EXPECT_THROW(run(ctx,
                   [&](auto& tx) {
                     tx.write(x, tx.read(x) + 100);
                     throw Boom{};
                   }),
               Boom);
  run(ctx, [&](auto& tx) {
    EXPECT_EQ(tx.read(x), 5);
    tx.write(x, 6L);
  });
  run(ctx, [&](auto& tx) { EXPECT_EQ(tx.read(x), 6); });
}

TEST(RawExceptionSafety, Lsa) {
  lsa::Runtime rt(lsa::Config{.max_threads = 4});
  auto th = rt.attach();
  raw_round_trip(rt, *th, [&](auto& ctx, auto&& body) {
    return rt.run(ctx, std::forward<decltype(body)>(body));
  });
}

TEST(RawExceptionSafety, Cs) {
  cs::Config cfg;
  cfg.max_threads = 4;
  cs::Runtime rt(cfg);
  auto th = rt.attach();
  raw_round_trip(rt, *th, [&](auto& ctx, auto&& body) {
    return rt.run(ctx, std::forward<decltype(body)>(body));
  });
}

TEST(RawExceptionSafety, Sstm) {
  sstm::Config cfg;
  cfg.max_threads = 4;
  sstm::Runtime rt(cfg);
  auto th = rt.attach();
  raw_round_trip(rt, *th, [&](auto& ctx, auto&& body) {
    return rt.run(ctx, std::forward<decltype(body)>(body));
  });
  // The thrown attempt's descriptor reached a final status (aborted), so a
  // quiescent trim can reclaim it — proves the unwind didn't strand an
  // active descriptor either.
  th.reset();
  EXPECT_EQ(rt.trim_descriptors(), 3u);
}

TEST(RawExceptionSafety, ZlShort) {
  zl::Runtime rt(zl::Config{.max_threads = 4});
  auto th = rt.attach();
  raw_round_trip(rt, *th, [&](auto& ctx, auto&& body) {
    return rt.run_short(ctx, std::forward<decltype(body)>(body));
  });
}

TEST(RawExceptionSafety, ZlLong) {
  zl::Runtime rt(zl::Config{.max_threads = 4});
  auto th = rt.attach();
  raw_round_trip(rt, *th, [&](auto& ctx, auto&& body) {
    return rt.run_long(ctx, std::forward<decltype(body)>(body));
  });
}

TEST(RawExceptionSafety, ZlLongThenShortCrossClass) {
  // A long transaction dies mid-flight with a zone claimed and a locator
  // installed; short transactions must still get through the zone.
  zl::Runtime rt(zl::Config{.max_threads = 4});
  auto th = rt.attach();
  auto x = rt.make_var<long>(1);
  EXPECT_THROW(rt.run_long(*th,
                           [&](zl::LongTx& tx) {
                             tx.write(x, 2L);
                             throw Boom{};
                           }),
               Boom);
  rt.run_short(*th, [&](zl::ShortTx& tx) {
    EXPECT_EQ(tx.read(x), 1);
    tx.write(x, 3L);
  });
  rt.run_short(*th, [&](zl::ShortTx& tx) { EXPECT_EQ(tx.read(x), 3); });
}

TEST(RawExceptionSafety, ZlDeadLongRetiresItsZone) {
  // Regression: a long transaction that dies after claiming a zone must
  // retire it (CT bump in abort_long_attempt). A short transaction that
  // first opens an *unclaimed* object (adopting an older zone) and then
  // crosses into the dead zone would otherwise livelock — the crossing is
  // only allowed once both zones are <= CT, and CT never advances past a
  // zone whose long transaction aborted.
  zl::Runtime rt(zl::Config{.max_threads = 4});
  auto th = rt.attach();
  auto x = rt.make_var<long>(1);
  auto y = rt.make_var<long>(10);
  EXPECT_THROW(rt.run_long(*th,
                           [&](zl::LongTx& tx) {
                             tx.write(x, 2L);  // claims x's zone
                             throw Boom{};
                           }),
               Boom);
  // First open y (never zone-claimed), then cross into x's dead zone.
  rt.run_short(*th, [&](zl::ShortTx& tx) {
    EXPECT_EQ(tx.read(y), 10);
    EXPECT_EQ(tx.read(x), 1);
    tx.write(x, 3L);
  });
  rt.run_short(*th, [&](zl::ShortTx& tx) { EXPECT_EQ(tx.read(x), 3); });
}

TEST(RawExceptionSafety, ZlRunAuto) {
  // run_auto's one retry over zl::Tx unwinds whichever class the
  // classifier picked: long on a site it routes long, short on a fresh one.
  zl::Runtime rt(zl::Config{.max_threads = 4});
  auto th = rt.attach();
  auto x = rt.make_var<long>(5);
  zl::AutoClassifier routes_long({.long_open_threshold = 0});
  zl::AutoClassifier fresh;
  for (zl::AutoClassifier* cls : {&routes_long, &fresh}) {
    const bool expect_long = cls == &routes_long;
    EXPECT_THROW(zl::run_auto(*th, *cls, /*site=*/0,
                              [&](zl::Tx& tx) {
                                EXPECT_EQ(tx.is_long(), expect_long);
                                tx.write(x, tx.read(x) + 100);
                                throw Boom{};
                              }),
                 Boom);
    EXPECT_FALSE(th->in_transaction());
  }
  zl::AutoClassifier cls;
  zl::run_auto(*th, cls, /*site=*/1, [&](zl::Tx& tx) {
    EXPECT_EQ(tx.read(x), 5);
    tx.write(x, 6L);
  });
  zl::run_auto(*th, cls, /*site=*/1,
               [&](zl::Tx& tx) { EXPECT_EQ(tx.read(x), 6); });
}

TEST(RawExceptionSafety, Tl2) {
  tl2::Runtime rt(tl2::Config{.max_threads = 4});
  auto th = rt.attach();
  auto x = rt.make_var<long>(5);
  EXPECT_THROW(rt.run(*th,
                      [&](tl2::Tx& tx) {
                        tx.write(x, tx.read(x) + 100);
                        throw Boom{};
                      }),
               Boom);
  rt.run(*th, [&](tl2::Tx& tx) {
    EXPECT_EQ(tx.read(x), 5);
    tx.write(x, 6L);
  });
  rt.run(*th, [&](tl2::Tx& tx) { EXPECT_EQ(tx.read(x), 6); });
}

}  // namespace
}  // namespace zstm
