// Cross-runtime conformance suite for the unified façade (api/stm_api.hpp):
// one shared battery, TYPED_TEST'd across all five runtimes (both cs
// clocks) through api::Stm<R>, plus visit_variant's name resolution. Every
// variant must agree on the observable semantics the façade promises —
// atomic updates, consistent read-only snapshots, abort/retry visibility,
// budgeted-run failure reporting, long-transaction progress under writer
// churn, pool on/off equivalence — and on the implicit-attachment
// lifecycle (thread churn must reclaim registry slots; this extends
// tests/node_pool_test.cpp's slot-release pattern to the API layer). It
// also pins the attempt contract: bodies receive each runtime's own
// handle, and begin(kind) applies DESIGN.md §8's kind table.
//
// CTest label: `conformance` (DESIGN.md §6/§8); rounds scale with
// ZSTM_STRESS_ROUNDS and the suite runs under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/stm_api.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"
#include "variants.hpp"

namespace zstm {
namespace {

using api::CommonConfig;
using api::TxKind;

template <typename S>
class ApiConformance : public ::testing::Test {
 public:
  /// Small-footprint config shared by the battery; the plausible-clock
  /// variant runs with r = 2 entries so clock aliasing is actually
  /// exercised (false conflicts allowed, inconsistencies not).
  static CommonConfig config() {
    CommonConfig cfg;
    cfg.max_threads = 12;
    if constexpr (std::is_same_v<S, api::CsStm>) cfg.plausible_entries = 2;
    return cfg;
  }
  static S make(CommonConfig cfg = config()) { return S(cfg); }
};

TYPED_TEST_SUITE(ApiConformance, test_env::Variants);

// --- basic semantics --------------------------------------------------------

TYPED_TEST(ApiConformance, EveryKindCommitsAndReadsBack) {
  TypeParam stm = this->make();
  auto x = stm.make_var(1L);

  // The update bodies read their own write back.
  api::RunResult r = stm.run(TxKind::kUpdate, [&](auto& tx) {
    tx.write(x) += 1;
    EXPECT_EQ(tx.read(x), 2);
  });
  EXPECT_TRUE(r.committed);
  EXPECT_GE(r.attempts, 1u);
  stm.run(TxKind::kLongUpdate, [&](auto& tx) {
    tx.write(x) += 1;
    EXPECT_EQ(tx.read(x), 3);
  });
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 3); });
  stm.run(TxKind::kLong, [&](auto& tx) { EXPECT_EQ(tx.read(x), 3); });
}

TYPED_TEST(ApiConformance, CounterRaceLosesNoIncrements) {
  constexpr int kThreads = 4;
  const int rounds = test_env::stress_rounds(400);
  TypeParam stm = this->make();
  auto counter = stm.make_var(0L);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < rounds; ++i) {
        stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(counter) += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();

  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(counter), static_cast<long>(kThreads) * rounds);
  });
}

TYPED_TEST(ApiConformance, ReadOnlySnapshotsSeeConservedTotal) {
  constexpr int kVars = 16;
  constexpr long kInitial = 100;
  const int rounds = test_env::stress_rounds(600);
  TypeParam stm = this->make();
  std::vector<typename TypeParam::template Var<long>> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(stm.make_var(kInitial));

  std::atomic<bool> writers_done{false};
  std::atomic<bool> torn_snapshot{false};
  std::thread writer([&] {
    util::Xorshift rng(7);
    for (int i = 0; i < rounds; ++i) {
      const std::size_t a = rng.next_below(kVars);
      std::size_t b = rng.next_below(kVars);
      if (b == a) b = (b + 1) % kVars;
      stm.run(TxKind::kUpdate, [&](auto& tx) {
        tx.write(vars[a]) -= 3;
        tx.write(vars[b]) += 3;
      });
    }
    writers_done.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    while (!writers_done.load(std::memory_order_acquire)) {
      long total = 0;
      stm.run(TxKind::kReadOnly, [&](auto& tx) {
        total = 0;
        for (auto& v : vars) total += tx.read(v);
      });
      if (total != kInitial * kVars) torn_snapshot.store(true);
      long long_total = 0;
      stm.run(TxKind::kLong, [&](auto& tx) {
        long_total = 0;
        for (auto& v : vars) long_total += tx.read(v);
      });
      if (long_total != kInitial * kVars) torn_snapshot.store(true);
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(torn_snapshot.load());
}

TYPED_TEST(ApiConformance, AbortedAttemptLeavesNoTraceAndRetries) {
  TypeParam stm = this->make();
  auto x = stm.make_var(0L);

  int tries = 0;
  const api::RunResult r = stm.run(TxKind::kUpdate, [&](auto& tx) {
    const int attempt = ++tries;
    tx.write(x) = 99;  // visible only if this attempt commits
    if (attempt < 2) tx.abort();
    tx.write(x) = 1;
  });
  EXPECT_TRUE(r.committed);
  // Every attempt is reported. The one voluntary abort costs exactly one
  // attempt, unless a failpoint recipe (ctest --preset chaos) injects more.
  EXPECT_EQ(r.attempts, static_cast<std::uint32_t>(tries));
  if (std::getenv("ZSTM_FAILPOINTS") == nullptr) {
    EXPECT_EQ(r.attempts, 2u);
  } else {
    EXPECT_GE(r.attempts, 2u);
  }
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 1); });
}

TYPED_TEST(ApiConformance, BudgetedRunReportsFailureWithoutSideEffects) {
  TypeParam stm = this->make();
  auto x = stm.make_var(42L);

  const api::RunResult r = stm.run(
      TxKind::kUpdate,
      [&](auto& tx) {
        tx.write(x) = -1;
        tx.abort();
      },
      /*max_attempts=*/3);
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.attempts, 3u);
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 42); });
}

TYPED_TEST(ApiConformance, ForeignExceptionAbandonsAttemptRecoverably) {
  // The stm_api.hpp contract: an exception other than the abort token
  // propagates to the caller, and the next run on the same thread aborts
  // the abandoned attempt first. Exercise both the short and long paths.
  TypeParam stm = this->make();
  auto x = stm.make_var(0L);

  for (const TxKind kind : {TxKind::kUpdate, TxKind::kLongUpdate}) {
    struct Boom {};
    EXPECT_THROW(stm.run(kind,
                         [&](auto& tx) {
                           tx.write(x) += 100;  // installs a locator
                           throw Boom{};
                         }),
                 Boom);
    // The abandoned write must not be visible, and the object must not be
    // wedged behind the abandoned attempt's descriptor.
    stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(x) += 1; });
  }
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 2); });
}

// --- long transactions vs writer churn -------------------------------------

TYPED_TEST(ApiConformance, LongUpdateMakesProgressUnderWriterChurn) {
  constexpr int kThreads = 3;
  constexpr int kVars = 24;
  const int rounds = test_env::stress_rounds(300);
  TypeParam stm = this->make();
  std::vector<typename TypeParam::template Var<long>> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(stm.make_var(10L));
  auto sink = stm.make_var(0L);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      util::Xorshift rng(static_cast<std::uint64_t>(t) * 13 + 5);
      for (int i = 0; i < rounds; ++i) {
        const std::size_t a = rng.next_below(kVars);
        std::size_t b = rng.next_below(kVars);
        if (b == a) b = (b + 1) % kVars;
        stm.run(TxKind::kUpdate, [&](auto& tx) {
          tx.write(vars[a]) -= 1;
          tx.write(vars[b]) += 1;
        });
      }
    });
  }

  // Unbounded long updates racing the (bounded) writer storm: they must
  // all commit — the writers quiesce, so even first-committer-wins
  // runtimes converge; Z-STM commits them *during* the storm.
  int long_commits = 0;
  for (int i = 0; i < 5; ++i) {
    const api::RunResult r = stm.run(TxKind::kLongUpdate, [&](auto& tx) {
      long total = 0;
      for (auto& v : vars) total += tx.read(v);
      tx.write(sink, total);
    });
    if (r.committed) ++long_commits;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(long_commits, 5);

  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(sink), 10L * kVars);  // transfers conserve the total
    long total = 0;
    for (auto& v : vars) total += tx.read(v);
    EXPECT_EQ(total, 10L * kVars);
  });
}

// --- configuration ----------------------------------------------------------

TYPED_TEST(ApiConformance, PoolDisabledVariantStillConforms) {
  CommonConfig cfg = this->config();
  cfg.use_node_pool = false;
  TypeParam stm = this->make(cfg);
  auto x = stm.make_var(0L);

  constexpr int kThreads = 2;
  const int rounds = test_env::stress_rounds(150);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < rounds; ++i) {
        stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(x) += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();
  stm.run(TxKind::kLong, [&](auto& tx) {
    EXPECT_EQ(tx.read(x), static_cast<long>(kThreads) * rounds);
  });
}

// --- implicit attachment lifecycle ------------------------------------------

TYPED_TEST(ApiConformance, ThreadChurnReclaimsRegistrySlots) {
  // 8 waves x 4 short-lived threads = 32 attachments against a registry
  // with room for 6: unless each exiting thread's cached ctx releases its
  // slot (the TLS-destructor / ThreadRegistry release-listener path), a
  // later wave throws "thread registry full" and the test dies.
  CommonConfig cfg = this->config();
  cfg.max_threads = 6;
  TypeParam stm = this->make(cfg);
  auto counter = stm.make_var(0L);

  constexpr int kWaves = 8;
  constexpr int kPerWave = 4;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kPerWave; ++t) {
      workers.emplace_back([&] {
        stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(counter) += 1; });
      });
    }
    for (auto& w : workers) w.join();
  }

  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(tx.read(counter), static_cast<long>(kWaves) * kPerWave);
  });
}

TYPED_TEST(ApiConformance, DetachThreadReleasesAndReattaches) {
  CommonConfig cfg = this->config();
  cfg.max_threads = 2;  // this thread's slot + headroom of one
  TypeParam stm = this->make(cfg);
  auto x = stm.make_var(0L);

  for (int i = 0; i < 3; ++i) {
    stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(x) += 1; });
    stm.detach_thread();  // releases the slot; next run re-attaches
  }
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 3); });
}

TYPED_TEST(ApiConformance, TwoFacadeInstancesKeepSeparateState) {
  TypeParam a = this->make();
  TypeParam b = this->make();
  auto xa = a.make_var(1L);
  auto xb = b.make_var(10L);
  a.run(TxKind::kUpdate, [&](auto& tx) { tx.write(xa) += 1; });
  b.run(TxKind::kUpdate, [&](auto& tx) { tx.write(xb) += 1; });
  a.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(xa), 2); });
  b.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(xb), 11); });
  EXPECT_EQ(a.stats()[util::Counter::kCommits], 2u);
  EXPECT_EQ(b.stats()[util::Counter::kCommits], 2u);
}

// --- bodies get the runtime's own handle; begin(kind) applies §8's table ----

static_assert(std::is_same_v<api::LsaStm::Tx, lsa::Tx>);
static_assert(std::is_same_v<api::CsStm::Tx, cs::Tx>);
static_assert(std::is_same_v<api::SStm::Tx, sstm::Tx>);
static_assert(std::is_same_v<api::Tl2Stm::Tx, tl2::Tx>);
static_assert(std::is_same_v<api::ZStm::Tx, zl::Tx>);

constexpr TxKind kAllKinds[] = {TxKind::kUpdate, TxKind::kReadOnly,
                                TxKind::kLong, TxKind::kLongUpdate};

TEST(TxKindTable, LsaDeclaresReadOnlyAndLongReadOnly) {
  lsa::Runtime rt(lsa::Config{.max_threads = 4});
  auto th = rt.attach();
  for (TxKind kind : kAllKinds) {
    const bool read_only = kind == TxKind::kReadOnly || kind == TxKind::kLong;
    EXPECT_EQ(th->begin(kind).read_only_declared(), read_only);
    th->abort_attempt();
  }
}

TEST(TxKindTable, ZlRunsTheLongKindsLong) {
  zl::Runtime rt(zl::Config{.max_threads = 4});
  auto th = rt.attach();
  for (TxKind kind : kAllKinds) {
    const bool is_long = kind == TxKind::kLong || kind == TxKind::kLongUpdate;
    EXPECT_EQ(th->begin(kind).is_long(), is_long);
    th->abort_attempt();
    EXPECT_FALSE(th->in_transaction());
  }
}

// --- visit_variant: name resolution ---------------------------------------

TEST(VisitVariant, UnknownNameThrows) {
  const auto noop = [](auto, const char*, const CommonConfig&) {};
  EXPECT_THROW(api::visit_variant("tl3", {}, noop), std::invalid_argument);
  EXPECT_THROW(api::visit_variant("", {}, noop), std::invalid_argument);
}

TEST(VisitVariant, EachCsNameKeepsItsClock) {
  // One runtime serves both names; the name picks the clock's width.
  const auto entries = [](const char* name) {
    CommonConfig cfg;
    cfg.max_threads = 12;
    return api::visit_variant(
        name, cfg, [](auto tag, const char*, const CommonConfig& c) {
          using S = typename decltype(tag)::type;
          if constexpr (std::is_same_v<S, api::CsStm>) {
            S stm(c);
            return stm.runtime().domain().entries();
          } else {
            ADD_FAILURE() << "not the cs runtime";
            return 0;
          }
        });
  };
  EXPECT_EQ(entries("cs-vc"), 12);  // r = max_threads: the vector clock
  EXPECT_EQ(entries("cs-r"), 4);    // r = plausible_entries' default
}

TEST(VisitVariant, AliasNamesResolve) {
  api::visit_variant(
      "lsa-no-readsets", {},
      [](auto tag, const char* name, const CommonConfig& cfg) {
        EXPECT_TRUE(
            (std::is_same_v<typename decltype(tag)::type, api::LsaStm>));
        EXPECT_STREQ(name, "lsa-nors");
        EXPECT_FALSE(cfg.track_readonly_readsets);
      });
}

}  // namespace
}  // namespace zstm
