// The failpoint registry (src/fault/, DESIGN.md §11): site registration and
// allowed-effect masks, a rejected environment recipe stopping the process,
// deterministic triggering under a fixed seed, the
// zero-cost disabled path, OOM injection surfacing as a clean abort, effect
// delivery through real runtimes, one abort counted per aborted
// open-for-write attempt, a scripted tl2 commit interleaving through a
// site's hook, and the façade's serial-irrevocable fallback committing
// every transaction under 100% abort injection.
//
// The registry is process-global, so every test arms inside a
// disarm_all() bracket.
//
// CTest label: `fault` (DESIGN.md §11).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "cs/cs.hpp"
#include "fault/failpoint.hpp"
#include "lsa/lsa.hpp"
#include "sstm/sstm.hpp"
#include "tl2/tl2.hpp"
#include "variants.hpp"

namespace zstm {
namespace {

using fault::Effect;
using fault::Site;
using fault::effect_bit;
using fault::registry;

/// RAII bracket: every test starts and ends with a clean registry.
struct Clean {
  Clean() { registry().disarm_all(); }
  ~Clean() { registry().disarm_all(); }
};

lsa::Config small_lsa() { return lsa::Config{.max_threads = 4}; }

// --- registration and masks -------------------------------------------------

TEST(FaultRegistry, ArmDisarmRoundTrip) {
  Clean c;
  EXPECT_FALSE(registry().armed(Site::kLsaAcquire));
  EXPECT_TRUE(registry().arm(Site::kLsaAcquire, 0.5));
  EXPECT_TRUE(registry().armed(Site::kLsaAcquire));
  registry().disarm(Site::kLsaAcquire);
  EXPECT_FALSE(registry().armed(Site::kLsaAcquire));
}

TEST(FaultRegistry, AllowedMasksRejectCorruptingEffects) {
  Clean c;
  // Unwinding out of the middle of settle/install would leak the caller's
  // tentative version: kAbort/kExitThread are not armable there.
  EXPECT_FALSE(registry().arm(Site::kStoreSettleCas, 1.0, 0, Effect::kAbort));
  EXPECT_FALSE(
      registry().arm(Site::kStoreInstallCas, 1.0, 0, Effect::kExitThread));
  EXPECT_TRUE(registry().arm(Site::kStoreSettleCas, 1.0, 0, Effect::kCasFail));
  // Delay-only sites take no state-changing effect.
  EXPECT_FALSE(registry().arm(Site::kEbrRetire, 1.0, 0, Effect::kAbort));
  EXPECT_TRUE(registry().arm(Site::kEbrRetire, 1.0, 0, Effect::kDelay));
  // Probability outside [0,1] is rejected.
  EXPECT_FALSE(registry().arm(Site::kLsaAcquire, 1.5));
  EXPECT_FALSE(registry().arm(Site::kLsaAcquire, -0.1));
  registry().disarm_all();
  for (int i = 0; i < static_cast<int>(Site::kCount); ++i) {
    EXPECT_FALSE(registry().armed(static_cast<Site>(i)));
  }
}

TEST(FaultRegistry, SpecParsing) {
  Clean c;
  EXPECT_TRUE(registry().load_spec("lsa.acquire:0.05"));
  EXPECT_TRUE(registry().armed(Site::kLsaAcquire));
  EXPECT_TRUE(registry().load_spec("tl2.stripe_lock:0.2:100:casfail"));
  EXPECT_TRUE(registry().armed(Site::kTl2StripeLock));
  EXPECT_FALSE(registry().load_spec("no.such.site:0.5"));
  EXPECT_FALSE(registry().load_spec("lsa.acquire:banana"));
  // A disallowed effect in a spec is a parse failure, not a silent skip.
  EXPECT_FALSE(registry().load_spec("store.settle_cas:1.0:0:abort"));
  // The first rejected entry is reported; the others still arm.
  std::string rejected;
  EXPECT_FALSE(registry().load_spec(
      "cs.acquire:0.1,sstm.aquire:0.1,zl.acquire:x", &rejected));
  EXPECT_EQ(rejected, "sstm.aquire:0.1");
  EXPECT_TRUE(registry().armed(Site::kCsAcquire));
}

void commit_one_transaction() {
  lsa::Runtime rt(small_lsa());
  auto x = rt.make_var<long>(0);
  auto th = rt.attach();
  rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, 1L); });
}

TEST(FaultRegistryDeathTest, RejectedEnvironmentRecipeStopsTheProcess) {
  // The registry reads ZSTM_FAILPOINTS before main, so each child must be a
  // fresh exec of this binary with the recipe in its environment (the
  // threadsafe death-test style). It must die before its one transaction
  // can run, naming the entry it rejected.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* saved = std::getenv("ZSTM_FAILPOINTS");
  const std::string restore = saved != nullptr ? saved : "";
  struct Case {
    const char* recipe;
    const char* rejected;
  };
  constexpr Case kCases[] = {
      {"lsa.aquire:0.05", "lsa.aquire:0.05"},  // misspelled site
      {"lsa.acquire:0.05,ebr.retire:1.0:0:abort",
       "ebr.retire:1.0:0:abort"},              // effect the site refuses
      {"zl.acquire:often", "zl.acquire:often"},  // not a probability
  };
  for (const Case& c : kCases) {
    ::setenv("ZSTM_FAILPOINTS", c.recipe, 1);
    EXPECT_DEATH(commit_one_transaction(),
                 std::string("rejected entry '") + c.rejected + "'");
  }
  if (saved != nullptr) {
    ::setenv("ZSTM_FAILPOINTS", restore.c_str(), 1);
  } else {
    ::unsetenv("ZSTM_FAILPOINTS");
  }
}

// --- disabled path ----------------------------------------------------------

TEST(FaultRegistry, FaultDisabledCostsNothing) {
  Clean c;
  lsa::Runtime rt(small_lsa());
  auto x = rt.make_var<long>(0);
  auto th = rt.attach();
  for (int i = 0; i < 200; ++i) {
    rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  // Nothing armed: poke() returned on the fast path every time — no site
  // state was touched, no hit was counted anywhere.
  for (int i = 0; i < static_cast<int>(Site::kCount); ++i) {
    EXPECT_EQ(registry().hits(static_cast<Site>(i)), 0u);
  }
  EXPECT_EQ(registry().triggers_total(), 0u);
}

// --- determinism ------------------------------------------------------------

TEST(FaultRegistry, FixedSeedReplaysExactly) {
  Clean c;
  auto run_workload = [] {
    lsa::Runtime rt(small_lsa());
    auto x = rt.make_var<long>(0);
    auto th = rt.attach();
    for (int i = 0; i < 200; ++i) {
      rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, tx.read(x) + 1); });
    }
  };

  registry().set_seed(42);
  ASSERT_TRUE(registry().arm(Site::kLsaAcquire, 0.5));
  run_workload();
  const std::uint64_t hits1 = registry().hits(Site::kLsaAcquire);
  const std::uint64_t trig1 = registry().triggers(Site::kLsaAcquire);
  // prob 0.5 over >= 200 single-threaded hits: both outcomes occur.
  EXPECT_GT(trig1, 0u);
  EXPECT_LT(trig1, hits1);

  // Same seed, same single-threaded workload: identical replay.
  registry().disarm_all();
  registry().set_seed(42);
  ASSERT_TRUE(registry().arm(Site::kLsaAcquire, 0.5));
  run_workload();
  EXPECT_EQ(registry().hits(Site::kLsaAcquire), hits1);
  EXPECT_EQ(registry().triggers(Site::kLsaAcquire), trig1);
}

TEST(FaultRegistry, AfterSkipsTheFirstHits) {
  Clean c;
  registry().set_seed(7);
  ASSERT_TRUE(registry().arm(Site::kLsaAcquire, 1.0, /*after=*/50));
  lsa::Runtime rt(small_lsa());
  auto x = rt.make_var<long>(0);
  auto th = rt.attach();
  // The first 50 pokes pass untriggered, so 50 transactions commit on
  // their first attempt; the 51st poke aborts (and keeps aborting until
  // the runtime's retry loop... which would never end — so only run 50).
  for (int i = 0; i < 50; ++i) {
    const runtime::RunResult r =
        rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, tx.read(x) + 1); });
    EXPECT_EQ(r.attempts, 1u);
  }
  EXPECT_EQ(registry().triggers(Site::kLsaAcquire), 0u);
  rt.run(*th, [&](lsa::Tx& tx) { EXPECT_EQ(tx.read(x), 50); });
}

// --- effect delivery through real runtimes ----------------------------------

TEST(FaultEffects, AbortInjectionAbortsAndRecovers) {
  Clean c;
  registry().set_seed(3);
  ASSERT_TRUE(registry().arm(Site::kLsaAcquire, 0.5));
  lsa::Runtime rt(small_lsa());
  auto x = rt.make_var<long>(0);
  auto th = rt.attach();
  std::uint32_t total_attempts = 0;
  for (int i = 0; i < 100; ++i) {
    const runtime::RunResult r =
        rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, tx.read(x) + 1); });
    total_attempts += r.attempts;
  }
  // Injected aborts forced retries, and every retry still converged.
  EXPECT_GT(total_attempts, 100u);
  EXPECT_GT(registry().triggers(Site::kLsaAcquire), 0u);
  rt.run(*th, [&](lsa::Tx& tx) { EXPECT_EQ(tx.read(x), 100); });
}

TEST(FaultEffects, SpuriousCasFailureIsInvisibleToSemantics) {
  Clean c;
  registry().set_seed(11);
  // 0.3, not 1.0: a CAS that spuriously fails every time livelocks the
  // settle loop by construction (that is why arm_all_abort excludes
  // CasFail-only sites).
  ASSERT_TRUE(registry().arm(Site::kStoreSettleCas, 0.3));
  ASSERT_TRUE(registry().arm(Site::kStoreInstallCas, 0.3));
  lsa::Runtime rt(small_lsa());
  auto x = rt.make_var<long>(0);
  auto th = rt.attach();
  for (int i = 0; i < 200; ++i) {
    rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  EXPECT_GT(registry().triggers_total(), 0u);
  rt.run(*th, [&](lsa::Tx& tx) { EXPECT_EQ(tx.read(x), 200); });
}

TEST(FaultEffects, OomInjectionSurfacesAsCleanBadAlloc) {
  Clean c;
  lsa::Runtime rt(small_lsa());
  auto x = rt.make_var<long>(5);
  auto th = rt.attach();
  ASSERT_TRUE(registry().arm(Site::kPoolAlloc, 1.0, 0, Effect::kOom));
  // Allocation failure propagates as std::bad_alloc with the attempt fully
  // unwound — nothing owned, nothing leaked.
  EXPECT_THROW(rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, 6L); }),
               std::bad_alloc);
  registry().disarm(Site::kPoolAlloc);
  // The runtime is unharmed: the old value is intact and writable.
  rt.run(*th, [&](lsa::Tx& tx) {
    EXPECT_EQ(tx.read(x), 5);
    tx.write(x, 7L);
  });
  rt.run(*th, [&](lsa::Tx& tx) { EXPECT_EQ(tx.read(x), 7); });
}

TEST(FaultEffects, ThreadExitMidTransactionLeavesRuntimeLive) {
  Clean c;
  registry().set_seed(5);
  lsa::Runtime rt(small_lsa());
  auto x = rt.make_var<long>(1);

  ASSERT_TRUE(registry().arm(Site::kLsaAcquire, 1.0, 0, Effect::kExitThread));
  std::atomic<bool> died{false};
  std::thread victim([&] {
    auto th = rt.attach();
    try {
      rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, 99L); });
    } catch (const fault::ThreadExit&) {
      died.store(true);
    }
  });
  victim.join();
  EXPECT_TRUE(died.load());
  registry().disarm_all();

  // The dead thread's unwind released everything: a fresh thread writes.
  auto th = rt.attach();
  rt.run(*th, [&](lsa::Tx& tx) {
    EXPECT_EQ(tx.read(x), 1);
    tx.write(x, 2L);
  });
  rt.run(*th, [&](lsa::Tx& tx) { EXPECT_EQ(tx.read(x), 2); });
}

TEST(FaultEffects, DelayInjectionOnlyWidensWindows) {
  Clean c;
  ASSERT_TRUE(registry().arm(Site::kEbrRetire, 1.0, 0, Effect::kDelay));
  lsa::Runtime rt(small_lsa());
  auto x = rt.make_var<long>(0);
  auto th = rt.attach();
  for (int i = 0; i < 50; ++i) {
    rt.run(*th, [&](lsa::Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  // Every settle retires the superseded locator, so the site was hot; the
  // delay changed timing only.
  EXPECT_GT(registry().hits(Site::kEbrRetire), 0u);
  rt.run(*th, [&](lsa::Tx& tx) { EXPECT_EQ(tx.read(x), 50); });
}

// --- one kAborts per aborted attempt ----------------------------------------

/// The native runtimes whose writes open through ObjectStore::open_for_write,
/// each with its own acquire failpoint site.
struct LsaRig {
  using Aborted = lsa::TxAborted;
  static constexpr Site kAcquire = Site::kLsaAcquire;
  static std::unique_ptr<lsa::Runtime> make() {
    return std::make_unique<lsa::Runtime>(small_lsa());
  }
};
/// cs with r clock entries; r = max_threads (4) is cs-vc.
template <int kEntries>
struct CsRig {
  using Aborted = cs::TxAborted;
  static constexpr Site kAcquire = Site::kCsAcquire;
  static std::unique_ptr<cs::Runtime> make() {
    return std::make_unique<cs::Runtime>(
        cs::Config{.max_threads = 4, .plausible_entries = kEntries});
  }
};
using CsVcRig = CsRig<4>;
using CsRevRig = CsRig<2>;
struct SstmRig {
  using Aborted = sstm::TxAborted;
  static constexpr Site kAcquire = Site::kSstmAcquire;
  static std::unique_ptr<sstm::Runtime> make() {
    return std::make_unique<sstm::Runtime>(sstm::Config{.max_threads = 4});
  }
};

template <typename R>
class OneAbortPerAttempt : public ::testing::Test {};

using ObjectRigs = ::testing::Types<LsaRig, CsVcRig, CsRevRig, SstmRig>;
TYPED_TEST_SUITE(OneAbortPerAttempt, ObjectRigs);

TYPED_TEST(OneAbortPerAttempt, InjectedAcquireAbort) {
  Clean c;
  auto rt = TypeParam::make();
  auto x = rt->template make_var<long>(0);
  auto th = rt->attach();
  ASSERT_TRUE(registry().arm(TypeParam::kAcquire, 1.0));
  auto& tx = th->begin();
  EXPECT_THROW(tx.write(x, 1L), typename TypeParam::Aborted);
  EXPECT_EQ(registry().triggers(TypeParam::kAcquire), 1u);
  EXPECT_EQ(rt->stats()[util::Counter::kAborts], 1u);
}

TEST(FaultEffects, LsaNorsReadOnlyWriteAbortsOnce) {
  Clean c;
  lsa::Config cfg = small_lsa();
  cfg.track_readonly_readsets = false;  // lsa-nors
  lsa::Runtime rt(cfg);
  auto x = rt.make_var<long>(0);
  auto th = rt.attach();
  lsa::Tx& tx = th->begin(lsa::TxKind::kReadOnly);
  EXPECT_THROW(tx.write(x, 1L), lsa::TxAborted);
  EXPECT_EQ(rt.stats()[util::Counter::kAborts], 1u);
  // The retry tracks reads and commits the write.
  th->begin(lsa::TxKind::kReadOnly).write(x, 1L);
  th->commit();
  EXPECT_EQ(rt.stats()[util::Counter::kAborts], 1u);
}

TEST(FaultEffects, Tl2RevalidationAbortsOnAStripeAnotherCommitterHolds) {
  // T1 read a and writes b; T2 writes a. The tl2.revalidate hook runs T1's
  // commit inside T2's, after T2 locked a's stripe and drew its commit
  // time: T1's commit time is then not rv + 1, so T1 revalidates its read
  // of a, finds the stripe locked by another transaction, and aborts. The
  // hook's second run is T1 reaching its own revalidation, so the abort
  // comes from there and not from T1's lock acquisition.
  Clean c;
  tl2::Runtime rt(tl2::Config{.max_threads = 4});
  auto a = rt.make_var<long>(0);
  auto b = rt.make_var<long>(0);
  auto c1 = rt.attach();
  auto c2 = rt.attach();

  tl2::Tx& t1 = c1->begin();
  t1.write(b, t1.read(a) + 1);
  c2->begin().write(a, 5L);

  int hook_runs = 0;
  registry().arm_hook(Site::kTl2Revalidate, [&] {
    if (++hook_runs > 1) return;
    EXPECT_THROW(c1->commit(), tl2::TxAborted);
  });
  const std::uint64_t fails = rt.stats()[util::Counter::kValidationFails];
  c2->commit();
  registry().disarm_all();
  EXPECT_EQ(hook_runs, 2);
  EXPECT_EQ(rt.stats()[util::Counter::kValidationFails], fails + 1);

  long seen_a = -1;
  long seen_b = -1;
  rt.run(*c1, [&](tl2::Tx& tx) {
    seen_a = tx.read(a);
    seen_b = tx.read(b);
  });
  EXPECT_EQ(seen_a, 5);
  EXPECT_EQ(seen_b, 0);
}

// --- the façade's serial-irrevocable fallback -------------------------------

template <typename S>
class FaultSerialFallback : public ::testing::Test {};

TYPED_TEST_SUITE(FaultSerialFallback, test_env::Variants);

TYPED_TEST(FaultSerialFallback, EveryTransactionCommitsUnder100PctAborts) {
  Clean c;
  // Arm every abort-capable protocol site at probability 1: no optimistic
  // attempt can ever succeed. The façade's final rung (serial-irrevocable
  // mode, injection suppressed) must still commit every transaction.
  registry().arm_all_abort();

  api::CommonConfig cfg;
  cfg.max_threads = 4;
  cfg.retry.serial_after = 4;
  TypeParam stm(cfg);
  auto x = stm.make_var(0L);

  for (int i = 0; i < 20; ++i) {
    const api::RunResult r = stm.run(api::TxKind::kUpdate, [&](auto& tx) {
      tx.write(x) += 1;
    });
    EXPECT_TRUE(r.committed);
    EXPECT_GT(r.attempts, cfg.retry.serial_after);  // escalation was needed
  }
  registry().disarm_all();
  stm.run(api::TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 20); });

  // The starvation watchdog saw the escalations.
  const util::ProgressTracker::Snapshot snap = stm.progress();
  EXPECT_GE(snap.serial_entries, 20u);
  EXPECT_GT(snap.max_attempts, cfg.retry.serial_after);
}

TYPED_TEST(FaultSerialFallback, ExplicitBudgetStillWinsWithoutSerialMode) {
  Clean c;
  registry().arm_all_abort();
  api::CommonConfig cfg;
  cfg.max_threads = 4;
  cfg.retry.serial_after = 0;  // serial rung disabled
  TypeParam stm(cfg);
  auto x = stm.make_var(0L);
  const api::RunResult r = stm.run(
      api::TxKind::kUpdate, [&](auto& tx) { tx.write(x) += 1; },
      /*max_attempts=*/5);
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.attempts, 5u);
  registry().disarm_all();
  stm.run(api::TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 0); });
}

// --- trimming under injection (cross-feature) -------------------------------

TEST(FaultEffects, SstmReleaseLeavesNoInjectionStrandedLocator) {
  // A settle-CAS failpoint fails the CAS with the locator still naming the
  // finished writer; release retries until its own locators are settled,
  // so the trim that frees the descriptors finds none naming a writer (it
  // asserts so in debug builds) and teardown reads no freed descriptor.
  Clean c;
  registry().set_seed(9);
  ASSERT_TRUE(registry().arm(Site::kStoreSettleCas, 0.7));
  sstm::Config cfg;
  cfg.max_threads = 4;
  sstm::Runtime rt(cfg);
  auto x = rt.make_var<long>(0);
  {
    auto th = rt.attach();
    for (int i = 0; i < 100; ++i) {
      rt.run(*th, [&](sstm::Tx& tx) { tx.write(x, tx.read(x) + 1); });
    }
  }
  registry().disarm_all();
  EXPECT_EQ(rt.trim_descriptors(), 100u);
  auto th = rt.attach();
  rt.run(*th, [&](sstm::Tx& tx) { EXPECT_EQ(tx.read(x), 100); });
}

}  // namespace
}  // namespace zstm
