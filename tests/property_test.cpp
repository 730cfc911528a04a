// Cross-backend property tests: the same workload invariants must hold on
// every STM in the library, each under its own consistency criterion.
//
//  * No lost updates: concurrent blind increments sum exactly.
//  * Money conservation: transfers never create or destroy value.
//  * Atomicity of multi-object writes: paired writes are seen together.
//
// Each property is expressed once and driven through per-backend adapters
// (the runtimes deliberately share an API shape).
//
// CTest label: `stress` — randomized multi-threaded rounds; run under TSan
// in CI (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/stm.hpp"
#include "stress_env.hpp"
#include "util/rng.hpp"

namespace zstm {
namespace {

// Adapter: uniform run/attach/make_var over the different runtimes.
struct LsaBackend {
  lsa::Runtime rt{lsa::Config{.max_threads = 16}};
  template <typename T>
  auto make_var(T v) {
    return rt.make_var<T>(std::move(v));
  }
  auto attach() { return rt.attach(); }
  template <typename Ctx, typename F>
  void run(Ctx& ctx, F&& f) {
    rt.run(ctx, std::forward<F>(f));
  }
};

/// cs with r clock entries; r = max_threads (16) is cs-vc.
template <int kEntries>
struct CsBackend {
  cs::Runtime rt{cs::Config{.max_threads = 16, .plausible_entries = kEntries}};
  template <typename T>
  auto make_var(T v) {
    return rt.make_var<T>(std::move(v));
  }
  auto attach() { return rt.attach(); }
  template <typename Ctx, typename F>
  void run(Ctx& ctx, F&& f) {
    rt.run(ctx, std::forward<F>(f));
  }
};
using CsVcBackend = CsBackend<16>;
using CsRevBackend = CsBackend<2>;

struct SstmBackend {
  sstm::Runtime rt{sstm::Config{.max_threads = 16}};
  template <typename T>
  auto make_var(T v) {
    return rt.make_var<T>(std::move(v));
  }
  auto attach() { return rt.attach(); }
  template <typename Ctx, typename F>
  void run(Ctx& ctx, F&& f) {
    rt.run(ctx, std::forward<F>(f));
  }
};

struct ZBackend {
  zl::Runtime rt{[] {
    zl::Config c;
    c.max_threads = 16;
    return c;
  }()};
  template <typename T>
  auto make_var(T v) {
    return rt.make_var<T>(std::move(v));
  }
  auto attach() { return rt.attach(); }
  template <typename Ctx, typename F>
  void run(Ctx& ctx, F&& f) {
    rt.run_short(ctx, std::forward<F>(f));
  }
};

template <typename Backend>
class BackendProperty : public ::testing::Test {};

using Backends =
    ::testing::Types<LsaBackend, CsVcBackend, CsRevBackend, SstmBackend,
                     ZBackend>;

class BackendNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, LsaBackend>) return "Lsa";
    if constexpr (std::is_same_v<T, CsVcBackend>) return "CsVc";
    if constexpr (std::is_same_v<T, CsRevBackend>) return "CsRev2";
    if constexpr (std::is_same_v<T, SstmBackend>) return "Sstm";
    if constexpr (std::is_same_v<T, ZBackend>) return "ZShort";
  }
};

TYPED_TEST_SUITE(BackendProperty, Backends, BackendNames);

TYPED_TEST(BackendProperty, NoLostIncrements) {
  TypeParam backend;
  auto counter = backend.template make_var<long>(0);
  constexpr int kThreads = 4;
  const int kIncrements = test_env::stress_rounds(1000);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto th = backend.attach();
      for (int i = 0; i < kIncrements; ++i) {
        backend.run(*th, [&](auto& tx) { tx.write(counter) += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();
  auto th = backend.attach();
  long final_value = 0;
  backend.run(*th, [&](auto& tx) { final_value = tx.read(counter); });
  EXPECT_EQ(final_value, kThreads * kIncrements);
}

TYPED_TEST(BackendProperty, MoneyConservation) {
  TypeParam backend;
  constexpr int kAccounts = 10;
  constexpr long kInitial = 25;
  using VarT = decltype(backend.template make_var<long>(0));
  std::vector<VarT> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(backend.template make_var<long>(kInitial));
  }
  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto th = backend.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 7);
      for (int i = 0, n = test_env::stress_rounds(800); i < n; ++i) {
        const auto from = rng.next_below(kAccounts);
        auto to = rng.next_below(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        backend.run(*th, [&](auto& tx) {
          const long amount = 1 + static_cast<long>(rng.next_below(4));
          tx.write(accounts[from]) -= amount;
          tx.write(accounts[to]) += amount;
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  auto th = backend.attach();
  long total = 0;
  backend.run(*th, [&](auto& tx) {
    total = 0;
    for (auto& a : accounts) total += tx.read(a);
  });
  EXPECT_EQ(total, kAccounts * kInitial);
}

TYPED_TEST(BackendProperty, PairedWritesAreAtomic) {
  // Writers keep a == b at all times; any reader observing a != b caught a
  // torn multi-object commit.
  TypeParam backend;
  auto a = backend.template make_var<long>(0);
  auto b = backend.template make_var<long>(0);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      auto th = backend.attach();
      util::Xorshift rng(static_cast<std::uint64_t>(t) + 19);
      for (int i = 0, n = test_env::stress_rounds(1500); i < n; ++i) {
        backend.run(*th, [&](auto& tx) {
          const long v = static_cast<long>(rng.next_below(1000));
          tx.write(a, v);
          tx.write(b, v);
        });
      }
      stop.store(true, std::memory_order_release);
    });
  }
  workers.emplace_back([&] {
    auto th = backend.attach();
    while (!stop.load(std::memory_order_acquire)) {
      // CS-/S-STM validate only at commit; judge the committed attempt.
      long va = 0, vb = 0;
      backend.run(*th, [&](auto& tx) {
        va = tx.read(a);
        vb = tx.read(b);
      });
      if (va != vb) violations.fetch_add(1);
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace zstm
