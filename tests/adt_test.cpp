// adt::TMap / adt::TSet unit tests: sequential semantics over a typed
// façade and over every variant name (api::visit_variant), plus a small
// concurrent invariant run (the heavy service-level battery lives in
// kv_server_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "adt/tmap.hpp"
#include "api/stm_api.hpp"
#include "util/rng.hpp"

namespace {

using zstm::api::CommonConfig;
using zstm::api::TxKind;

template <typename S>
void sequential_map_checks(S& stm) {
  zstm::adt::TMap<S> map(stm, 8);

  // Insert + lookup + overwrite.
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    for (std::uint64_t k = 0; k < 100; ++k) {
      EXPECT_TRUE(map.put(tx, k, static_cast<std::int64_t>(k * 10)));
    }
  });
  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    for (std::uint64_t k = 0; k < 100; ++k) {
      auto v = map.get(tx, k);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, static_cast<std::int64_t>(k * 10));
    }
    EXPECT_FALSE(map.get(tx, 100).has_value());
  });
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    EXPECT_FALSE(map.put(tx, 7, -1));  // overwrite, not insert
  });

  // Erase half, audit the rest.
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    for (std::uint64_t k = 0; k < 100; k += 2) EXPECT_TRUE(map.erase(tx, k));
    EXPECT_FALSE(map.erase(tx, 0));  // already gone
  });
  stm.run(TxKind::kLong, [&](auto& tx) {
    auto a = map.audit(tx);
    EXPECT_EQ(a.size, 50u);
    EXPECT_TRUE(a.sorted);
    std::set<std::uint64_t> seen;
    map.for_each(tx, [&](std::uint64_t k, std::int64_t v) {
      seen.insert(k);
      EXPECT_EQ(k % 2, 1u);
      EXPECT_EQ(v, k == 7 ? -1 : static_cast<std::int64_t>(k * 10));
    });
    EXPECT_EQ(seen.size(), 50u);
  });
}

TEST(Adt, SequentialMapTypedFacade) {
  zstm::api::LsaStm stm;
  sequential_map_checks(stm);
}

TEST(Adt, SequentialMapEveryVariant) {
  for (const std::string& name : zstm::api::variant_names()) {
    SCOPED_TRACE(name);
    zstm::api::visit_variant(
        name, {}, [](auto tag, const char*, const CommonConfig& cfg) {
          typename decltype(tag)::type stm(cfg);
          sequential_map_checks(stm);
        });
  }
}

TEST(Adt, InsertScratchReusedAcrossRetries) {
  // A body that deliberately aborts once must not leak one node per
  // attempt when given a scratch: the retry writes the same node.
  zstm::api::LsaStm stm;
  zstm::adt::TMap<zstm::api::LsaStm> map(stm, 4);
  zstm::adt::TMap<zstm::api::LsaStm>::Scratch scratch;
  int attempts = 0;
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    ++attempts;
    const bool inserted = map.put(tx, 42, 1, &scratch);
    if (attempts == 1) tx.abort();
    EXPECT_TRUE(inserted);
  });
  EXPECT_GE(attempts, 2);
  EXPECT_TRUE(scratch.allocated);
  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    auto v = map.get(tx, 42);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1);
  });
}

TEST(Adt, SetSemantics) {
  zstm::api::ZStm stm;
  zstm::adt::TSet<zstm::api::ZStm> set(stm, 4);
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    EXPECT_TRUE(set.insert(tx, 3));
    EXPECT_TRUE(set.insert(tx, 1));
    EXPECT_FALSE(set.insert(tx, 3));  // duplicate
    EXPECT_TRUE(set.contains(tx, 1));
    EXPECT_FALSE(set.contains(tx, 2));
    EXPECT_TRUE(set.erase(tx, 1));
    EXPECT_FALSE(set.erase(tx, 1));
  });
  stm.run(TxKind::kLong, [&](auto& tx) {
    auto a = set.audit(tx);
    EXPECT_EQ(a.size, 1u);
    EXPECT_TRUE(a.sorted);
  });
}

TEST(Adt, ConcurrentNetInsertsMatchSize) {
  // 4 mutator threads over a small keyrange; final audited size must equal
  // the net successful inserts. Exercises bucket-level conflicts.
  zstm::api::LsaStm stm;
  zstm::adt::TSet<zstm::api::LsaStm> set(stm, 8);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::atomic<long> net{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      zstm::util::Xorshift rng(static_cast<std::uint64_t>(t) + 99);
      long my_net = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = rng.next_below(64);
        if (rng.chance(0.5)) {
          bool ins = false;
          zstm::adt::TSet<zstm::api::LsaStm>::Scratch scratch;
          stm.run(TxKind::kUpdate,
                  [&](auto& tx) { ins = set.insert(tx, key, &scratch); });
          my_net += ins ? 1 : 0;
        } else {
          bool rm = false;
          stm.run(TxKind::kUpdate,
                  [&](auto& tx) { rm = set.erase(tx, key); });
          my_net -= rm ? 1 : 0;
        }
      }
      net.fetch_add(my_net);
    });
  }
  for (auto& w : workers) w.join();
  zstm::adt::AuditResult a;
  stm.run(TxKind::kLong, [&](auto& tx) { a = set.audit(tx); });
  EXPECT_TRUE(a.sorted);
  EXPECT_EQ(static_cast<long>(a.size), net.load());
}

}  // namespace
