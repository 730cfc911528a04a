// Smoke canary: commit one transaction on every runtime variant through
// the façade — statically via api::Stm<R> (native handles) and by name
// via api::visit_variant (all seven variant names, covering the five
// runtimes). CTest labels this suite `smoke` so CI can gate on it before
// the slow stress suites run.
#include <gtest/gtest.h>

#include "core/stm.hpp"

namespace zstm {
namespace {

using api::TxKind;

template <typename S>
void commit_one(S& stm) {
  auto x = stm.make_var(1);
  stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(x, tx.read(x) + 1); });
  stm.run(TxKind::kLongUpdate,
          [&](auto& tx) { tx.write(x) = tx.read(x) + 1; });
  stm.run(TxKind::kReadOnly, [&](auto& tx) { EXPECT_EQ(tx.read(x), 3); });
  stm.run(TxKind::kLong, [&](auto& tx) { EXPECT_EQ(tx.read(x), 3); });
}

TEST(Smoke, LsaCommitsThroughFacade) {
  api::LsaStm stm;
  commit_one(stm);
}

TEST(Smoke, CsVectorClockCommitsThroughFacade) {
  api::CommonConfig cfg;
  cfg.plausible_entries = cfg.max_threads;
  api::CsStm stm(cfg);
  commit_one(stm);
}

TEST(Smoke, CsPlausibleClockCommitsThroughFacade) {
  api::CommonConfig cfg;
  cfg.plausible_entries = 2;
  api::CsStm stm(cfg);
  commit_one(stm);
}

TEST(Smoke, SstmCommitsThroughFacade) {
  api::SStm stm;
  commit_one(stm);
}

TEST(Smoke, ZstmCommitsShortAndLongThroughFacade) {
  api::ZStm stm;
  commit_one(stm);
}

TEST(Smoke, Tl2CommitsThroughFacade) {
  api::Tl2Stm stm;
  commit_one(stm);
}

TEST(Smoke, EveryNamedVariantCommits) {
  for (const std::string& name : api::variant_names()) {
    SCOPED_TRACE(name);
    api::visit_variant(
        name, {}, [&](auto tag, const char* canonical,
                      const api::CommonConfig& cfg) {
          typename decltype(tag)::type stm(cfg);
          commit_one(stm);
          EXPECT_EQ(canonical, name);
          EXPECT_GE(stm.stats()[util::Counter::kCommits], 4u);
        });
  }
}

// The raw per-runtime APIs stay public and unchanged underneath the
// façade; keep one raw-API commit in the canary.
TEST(Smoke, RawRuntimeApiStillWorks) {
  zl::Runtime rt;
  auto x = rt.make_var<int>(1);
  auto th = rt.attach();
  const runtime::RunResult r =
      rt.run_short(*th, [&](zl::ShortTx& tx) { tx.write(x, tx.read(x) + 1); });
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(r.attempts, 1u);
  rt.run_long(*th, [&](zl::LongTx& tx) { EXPECT_EQ(tx.read(x), 2); });
}

}  // namespace
}  // namespace zstm
