// External-consumer smoke test: commits one transaction on every runtime
// variant through the installed package (built against find_package(zstm)
// instead of the source tree). Exercises the façade both ways — Stm<R>
// picked by name through visit_variant and a statically-typed Stm<R> —
// plus every raw runtime built from the one runtime::Config, so the
// installed header set covers the whole public surface.
//
// runtime/config.hpp comes first: it must compile on its own.
#include "runtime/config.hpp"

#include <cstdio>
#include <string>

#include "core/stm.hpp"

namespace {

/// One increment on a fresh variable through a raw runtime's own retry
/// loop (`run`, or zl's `run_short`).
template <typename R, typename Run>
bool commit_one(R& rt, Run&& run) {
  auto v = rt.template make_var<long>(1);
  auto th = rt.attach();
  return run(*th, [&](auto& tx) { tx.write(v) += 1; }).committed;
}

template <typename R>
bool commit_one(R& rt) {
  return commit_one(rt,
                    [&](auto& th, auto&& body) { return rt.run(th, body); });
}

}  // namespace

int main() {
  using zstm::api::TxKind;

  // Every variant by name: visit_variant resolves it to its Stm<R>.
  for (const std::string& name : zstm::api::variant_names()) {
    const long seen = zstm::api::visit_variant(
        name, {}, [](auto tag, const char*, const auto& cfg) {
          typename decltype(tag)::type stm(cfg);
          auto v = stm.template make_var<long>(1);
          stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(v) += 1; });
          long out = 0;
          stm.run(TxKind::kLong, [&](auto& tx) { out = tx.read(v); });
          return out;
        });
    if (seen != 2) {
      std::fprintf(stderr, "%s: unexpected value %ld\n", name.c_str(), seen);
      return 1;
    }
  }

  // Stm<R>, statically typed: the body gets zl's own handle.
  {
    zstm::api::ZStm stm;
    auto v = stm.make_var<long>(1);
    stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(v) += 1; });
  }

  // The raw per-runtime API stays public underneath the façade, and every
  // runtime takes the same Config.
  using zstm::runtime::Config;
  bool ok = true;
  {
    zstm::lsa::Runtime rt(Config{.max_threads = 4, .versions_kept = 4});
    ok = ok && commit_one(rt);
  }
  for (const int r : {4, 2}) {  // r = max_threads is cs-vc's vector clock
    zstm::cs::Runtime rt(Config{.max_threads = 4, .plausible_entries = r});
    ok = ok && commit_one(rt);
  }
  {
    zstm::sstm::Runtime rt(Config{.max_threads = 4, .versions_kept = 2});
    ok = ok && commit_one(rt);
  }
  {
    zstm::tl2::Runtime rt(Config{.max_threads = 4});
    ok = ok && commit_one(rt);
  }
  {
    zstm::zl::Runtime rt(
        Config{.max_threads = 4, .track_readonly_readsets = false});
    ok = ok && commit_one(rt, [&](auto& th, auto&& body) {
           return rt.run_short(th, body);
         });
  }
  if (!ok) {
    std::fprintf(stderr, "a raw runtime failed to commit\n");
    return 1;
  }

  std::printf("zstm consumer smoke test passed\n");
  return 0;
}
