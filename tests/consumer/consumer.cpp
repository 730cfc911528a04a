// External-consumer smoke test: commits one transaction on every runtime
// variant through the installed package (built against find_package(zstm)
// instead of the source tree). Exercises both façade flavours — AnyStm by
// name and a statically-typed Stm<R> — plus one raw-runtime call, so the
// installed header set covers the whole public surface.
#include <cstdio>
#include <string>

#include "core/stm.hpp"

int main() {
  using zstm::api::TxKind;

  // Every variant by name through the type-erased façade.
  for (const std::string& name : zstm::api::AnyStm::variant_names()) {
    zstm::api::AnyStm stm = zstm::api::AnyStm::make(name);
    auto v = stm.make_var<long>(1);
    stm.run(TxKind::kUpdate, [&](auto& tx) { tx.write(v) += 1; });
    long seen = 0;
    stm.run(TxKind::kLong, [&](auto& tx) { seen = tx.read(v); });
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

  // The raw per-runtime API stays public underneath the façade.
  {
    zstm::lsa::Runtime rt;
    auto v = rt.make_var<long>(1);
    auto th = rt.attach();
    const zstm::runtime::RunResult r =
        rt.run(*th, [&](zstm::lsa::Tx& tx) { tx.write(v) += 1; });
    if (!r.committed) return 1;
  }

  std::printf("zstm consumer smoke test passed\n");
  return 0;
}
