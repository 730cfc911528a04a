// Quickstart: the library's public API in one minute.
//
//   $ ./quickstart [runtime]        # lsa | lsa-nors | cs-vc | cs-r | sstm | zl | tl2
//
// Everything goes through the one façade (zstm::api::Stm<R>): pick a
// runtime variant by name with api::visit_variant, create transactional
// variables, and run transactions — no explicit thread attachment (each
// thread attaches implicitly on its first transaction) and one TxKind enum
// instead of per-runtime entry points. The default variant is Z-STM, whose
// long transactions snapshot everything consistently without ever
// validating a read set.
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"

using zstm::api::TxKind;

template <typename S>
int run(S& stm, const char* name);

int main(int argc, char** argv) {
  // 1. One façade over every runtime in the library; "zl" is Z-STM. The
  //    name resolves once to a typed api::Stm<R> (statically:
  //    zstm::api::ZStm), and every access in the bodies is the runtime's
  //    own call.
  try {
    return zstm::api::visit_variant(
        argc > 1 ? argv[1] : "zl", {},
        [](auto tag, const char* name, const zstm::api::CommonConfig& cfg) {
          typename decltype(tag)::type stm(cfg);
          return run(stm, name);
        });
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}

template <typename S>
int run(S& stm, const char* name) {
  // 2. Transactional variables hold any copyable type on the object-based
  //    runtimes. The word-granularity "tl2" runtime stores values in raw
  //    words, so it requires trivially copyable types (≤ 224 bytes) — this
  //    example uses a POD label so it runs on every variant.
  struct Label {
    char text[24];
  };
  auto counter = stm.template make_var<long>(0);
  auto label = stm.template make_var<Label>(Label{"start"});

  // 3. Worker threads just run transactions — the first one attaches the
  //    thread. A body may be re-executed on conflict, so keep it free of
  //    side effects; the TxAborted retry token must propagate out of it.
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&stm, &counter, &label, t] {
      for (int i = 0; i < 10000; ++i) {
        stm.run(TxKind::kUpdate, [&](auto& tx) {
          tx.write(counter) += 1;  // read-modify-write
          if (tx.read(counter) % 5000 == 0) {
            Label l{};
            std::snprintf(l.text, sizeof l.text, "thread %d", t);
            tx.write(label, l);
          }
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  // 4. Long transactions snapshot many objects consistently; under Z-STM
  //    they commit with a single counter check (no read-set validation).
  //    On other variants TxKind::kLong runs an ordinary transaction.
  long final_count = 0;
  Label final_label{};
  const zstm::api::RunResult res = stm.run(TxKind::kLong, [&](auto& tx) {
    final_count = tx.read(counter);
    final_label = tx.read(label);
  });

  std::printf("runtime = %s\n", name);
  std::printf("counter = %ld (expected 20000, %u attempt%s)\n", final_count,
              res.attempts, res.attempts == 1 ? "" : "s");
  std::printf("label   = \"%s\"\n", final_label.text);
  std::printf("stats   : %s\n", stm.stats().to_string().c_str());
  return final_count == 20000 ? 0 : 1;
}
