// Transactional set workload — now a thin client of the adt:: library
// (src/adt/tmap.hpp), which was promoted from this example's hand-rolled
// sorted list. Runs on any runtime variant through the façade.
//
//   $ ./tset [variant] [threads] [seconds] [keyrange]
//
// Mutator threads insert/remove/lookup random keys with short update
// transactions while the main thread audits the whole structure with
// TxKind::kLong transactions (a real Z-STM long transaction under "zl";
// an ordinary read-only transaction elsewhere) — the audit must always see
// sorted buckets. At the end, the size must equal the net inserts on every
// serializable variant. cs-vc and cs-r only promise causal serializability,
// under which two updates that write different nodes may commit together:
// an insert behind node N with N's erase (the insert is lost), or the
// erases of two adjacent nodes (one stays). There the drift is printed as
// what the criterion admits, and only sortedness is checked.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "adt/tmap.hpp"
#include "api/stm_api.hpp"
#include "util/rng.hpp"

using zstm::api::TxKind;

template <typename S>
int run(S& stm, const char* name, int threads, double seconds,
        std::uint64_t keyrange) {
  zstm::adt::TSet<S> set(stm, 16);
  using Scratch = typename zstm::adt::TSet<S>::Scratch;

  std::atomic<bool> stop{false};
  std::atomic<long> net_inserts{0};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      zstm::util::Xorshift rng(static_cast<std::uint64_t>(t) + 1);
      long my_net = 0;
      std::uint64_t my_ops = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t key = rng.next_below(keyrange);
        const double dice = rng.next_unit();
        if (dice < 0.4) {
          bool inserted = false;
          Scratch scratch;  // reused across retries of this insert
          stm.run(TxKind::kUpdate, [&](auto& tx) {
            inserted = set.insert(tx, key, &scratch);
          });
          my_net += inserted ? 1 : 0;
        } else if (dice < 0.8) {
          bool removed = false;
          stm.run(TxKind::kUpdate,
                  [&](auto& tx) { removed = set.erase(tx, key); });
          my_net -= removed ? 1 : 0;
        } else {
          stm.run(TxKind::kReadOnly,
                  [&](auto& tx) { (void)set.contains(tx, key); });
        }
        ++my_ops;
      }
      net_inserts.fetch_add(my_net);
      ops.fetch_add(my_ops);
    });
  }

  // Periodic long-transaction audits from the main thread while the
  // mutators run: every snapshot must be internally consistent.
  int audits = 0;
  bool always_sorted = true;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(seconds * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    zstm::adt::AuditResult a;
    stm.run(TxKind::kLong, [&](auto& tx) { a = set.audit(tx); });
    always_sorted &= a.sorted;
    ++audits;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  zstm::adt::AuditResult final_audit;
  stm.run(TxKind::kLong, [&](auto& tx) { final_audit = set.audit(tx); });
  std::printf("tset[%s]: %llu ops, %d live audits, final size %llu\n", name,
              static_cast<unsigned long long>(ops.load()), audits,
              static_cast<unsigned long long>(final_audit.size));
  std::printf("  sortedness: %s (all audits: %s)\n",
              final_audit.sorted ? "OK" : "BROKEN",
              always_sorted ? "OK" : "BROKEN");
  const long net = net_inserts.load();
  const bool size_ok = static_cast<long>(final_audit.size) == net;
  const bool causal =
      std::string_view(name) == "cs-vc" || std::string_view(name) == "cs-r";
  if (causal) {
    std::printf("  size vs net inserts: %llu vs %ld, a drift causal "
                "serializability admits\n",
                static_cast<unsigned long long>(final_audit.size), net);
  } else {
    std::printf("  size matches net inserts: %s (%ld)\n",
                size_ok ? "OK" : "BROKEN", net);
  }
  return (final_audit.sorted && always_sorted && (causal || size_ok)) ? 0 : 1;
}

int main(int argc, char** argv) {
  const char* variant = argc > 1 ? argv[1] : "zl";
  const int threads = argc > 2 ? std::atoi(argv[2]) : 4;
  const double seconds = argc > 3 ? std::atof(argv[3]) : 1.0;
  const std::uint64_t keyrange = argc > 4 ? std::strtoull(argv[4], nullptr, 10)
                                          : 256;
  try {
    return zstm::api::visit_variant(
        variant, {},
        [&](auto tag, const char* name, const zstm::api::CommonConfig& cfg) {
          typename decltype(tag)::type stm(cfg);
          return run(stm, name, threads, seconds, keyrange);
        });
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
