// Zone anatomy demo: watch z-linearizability's "time zones" (§5, Figure 5)
// form in real time.
//
//   $ ./zone_report [seconds]
//
// An inventory of products receives a stream of short order transactions
// while a reporting thread repeatedly runs a long transaction that computes
// a full stock/revenue report. The demo prints the zone counter ZC, the
// commit counter CT, how many shorts landed in each zone, and verifies the
// recorded history against the z-linearizability checker.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "core/stm.hpp"
#include "util/rng.hpp"

namespace {

struct Product {
  long stock = 100;
  long sold = 0;
  long revenue = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 1.0;
  constexpr int kProducts = 64;
  constexpr int kOrderThreads = 3;

  zstm::zl::Config cfg;
  cfg.record_history = true;
  zstm::zl::Runtime rt(cfg);

  std::vector<zstm::lsa::Var<Product>> products;
  for (int i = 0; i < kProducts; ++i) {
    products.push_back(rt.make_var<Product>(Product{}));
  }
  auto report_sink = rt.make_var<long>(0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> orders{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kOrderThreads; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt.attach();
      zstm::util::Xorshift rng(static_cast<std::uint64_t>(t) + 42);
      std::uint64_t my = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t p = rng.next_below(kProducts);
        const long qty = 1 + static_cast<long>(rng.next_below(3));
        const long price = 5 + static_cast<long>(rng.next_below(20));
        rt.run_short(*th, [&](zstm::zl::ShortTx& tx) {
          Product& prod = tx.write(products[p]);
          if (prod.stock >= qty) {
            prod.stock -= qty;
            prod.sold += qty;
            prod.revenue += qty * price;
          } else {
            prod.stock += 50;  // restock instead
          }
        });
        ++my;
      }
      orders.fetch_add(my);
    });
  }

  auto th = rt.attach();
  int reports = 0;
  long last_units = 0;
  bool consistent = true;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(seconds * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    long units = 0, sold = 0;
    rt.run_long(*th, [&](zstm::zl::LongTx& tx) {
      units = 0;
      sold = 0;
      long revenue = 0;
      for (auto& p : products) {
        const Product& prod = tx.read(p);
        units += prod.stock;
        sold += prod.sold;
        revenue += prod.revenue;
      }
      tx.write(report_sink, revenue);
    });
    // Invariant: every unit is either in stock or sold, and restocks only
    // add in multiples of 50 on top of the initial 100 per product.
    if ((units + sold - kProducts * 100) % 50 != 0) consistent = false;
    last_units = units;
    ++reports;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  const auto history = rt.collect_history();
  std::map<std::uint64_t, int> zone_sizes;
  for (const auto& t : history.txs) {
    if (t.committed && t.tx_class == zstm::runtime::TxClass::kShort) {
      ++zone_sizes[t.zone];
    }
  }
  const auto verdict = zstm::history::check_z_linearizable(history);

  std::printf("zone_report: %llu orders, %d reports, stock units now %ld\n",
              static_cast<unsigned long long>(orders.load()), reports,
              last_units);
  std::printf("  zone counter ZC = %llu, commit counter CT = %llu\n",
              static_cast<unsigned long long>(rt.zone_counter()),
              static_cast<unsigned long long>(rt.commit_time()));
  std::printf("  shorts per zone (zone: count):");
  int shown = 0;
  for (const auto& [zone, n] : zone_sizes) {
    if (shown++ == 8) {
      std::printf(" ...");
      break;
    }
    std::printf(" %llu:%d", static_cast<unsigned long long>(zone), n);
  }
  std::printf("\n  report invariant: %s\n", consistent ? "OK" : "BROKEN");
  std::printf("  z-linearizability check over %zu committed txs: %s %s\n",
              history.committed_count(), verdict.ok ? "PASS" : "FAIL",
              verdict.reason.c_str());
  return (consistent && verdict.ok) ? 0 : 1;
}
