// The paper's bank micro-benchmark (§5.5), shared by bench_fig6/bench_fig7
// and the bank example.
//
// Setup, following the paper exactly:
//  * 1,000 accounts.
//  * Transfer: withdraw from one account, deposit to another (small update
//    transaction).
//  * Compute-Total: sum of all account balances (long transaction), in two
//    variants — read-only, or an update writing "private but transactional
//    state" (a sink object only Compute-Total touches).
//  * Thread 0 runs transfers with 80% probability and Compute-Total with
//    20%; all other threads run only transfers.
//
// The harness is one generic `Bank<S>` over the zstm::api façade: S is
// `api::Stm<R>` (compiled-in runtime, zero-cost) or `api::AnyStm` (runtime
// picked by name — how bench_fig6/fig7 cover all five variants and
// examples/bank.cpp grows a --runtime flag). Transfers run as
// TxKind::kUpdate, Compute-Total as kLong / kLongUpdate — Z-STM maps those
// onto Algorithm 2, every other runtime onto its ordinary transactions.
//
// Long transactions that cannot commit within an attempt budget are
// abandoned and counted as failed episodes — under LSA with update
// Compute-Total this is the common case (the Figure 7 collapse); retrying
// forever would wedge the thread instead of measuring the starvation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/stm_api.hpp"
#include "util/rng.hpp"

namespace zstm::bench {

struct BankParams {
  int accounts = 1000;
  int threads = 1;
  std::chrono::milliseconds duration{200};
  bool update_total = false;
  double long_probability = 0.2;
  std::uint32_t long_attempt_budget = 24;
  std::uint64_t seed = 9;
};

struct BankResult {
  double compute_total_per_s = 0;
  double transfer_per_s = 0;
  std::uint64_t compute_total_commits = 0;
  std::uint64_t compute_total_failures = 0;  // budget-exhausted episodes
  std::uint64_t transfer_commits = 0;
};

/// Config sized for a bank run: the workload's threads plus headroom for
/// the main thread and stragglers.
inline api::CommonConfig bank_config(const BankParams& p) {
  api::CommonConfig cfg;
  cfg.max_threads = p.threads + 2;
  return cfg;
}

/// The paper's bank over any façade (api::Stm<R> or api::AnyStm). Threads
/// attach implicitly on their first transaction.
template <typename S>
class Bank {
 public:
  Bank(S stm, const BankParams& p) : stm_(std::move(stm)) {
    for (int i = 0; i < p.accounts; ++i) {
      accounts_.push_back(stm_.make_var(1000L));
    }
    sink_ = stm_.make_var(0L);
  }

  S& stm() { return stm_; }

  void transfer(std::size_t from, std::size_t to, long amount) {
    stm_.run(api::TxKind::kUpdate, [&](auto& tx) {
      tx.write(accounts_[from]) -= amount;
      tx.write(accounts_[to]) += amount;
    });
  }

  /// One Compute-Total episode; false = attempt budget exhausted.
  bool compute_total(bool update, std::uint32_t attempt_budget) {
    const api::RunResult r = stm_.run(
        update ? api::TxKind::kLongUpdate : api::TxKind::kLong,
        [&](auto& tx) {
          long total = 0;
          for (auto& acc : accounts_) total += tx.read(acc);
          if (update) tx.write(sink_, total);
        },
        attempt_budget);
    return r.committed;
  }

  /// Conservation check: the committed sum of all accounts.
  long total_balance() {
    long total = 0;
    stm_.run(api::TxKind::kReadOnly, [&](auto& tx) {
      total = 0;
      for (auto& acc : accounts_) total += tx.read(acc);
    });
    return total;
  }

 private:
  S stm_;
  std::vector<typename S::template Var<long>> accounts_;
  typename S::template Var<long> sink_;
};

template <typename S>
BankResult run_bank(Bank<S>& bank, const BankParams& p) {
  std::atomic<std::uint64_t> ct_commits{0};
  std::atomic<std::uint64_t> ct_failures{0};
  std::atomic<std::uint64_t> tr_commits{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < p.threads; ++t) {
    workers.emplace_back([&, t] {
      util::Xorshift rng(p.seed + static_cast<std::uint64_t>(t) * 1609);
      std::uint64_t my_ct = 0, my_ct_fail = 0, my_tr = 0;
      const auto n = static_cast<std::uint64_t>(p.accounts);
      while (!stop.load(std::memory_order_acquire)) {
        if (t == 0 && rng.chance(p.long_probability)) {
          if (bank.compute_total(p.update_total, p.long_attempt_budget)) {
            ++my_ct;
          } else {
            ++my_ct_fail;
          }
        } else {
          const std::size_t from = rng.next_below(n);
          std::size_t to = rng.next_below(n);
          if (to == from) to = (to + 1) % n;
          bank.transfer(from, to, 1 + static_cast<long>(rng.next_below(90)));
          ++my_tr;
        }
      }
      ct_commits.fetch_add(my_ct);
      ct_failures.fetch_add(my_ct_fail);
      tr_commits.fetch_add(my_tr);
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(p.duration);
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  BankResult r;
  r.compute_total_commits = ct_commits.load();
  r.compute_total_failures = ct_failures.load();
  r.transfer_commits = tr_commits.load();
  r.compute_total_per_s = static_cast<double>(r.compute_total_commits) / secs;
  r.transfer_per_s = static_cast<double>(r.transfer_commits) / secs;
  return r;
}

/// Build a bank over a by-name runtime and run it — the one-call form the
/// figure benches and the example share. Dispatches at compile time to
/// api::Stm<R> (a switch over the variant names, bodies on native handles),
/// so the figure numbers measure the native access path, not AnyStm's
/// erased-handle indirection. `conserved_total`, when given, receives the
/// post-run sum of all accounts (the §5.5 conservation invariant).
/// Throws std::invalid_argument for unknown names (like AnyStm::make).
template <typename S>
BankResult run_stm_bank(S stm, const BankParams& p, long* conserved_total) {
  Bank<S> bank(std::move(stm), p);
  BankResult r = run_bank(bank, p);
  if (conserved_total != nullptr) *conserved_total = bank.total_balance();
  return r;
}

inline BankResult run_named_bank(const std::string& runtime_name,
                                 const BankParams& p,
                                 long* conserved_total = nullptr) {
  return api::visit_variant(
      runtime_name, bank_config(p),
      [&](auto tag, const char*, const api::CommonConfig& cfg) {
        using S = typename decltype(tag)::type;
        return run_stm_bank(S(cfg), p, conserved_total);
      });
}

}  // namespace zstm::bench
