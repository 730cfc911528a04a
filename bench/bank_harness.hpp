// The paper's bank micro-benchmark (§5.5), shared by zstm_bench's bank
// sections and the bank example.
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
// Other sections are settings of the same bank: `long_probability` 0 is a
// transfer-only run, 1 a thread 0 that only scans, and
// `read_only_transfers` turns each transfer into a two-account read.
//
// The harness is one generic `Bank<S>` over the zstm::api façade: S is an
// `api::Stm<R>`, and `run_named_bank` picks R by name through
// `api::visit_variant`. Transfers run as TxKind::kUpdate, Compute-Total as
// kLong / kLongUpdate — Z-STM maps those onto Algorithm 2, every other
// runtime onto its ordinary transactions.
//
// Long transactions that cannot commit within an attempt budget are
// abandoned and counted as failed episodes — under LSA with update
// Compute-Total this is the common case (the Figure 7 collapse); retrying
// forever would wedge the thread instead of measuring the starvation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/stm_api.hpp"
#include "trial.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace zstm::bench {

/// Every account's opening balance; transfers conserve the sum.
inline constexpr long kInitialBalance = 1000;

struct BankParams {
  int accounts = 1000;
  int threads = 1;
  std::chrono::milliseconds warmup{0};
  std::chrono::milliseconds duration{200};
  bool update_total = false;
  /// Thread 0's share of Compute-Total episodes (the others only transfer).
  double long_probability = 0.2;
  /// Aborted attempts before an episode is abandoned; 0 retries until it
  /// commits.
  std::uint32_t long_attempt_budget = 24;
  /// Transfers only read their two accounts, as one kReadOnly transaction.
  bool read_only_transfers = false;
  std::uint64_t seed = 9;
};

struct BankResult {
  double compute_total_per_s = 0;
  double transfer_per_s = 0;
  std::uint64_t compute_total_commits = 0;
  std::uint64_t compute_total_failures = 0;  // budget-exhausted episodes
  std::uint64_t compute_total_attempts = 0;
  std::uint64_t transfer_commits = 0;
  double seconds = 0;             // the measured window (trial.hpp)
  std::uint64_t heap_allocs = 0;  // workers' operator-new calls (trial.hpp)
  util::StatsSnapshot stats;      // the runtime's counters over the window
  long total = 0;                 // committed sum of all accounts afterwards
};

/// Config sized for a bank run: the workload's threads plus headroom for
/// the main thread and stragglers.
inline api::CommonConfig bank_config(const BankParams& p) {
  api::CommonConfig cfg;
  cfg.max_threads = p.threads + 2;
  return cfg;
}

/// The paper's bank over an api::Stm<R>. Threads attach implicitly on
/// their first transaction.
template <typename S>
class Bank {
 public:
  Bank(S stm, const BankParams& p) : stm_(std::move(stm)) {
    for (int i = 0; i < p.accounts; ++i) {
      accounts_.push_back(stm_.make_var(kInitialBalance));
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

  long read_pair(std::size_t a, std::size_t b) {
    long sum = 0;
    stm_.run(api::TxKind::kReadOnly, [&](auto& tx) {
      sum = tx.read(accounts_[a]) + tx.read(accounts_[b]);
    });
    return sum;
  }

  /// One Compute-Total episode; `committed == false` when the attempt
  /// budget ran out.
  api::RunResult compute_total(bool update, std::uint32_t attempt_budget) {
    return stm_.run(
        update ? api::TxKind::kLongUpdate : api::TxKind::kLong,
        [&](auto& tx) {
          long total = 0;
          for (auto& acc : accounts_) total += tx.read(acc);
          if (update) tx.write(sink_, total);
        },
        attempt_budget);
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

/// Runs the bank's workload on p.threads workers for one trial (trial.hpp);
/// the runtime's stats are reset as the measured window opens.
template <typename S>
BankResult run_bank(Bank<S>& bank, const BankParams& p) {
  struct Counts {
    std::uint64_t transfers = 0, totals = 0, failures = 0, attempts = 0;
    Counts& operator+=(const Counts& o) {
      transfers += o.transfers;
      totals += o.totals;
      failures += o.failures;
      attempts += o.attempts;
      return *this;
    }
  };
  const auto n = static_cast<std::uint64_t>(p.accounts);
  const auto make_op = [&](int t) {
    return [&, t, rng = util::Xorshift(
                      p.seed + static_cast<std::uint64_t>(t) * 1609)](
               Counts& c) mutable {
      if (t == 0 && rng.chance(p.long_probability)) {
        const api::RunResult r =
            bank.compute_total(p.update_total, p.long_attempt_budget);
        ++(r.committed ? c.totals : c.failures);
        c.attempts += r.attempts;
        return;
      }
      const std::size_t from = rng.next_below(n);
      std::size_t to = rng.next_below(n);
      if (to == from) to = (to + 1) % n;
      if (p.read_only_transfers) {
        bank.read_pair(from, to);
      } else {
        bank.transfer(from, to, 1 + static_cast<long>(rng.next_below(90)));
      }
      ++c.transfers;
    };
  };
  const Trial<Counts> trial =
      run_trial<Counts>(p.threads, {p.warmup, p.duration}, make_op,
                        [&] { bank.stm().reset_stats(); });

  BankResult r;
  r.compute_total_commits = trial.counts.totals;
  r.compute_total_failures = trial.counts.failures;
  r.compute_total_attempts = trial.counts.attempts;
  r.transfer_commits = trial.counts.transfers;
  r.seconds = trial.seconds;
  r.compute_total_per_s =
      static_cast<double>(r.compute_total_commits) / trial.seconds;
  r.transfer_per_s = static_cast<double>(r.transfer_commits) / trial.seconds;
  r.heap_allocs = trial.heap_allocs;
  r.stats = bank.stm().stats();
  return r;
}

/// Build a bank over a by-name runtime, run it, then count the money — the
/// one-call form the bench sections and the example share. Dispatches at
/// compile time to api::Stm<R> (api::visit_variant; bodies on native
/// handles), so the numbers measure the native access path. Throws
/// std::invalid_argument for unknown names.
inline BankResult run_named_bank(const std::string& runtime_name,
                                 const BankParams& p,
                                 const api::CommonConfig& cfg) {
  return api::visit_variant(
      runtime_name, cfg,
      [&](auto tag, const char*, const api::CommonConfig& variant_cfg) {
        using S = typename decltype(tag)::type;
        Bank<S> bank(S(variant_cfg), p);
        BankResult r = run_bank(bank, p);
        r.total = bank.total_balance();
        return r;
      });
}

}  // namespace zstm::bench
