// The bank phase of every run: the paper's §5.5 bank, closed loop, 1,000
// accounts and 4 threads, over every variant through the zero-cost
// api::Stm<R> (api::visit_variant). Thread 0 runs 80% transfers and 20%
// read-only Compute-Total (TxKind::kLong, budget 24 attempts); the other
// threads run transfers only. Accounts are drawn uniformly, as in the
// paper, from a table made at set-up, so the draw costs one load.
//
// The variants take turns in short slices, round after round, so a slow
// stretch of the host lands on every variant alike; each rate is the median
// of all its windows.
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "common.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace api = zstm::api;
using zstm::util::Counter;

constexpr int kAccounts = 1000;
constexpr int kThreads = 4;
constexpr long kInitial = 1000;
constexpr long kExpectedTotal = kAccounts * kInitial;
/// Thread 0 runs Compute-Total when its drawn amount (1..90) is at most
/// this: 18 of 90 draws, 20%.
constexpr std::uint8_t kLongCutoff = 18;
constexpr std::uint32_t kLongBudget = 24;
constexpr int kRounds = 6;
constexpr int kWindowsPerSlice = 4;
constexpr int kSetupRounds = 9;
constexpr std::size_t kPicks = 1 << 16;  // account draws per thread, cycled
/// Every Nth transaction of a traced run is also kept as a span.
constexpr std::uint64_t kSpanStride = 64;
/// Transfer durations kept per thread and slice of a traced run.
constexpr std::size_t kMaxDurations = 1 << 16;

/// Set once: --inject-wrong perturbs the first committed Compute-Total.
std::atomic<bool> g_injected{false};

template <typename S>
struct BankState {
  S stm;
  std::vector<typename S::template Var<long>> accounts;

  explicit BankState(const api::CommonConfig& cfg) : stm(cfg) {
    accounts.reserve(kAccounts);
    for (int i = 0; i < kAccounts; ++i) accounts.push_back(stm.make_var(kInitial));
  }

  long total() {
    long sum = 0;
    stm.run(api::TxKind::kReadOnly, [&](auto& tx) {
      sum = 0;
      for (auto& a : accounts) sum += tx.read(a);
    });
    return sum;
  }
};

/// One thread's precomputed draws: account pairs and amounts.
struct Draws {
  std::vector<std::uint16_t> account;
  std::vector<std::uint8_t> amount;  // 1..90; also picks Compute-Total
};

Draws make_draws(std::uint64_t seed) {
  Draws d;
  d.account.resize(kPicks);
  d.amount.resize(kPicks);
  zstm::util::Xorshift rng(seed * 31 + 7);
  for (std::size_t i = 0; i < kPicks; ++i) {
    d.account[i] = static_cast<std::uint16_t>(rng.next_below(kAccounts));
    d.amount[i] = static_cast<std::uint8_t>(1 + rng.next_below(90));
  }
  return d;
}

/// One thread's counters. The atomics have one writer (the thread) and are
/// sampled by the coordinator at window edges; the rest is read after join.
struct ThreadCell {
  std::atomic<std::uint64_t> transfers{0};
  std::atomic<std::uint64_t> long_commits{0};
  std::uint64_t long_abandoned = 0;
  std::uint64_t wrong_totals = 0;
  std::uint64_t attempts = 0;
  std::uint64_t cpu_ns = 0;
  std::vector<std::uint32_t> transfer_ns;
  Samples long_us;
  SpanLog spans;
};

/// Everything one variant accumulates over its slices in one mode.
struct Totals {
  std::vector<double> tx_rates;
  std::vector<double> long_rates;
  std::uint64_t transfers = 0;
  std::uint64_t long_commits = 0;
  std::uint64_t long_abandoned = 0;
  std::uint64_t wrong_totals = 0;
  std::uint64_t unconserved = 0;  // slices after which the total was off
  // Traced mode only.
  Samples transfer_ns;
  Samples long_us;
  std::uint64_t attempts = 0;
  std::uint64_t worker_transfers = 0;  // threads 1..3: transfers only
  std::uint64_t worker_cpu_ns = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

void bump(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// One slice: the four threads run for `secs`; a short warm-up, then
/// kWindowsPerSlice equal windows whose rates go into `out`.
template <typename S>
void slice(BankState<S>& bank, const std::vector<Draws>& draws, double secs,
           bool trace, std::uint64_t phase, std::uint64_t slice_no,
           const Options& opt, Totals& out, Report& rep) {
  std::vector<zstm::util::Padded<ThreadCell>> cells(kThreads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  const zstm::util::StatsSnapshot stats0 = bank.stm.stats();

  auto body = [&](int t) {
    ThreadCell& c = cells[static_cast<std::size_t>(t)].value;
    const Draws& d = draws[static_cast<std::size_t>(t)];
    if (trace) c.transfer_ns.reserve(kMaxDurations);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const std::uint64_t cpu0 = thread_cpu_ns();
    std::uint64_t seq = slice_no << 32;
    std::size_t k = (static_cast<std::size_t>(t) * 4099 + slice_no * 977) % kPicks;
    while (!stop.load(std::memory_order_relaxed)) {
      ++seq;
      k = (k + 2) % kPicks;
      const std::uint64_t t0 = trace ? now_ns() : 0;
      if (t == 0 && d.amount[k] <= kLongCutoff) {
        long sum = 0;
        const api::RunResult r = bank.stm.run(
            api::TxKind::kLong,
            [&](auto& tx) {
              sum = 0;
              for (auto& a : bank.accounts) sum += tx.read(a);
            },
            kLongBudget);
        if (trace) {
          const std::uint64_t t1 = now_ns();
          c.long_us.add(static_cast<double>(t1 - t0) / 1e3);
          if (seq % kSpanStride == 0) {
            c.spans.add(span_id(phase, static_cast<std::uint64_t>(t), seq), 0,
                        kSpanLong, t0, t1);
          }
        }
        if (r.committed) {
          if (opt.inject_wrong && !g_injected.exchange(true)) sum += 1;
          if (sum != kExpectedTotal) ++c.wrong_totals;
          bump(c.long_commits);
        } else {
          ++c.long_abandoned;
        }
      } else {
        const std::size_t from = d.account[k];
        std::size_t to = d.account[(k + 1) % kPicks];
        if (to == from) to = (to + 1) % kAccounts;
        const long amount = d.amount[k];
        const api::RunResult r = bank.stm.run(api::TxKind::kUpdate, [&](auto& tx) {
          tx.write(bank.accounts[from]) -= amount;
          tx.write(bank.accounts[to]) += amount;
        });
        if (trace) {
          const std::uint64_t t1 = now_ns();
          if (c.transfer_ns.size() < kMaxDurations) {
            c.transfer_ns.push_back(static_cast<std::uint32_t>(
                std::min<std::uint64_t>(t1 - t0, UINT32_MAX)));
          }
          c.attempts += r.attempts;
          if (seq % kSpanStride == 0) {
            c.spans.add(span_id(phase, static_cast<std::uint64_t>(t), seq), 0,
                        kSpanTransfer, t0, t1);
          }
        }
        bump(c.transfers);
      }
    }
    c.cpu_ns = thread_cpu_ns() - cpu0;
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  while (ready.load() < kThreads) std::this_thread::yield();

  auto totals = [&] {
    std::array<std::uint64_t, 2> s{0, 0};
    for (auto& pc : cells) {
      s[0] += pc.value.transfers.load(std::memory_order_relaxed);
      s[1] += pc.value.long_commits.load(std::memory_order_relaxed);
    }
    return s;
  };

  const std::uint64_t warm_ns = static_cast<std::uint64_t>(secs * 0.1e9);
  const std::uint64_t win_ns =
      static_cast<std::uint64_t>(secs * 0.9e9) / kWindowsPerSlice;
  go.store(true, std::memory_order_release);
  const std::uint64_t start = now_ns();
  std::this_thread::sleep_for(std::chrono::nanoseconds(warm_ns));
  std::array<std::uint64_t, 2> prev = totals();
  std::uint64_t prev_t = now_ns();
  for (int w = 1; w <= kWindowsPerSlice; ++w) {
    const std::uint64_t edge = start + warm_ns + win_ns * static_cast<std::uint64_t>(w);
    const std::uint64_t now = now_ns();
    if (edge > now) std::this_thread::sleep_for(std::chrono::nanoseconds(edge - now));
    const std::array<std::uint64_t, 2> cur = totals();
    const std::uint64_t t = now_ns();
    const double dt = static_cast<double>(t - prev_t) / 1e9;
    out.tx_rates.push_back(static_cast<double>(cur[0] - prev[0]) / dt);
    out.long_rates.push_back(static_cast<double>(cur[1] - prev[1]) / dt);
    prev = cur;
    prev_t = t;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ThreadCell& c = cells[static_cast<std::size_t>(t)].value;
    const std::uint64_t tr = c.transfers.load();
    out.transfers += tr;
    out.long_commits += c.long_commits.load();
    out.long_abandoned += c.long_abandoned;
    out.wrong_totals += c.wrong_totals;
    if (trace) {
      for (const std::uint32_t ns : c.transfer_ns) out.transfer_ns.add(ns);
      out.long_us.append(c.long_us);
      out.attempts += c.attempts;
      rep.keep_spans(c.spans);
      if (t > 0) {
        out.worker_transfers += tr;
        out.worker_cpu_ns += c.cpu_ns;
      }
    }
  }
  if (trace) {
    const zstm::util::StatsSnapshot stats1 = bank.stm.stats();
    out.pool_hits += stats1[Counter::kPoolHits] - stats0[Counter::kPoolHits];
    out.pool_misses += stats1[Counter::kPoolMisses] - stats0[Counter::kPoolMisses];
  }
  if (bank.total() != kExpectedTotal) ++out.unconserved;
}

/// One variant's bank, kept alive across rounds behind a common interface.
class Runner {
 public:
  virtual ~Runner() = default;
  virtual void run_slice(double secs, bool trace, std::uint64_t slice_no,
                         Totals& out, Report& rep) = 0;
};

template <typename S>
class RunnerT final : public Runner {
 public:
  RunnerT(const api::CommonConfig& cfg, const std::vector<Draws>& draws,
          std::uint64_t phase, const Options& opt)
      : bank_(cfg), draws_(draws), phase_(phase), opt_(opt) {}

  void run_slice(double secs, bool trace, std::uint64_t slice_no, Totals& out,
                 Report& rep) override {
    slice(bank_, draws_, secs, trace, phase_, slice_no, opt_, out, rep);
  }

 private:
  BankState<S> bank_;
  const std::vector<Draws>& draws_;
  std::uint64_t phase_;
  const Options& opt_;
};

api::CommonConfig bank_config() {
  api::CommonConfig cfg;
  cfg.max_threads = kThreads + 2;
  return cfg;
}

void account(const std::string& name, const Totals& r, Report& rep,
             const char* mode) {
  rep.attempted += r.transfers + r.long_commits + kRounds;
  if (r.wrong_totals != 0) {
    rep.violation(name + ": " + std::to_string(r.wrong_totals) +
                      " Compute-Total commits read a wrong sum",
                  r.wrong_totals);
  }
  if (r.unconserved != 0) {
    rep.violation(name + ": bank total not conserved", r.unconserved);
  }
  rep.samples.push_back({std::string("bank.") + mode + name + ".transfers", r.transfers});
  rep.samples.push_back({std::string("bank.") + mode + name + ".long_commits", r.long_commits});
}

}  // namespace

void run_bank(const Options& opt, double secs, Report& rep) {
  const std::vector<std::string>& names = api::variant_names();

  // Set-up: the draw tables plus all seven STMs with their accounts,
  // several times; the metric is the median of the per-round totals.
  std::vector<double> setup_rounds;
  std::vector<Draws> draws;
  for (int round = 0; round < kSetupRounds; ++round) {
    const std::uint64_t t0 = now_ns();
    draws.clear();
    for (int t = 0; t < kThreads; ++t) {
      draws.push_back(make_draws(opt.seed * 131 + static_cast<std::uint64_t>(t)));
    }
    for (const std::string& name : names) {
      api::visit_variant(name, bank_config(), [&](auto tag, const char*,
                                                 const api::CommonConfig& cfg) {
        using S = typename decltype(tag)::type;
        BankState<S> bank(cfg);
      });
    }
    setup_rounds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  rep.setup_s += median(setup_rounds);

  std::vector<std::unique_ptr<Runner>> runners;
  for (std::size_t v = 0; v < names.size(); ++v) {
    runners.push_back(api::visit_variant(
        names[v], bank_config(),
        [&](auto tag, const char*,
            const api::CommonConfig& cfg) -> std::unique_ptr<Runner> {
          using S = typename decltype(tag)::type;
          return std::make_unique<RunnerT<S>>(cfg, draws, 4 + v, opt);
        }));
  }

  const double per_slice =
      secs / static_cast<double>(names.size() * kRounds) / (opt.trace ? 2 : 1);
  std::vector<Totals> plain(names.size());
  std::vector<Totals> traced(names.size());
  std::uint64_t slice_no = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t v = 0; v < names.size(); ++v) {
      runners[v]->run_slice(per_slice, false, ++slice_no, plain[v], rep);
      if (opt.trace) runners[v]->run_slice(per_slice, true, ++slice_no, traced[v], rep);
    }
  }

  std::vector<double> overheads;
  for (std::size_t v = 0; v < names.size(); ++v) {
    const std::string& name = names[v];
    const Totals& p = plain[v];
    account(name, p, rep, "");
    // lsa-nors runs lsa's transfer path; only its read-only path differs,
    // so its transfer rate is a per-layer metric, not an end-to-end one.
    if (name != "lsa-nors") rep.e2e("tx_s." + name, median(p.tx_rates), "1/s");
    // zl's Compute-Total rate is end-to-end; the others' (lsa's included)
    // swing with how often writers abort them, too much for a bound, so
    // they are per-layer.
    if (name == "zl") rep.e2e("long_tx_s.zl", median(p.long_rates), "1/s");
    if (!opt.trace) continue;

    Totals& t = traced[v];
    account(name, t, rep, "traced.");
    overheads.push_back(100.0 * ratio(median(p.tx_rates) - median(t.tx_rates),
                                      median(p.tx_rates)));
    rep.layer("api.transfer_ns_p50." + name, t.transfer_ns.quantile(0.5), "ns");
    rep.layer("api.transfer_ns_p99." + name, t.transfer_ns.quantile(0.99), "ns");
    rep.layer("api.attempts_per_commit." + name,
              ratio(static_cast<double>(t.attempts), static_cast<double>(t.transfers)),
              "count");
    rep.layer("object.pool_hit_ratio." + name,
              ratio(static_cast<double>(t.pool_hits),
                    static_cast<double>(t.pool_hits + t.pool_misses)),
              "ratio");
    rep.layer("api.tx_per_cpu_s." + name,
              ratio(static_cast<double>(t.worker_transfers),
                    static_cast<double>(t.worker_cpu_ns) / 1e9),
              "1/s");
    rep.layer("api.long_us_p50." + name, t.long_us.quantile(0.5), "us");
    rep.layer("api.long_tx_s." + name, median(p.long_rates), "1/s");
    rep.layer("api.long_abandon_ratio." + name,
              ratio(static_cast<double>(t.long_abandoned),
                    static_cast<double>(t.long_commits + t.long_abandoned)),
              "ratio");
  }
  if (opt.trace) rep.layer("trace.overhead_pct.bank", median(overheads), "%");
}

}  // namespace perfbench
