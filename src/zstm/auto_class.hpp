// Automatic long/short classification (§5.3).
//
// "The class must be known at the start of a transaction. In the simplest
// case, the programmer might need to mark explicitly transactions that are
// long. However, an automatic marking based on past behaviors of
// transactions would be a viable alternative."
//
// This module implements that alternative. Call sites are identified by a
// small integer (one per static transaction site, like the paper's
// transaction types); the classifier keeps per-site exponential averages of
// opens-per-execution and of recent short-mode aborts, and routes each
// execution:
//
//  * sites whose transactions open many objects run as long transactions
//    (they are exactly the ones first-committer-wins starves, §1);
//  * sites that keep aborting in short mode get temporarily promoted, then
//    demoted again once the average decays — so a burst of contention does
//    not pin a small transaction to the long path forever;
//  * everything else runs as a short transaction on the LSA fast path.
//
// The body programs against zl::Tx, the handle ThreadCtx::begin(kind)
// returns, so one body serves both modes.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/align.hpp"
#include "zstm/zstm.hpp"

namespace zstm::zl {

/// Tuning knobs for AutoClassifier (namespace scope: default member
/// initializers of a nested class cannot be used for an in-class default
/// argument of the enclosing class).
struct AutoClassifierConfig {
  /// Opens-per-execution average above which a site runs long.
  double long_open_threshold = 48.0;
  /// Recent short-mode aborts-per-execution average above which a site
  /// is promoted even if small.
  double abort_promote_threshold = 3.0;
  /// Exponential-moving-average weight for new samples (0..1).
  double ema_weight = 0.25;
  int max_sites = 64;
};

class AutoClassifier {
 public:
  using Config = AutoClassifierConfig;

  explicit AutoClassifier(Config cfg = {})
      : cfg_(cfg), sites_(static_cast<std::size_t>(cfg.max_sites)) {}

  AutoClassifier(const AutoClassifier&) = delete;
  AutoClassifier& operator=(const AutoClassifier&) = delete;

  int max_sites() const { return cfg_.max_sites; }

  /// Should the next execution of `site` run as a long transaction?
  bool classify_long(int site) const {
    const SiteStats& s = stats_for(site);
    if (ema_load(s.avg_opens) >= cfg_.long_open_threshold) return true;
    return ema_load(s.avg_short_aborts) >= cfg_.abort_promote_threshold;
  }

  /// Record a completed execution: how many objects it opened, how many
  /// aborted attempts it burned, and the mode it ran in.
  void record(int site, std::uint64_t opens, std::uint32_t aborted_attempts,
              bool ran_long) {
    SiteStats& s = stats_for(site);
    ema_update(s.avg_opens, static_cast<double>(opens));
    if (ran_long) {
      // Long-mode runs say nothing about short-mode abort pressure, but
      // decaying it lets a promoted site earn its way back to the fast
      // path once the workload calms down.
      ema_update(s.avg_short_aborts, 0.0);
    } else {
      ema_update(s.avg_short_aborts, static_cast<double>(aborted_attempts));
    }
    s.executions.fetch_add(1, std::memory_order_relaxed);
    if (ran_long) s.long_runs.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t executions(int site) const {
    return stats_for(site).executions.load(std::memory_order_relaxed);
  }
  std::uint64_t long_runs(int site) const {
    return stats_for(site).long_runs.load(std::memory_order_relaxed);
  }
  double avg_opens(int site) const {
    return ema_load(stats_for(site).avg_opens);
  }
  double avg_short_aborts(int site) const {
    return ema_load(stats_for(site).avg_short_aborts);
  }

 private:
  struct alignas(util::kCacheLine) SiteStats {
    /// EMAs stored as doubles behind a bit-cast atomic (no atomic<double>
    /// RMW needed — a lost update just delays the estimate by one sample).
    std::atomic<std::uint64_t> avg_opens{0};
    std::atomic<std::uint64_t> avg_short_aborts{0};
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> long_runs{0};
  };

  static double ema_load(const std::atomic<std::uint64_t>& cell) {
    const std::uint64_t bits = cell.load(std::memory_order_relaxed);
    double v;
    static_assert(sizeof v == sizeof bits);
    __builtin_memcpy(&v, &bits, sizeof v);
    return v;
  }

  void ema_update(std::atomic<std::uint64_t>& cell, double sample) const {
    const double old = ema_load(cell);
    const double fresh = old + cfg_.ema_weight * (sample - old);
    std::uint64_t bits;
    __builtin_memcpy(&bits, &fresh, sizeof bits);
    cell.store(bits, std::memory_order_relaxed);
  }

  SiteStats& stats_for(int site) {
    return sites_[static_cast<std::size_t>(site) %
                  static_cast<std::size_t>(cfg_.max_sites)];
  }
  const SiteStats& stats_for(int site) const {
    return sites_[static_cast<std::size_t>(site) %
                  static_cast<std::size_t>(cfg_.max_sites)];
  }

  Config cfg_;
  std::vector<SiteStats> sites_;
};

/// Run `body` (callable taking Tx&) at `site`, letting the classifier
/// pick the transaction class from the site's history. Returns {attempts,
/// committed = true} (the retry-loop convention of runtime/run_result.hpp).
template <typename F>
runtime::RunResult run_auto(ThreadCtx& ctx, AutoClassifier& cls, int site,
                            F&& body) {
  const bool as_long = cls.classify_long(site);
  const TxKind kind = as_long ? TxKind::kLongUpdate : TxKind::kUpdate;
  std::uint64_t opens = 0;
  const runtime::RunResult result = runtime::retry(
      ctx, [&] { return ctx.begin(kind); },
      [&](Tx& tx) {
        // Each attempt begins a fresh handle; the committing one's count
        // wins.
        body(tx);
        opens = tx.opens();
      });
  cls.record(site, opens, result.attempts - 1, as_long);
  return result;
}

}  // namespace zstm::zl
