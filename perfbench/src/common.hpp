// Shared pieces of the benchmark: exact sample statistics, the open-loop
// pacer, CPU clocks, the span log of a traced run, and the result report.
#pragma once

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

/// Steady-clock nanoseconds; the same timebase KvService stamps arrivals in.
inline std::uint64_t now_ns() { return zstm::util::ProgressTracker::now_ns(); }

inline std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
inline std::uint64_t process_cpu_ns() {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}

/// Peak resident set size since start or the last reset_peak_rss(), in MB
/// (VmHWM); 0 when /proc is unreadable.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Starts a new peak: Linux resets VmHWM to the current RSS when 5 is
/// written to clear_refs. Used so the max_rps probes, whose buffers grow
/// with the rate they try, stay out of peak_rss_mb.
inline void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Exact order statistics over every recorded value (no bucketing, so a
/// percentile keeps all its digits).
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }

  /// Linear interpolation between closest ranks; 0 when empty.
  double quantile(double q) {
    if (v_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const double pos = q * static_cast<double>(v_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (v_[hi] - v_[lo]) * (pos - static_cast<double>(lo));
  }

 private:
  std::vector<double> v_;
  bool sorted_ = false;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double quantile_of(const std::vector<double>& v, double q) {
  Samples s;
  s.reserve(v.size());
  for (const double x : v) s.add(x);
  return s.quantile(q);
}

/// The median, over `windows` consecutive equal slices of `seq` (samples in
/// arrival order), of each slice's quantile `q`: the typical window's
/// percentile, which one stalled window cannot move.
inline double windowed_quantile(const std::vector<double>& seq, double q,
                                std::size_t windows) {
  std::vector<double> per_window;
  const std::size_t len = seq.size() / windows;
  if (len == 0) return quantile_of(seq, q);
  for (std::size_t w = 0; w < windows; ++w) {
    per_window.push_back(quantile_of(
        std::vector<double>(seq.begin() + static_cast<std::ptrdiff_t>(w * len),
                            seq.begin() + static_cast<std::ptrdiff_t>((w + 1) * len)),
        q));
  }
  return median(per_window);
}

/// Open-loop pacing: the generator thread busy-waits for every arrival and
/// never sleeps. On a small VM a sleeping thread's vCPU halts,
/// and waking it costs the host's scheduling latency: pacing a 500 us gap by
/// sleep_for with 1 ns timer slack measured 1.5-4.9 ms lateness at p99,
/// spinning 0-38 us (RATIONALE.md). The price is one vCPU per pacer, which
/// is reported as generator CPU and kept out of the program's CPU figures.
/// Returns how late the caller is for `t`, in ns, so lateness is reported,
/// never charged silently to the program.
inline std::uint64_t pace_until(std::uint64_t t) {
  std::uint64_t now = now_ns();
  while (now < t) now = now_ns();
  return now - t;
}

/// The host's wake-up latency as a sleeping thread sees it: the p99
/// overshoot, in us, of 200 sleeps of 20 us with 1 ns timer slack. It runs
/// on a thread of its own, so no other thread's slack changes. The
/// service's dozing workers pay the same latency on every wake-up.
inline double sleep_overshoot_us() {
  double out = 0;
  std::thread probe([&out] {
    constexpr std::uint64_t kSleepNs = 20000;
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Samples over;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t t0 = now_ns();
      std::this_thread::sleep_for(std::chrono::nanoseconds(kSleepNs));
      const std::uint64_t slept = now_ns() - t0;
      over.add(slept > kSleepNs ? static_cast<double>(slept - kSleepNs) / 1e3 : 0.0);
    }
    out = over.quantile(0.99);
  });
  probe.join();
  return out;
}

/// One span of a traced run: a named interval with its own id and the id of
/// the span that caused it (0 = root). Spans of one request share its root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t name = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Span names; the CSV writer prints them by index.
enum SpanName : std::uint32_t {
  kSpanKvRequest = 0,
  kSpanSubmit,
  kSpanSojourn,
  kSpanStoreGet,  // the five store ops, in StoreOp order
  kSpanStorePut,
  kSpanStoreTransfer,
  kSpanStoreMultiGet,
  kSpanStoreScan,
  kSpanTcpRequest,
  kSpanSend,
  kSpanPing,
  kSpanTransfer,
  kSpanLong,
  kSpanNameCount
};
inline const char* span_name(std::uint32_t n) {
  static constexpr const char* kNames[kSpanNameCount] = {
      "kv.request",       "server.submit",       "server.sojourn",
      "server.store.get", "server.store.put",    "server.store.transfer",
      "server.store.multi_get", "server.store.scan", "net.request",
      "net.send",         "net.ping",            "api.transfer",
      "api.long"};
  return n < kSpanNameCount ? kNames[n] : "?";
}

/// Span ids: the phase in the top byte, a thread index in the next, then a
/// per-thread sequence, so ids never collide across phases or threads.
inline std::uint64_t span_id(std::uint64_t phase, std::uint64_t thread,
                             std::uint64_t seq) {
  return (phase << 56) | (thread << 48) | (seq & ((1ULL << 48) - 1));
}

/// Per-thread span buffer; spans stay in memory and are written out once the
/// run ends. Capped so a traced run's memory stays bounded.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 1 << 17;
  void add(std::uint64_t id, std::uint64_t parent, std::uint32_t name,
           std::uint64_t start, std::uint64_t end) {
    if (spans_.size() < kCap) spans_.push_back({id, parent, name, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the phases hand back to main: metrics for both modes, set-up time,
/// the operation accounting, correctness violations, provenance notes and
/// per-phase sample counts.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  double setup_s = 0;
  /// Highest peak RSS seen outside the max_rps probes (see note_rss).
  double rss_mb = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<std::pair<std::string, std::uint64_t>> samples;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<Span> spans;

  void e2e(std::string n, double v, std::string u) {
    end_to_end.push_back({std::move(n), v, std::move(u)});
  }
  void layer(std::string n, double v, std::string u) {
    per_layer.push_back({std::move(n), v, std::move(u)});
  }
  /// Folds the peak RSS since the last reset_peak_rss() into rss_mb.
  void note_rss() { rss_mb = std::max(rss_mb, peak_rss_mb()); }
  void note(std::string k, std::string v) {
    notes.emplace_back(std::move(k), std::move(v));
  }
  /// `n` failed operations (a wrong answer, a shed or an unanswered
  /// request): counted in `failed` and named on stderr.
  void violation(std::string what, std::uint64_t n = 1) {
    std::fprintf(stderr, "perfbench: VIOLATION: %s\n", what.c_str());
    violations.push_back(std::move(what));
    failed += n;
  }
  void keep_spans(const SpanLog& log) {
    const std::size_t room =
        spans.size() < SpanLog::kCap ? SpanLog::kCap - spans.size() : 0;
    const std::size_t n = std::min(room, log.spans().size());
    spans.insert(spans.end(), log.spans().begin(), log.spans().begin() + n);
  }
};

struct Options {
  std::string workload;
  /// Key skew of the KV phases (0 = uniform).
  double theta = 0.99;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  /// Self-test hook: perturbs one observed answer in every phase before it
  /// is checked, so the correctness gate must trip.
  bool inject_wrong = false;
};

/// Ratio with an explicit empty-base value.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-kilo-commit rate of a StatsDomain counter delta.
inline double per_kcommit(const zstm::util::StatsSnapshot& a,
                          const zstm::util::StatsSnapshot& b,
                          zstm::util::Counter c) {
  using zstm::util::Counter;
  const double commits =
      static_cast<double>(b[Counter::kCommits] - a[Counter::kCommits]);
  return ratio(1000.0 * static_cast<double>(b[c] - a[c]), commits);
}

/// Highest offered rate that passes `step`, searched by doubling from
/// `start` until a rate fails, then `kBisections` geometric bisections of
/// the bracket.
template <typename Step>
double search_max_rate(double start, int max_doublings, Step&& step) {
  constexpr int kBisections = 5;
  // A failed step runs once more before its rate counts as failed, so one
  // stray stall cannot cut the search short.
  auto passes = [&](double rate) { return step(rate) || step(rate); };
  double lo = 0;
  double hi = 0;
  double rate = start;
  for (int i = 0; i <= max_doublings; ++i) {
    if (!passes(rate)) {
      hi = rate;
      break;
    }
    lo = rate;
    rate *= 2;
  }
  if (hi == 0) return lo;  // never failed: the top of the ladder is a floor
  for (int i = 0; i < kBisections; ++i) {
    const double mid = lo > 0 ? std::sqrt(lo * hi) : hi / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void run_kv_inproc(const Options& opt, double secs, Report& rep);
void run_kv_tcp(const Options& opt, double secs, Report& rep);
void run_bank(const Options& opt, double secs, Report& rep);

}  // namespace perfbench
