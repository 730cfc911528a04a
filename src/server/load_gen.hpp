// Open-loop load generator for the KV service (DESIGN.md §12.3).
//
// One pacer thread issues requests on a fixed schedule — deterministic
// 1/rate spacing by default, exponential (Poisson process) interarrivals on
// request — and stamps each request with its SCHEDULED arrival time, not
// the time the pacer got around to enqueueing it. Latency is therefore
// measured from when the request *should* have arrived, so pacer lateness
// and queueing delay both land in the recorded tail instead of being
// silently absorbed (the coordinated-omission trap of closed-loop
// harnesses). When the service ring is full the request is shed and
// counted: an overloaded open-loop system drops work, it does not slow the
// arrival process down.
//
// Key choice follows a Zipfian(theta) over [0, keyspace) with scrambled
// ranks (util::Zipfian); the op mix is a cumulative draw over the six
// service verbs. Everything is deterministic under a fixed seed. The
// schedule (pace_open_loop) and the draw (RequestGen) are shared with the
// TCP rail (net/net_load_gen.hpp), which only encodes and routes each
// request it is handed.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "server/kv_service.hpp"
#include "util/rng.hpp"
#include "util/zipfian.hpp"

namespace zstm::server {

/// Operation mix as fractions; anything left after the named verbs goes to
/// get (so the mix never needs to sum to exactly 1).
struct LoadMix {
  double put = 0.15;
  double del = 0.02;
  double multi_get = 0.05;
  double scan = 0.01;
  double transfer = 0.07;
};

struct LoadGenConfig {
  double rate = 2000.0;  ///< target arrivals per second
  std::chrono::milliseconds duration{1000};
  std::uint64_t keyspace = 4096;
  double zipf_theta = 0.99;  ///< 0 = uniform
  LoadMix mix;
  std::uint32_t multi_fanout = 16;
  bool poisson = false;  ///< exponential interarrivals instead of fixed
  std::uint64_t seed = 1;
  Value put_value = 100;
  Value transfer_amount = 1;
};

struct LoadGenResult {
  std::uint64_t offered = 0;   ///< scheduled arrivals
  std::uint64_t accepted = 0;  ///< made it into the ring
  std::uint64_t shed = 0;      ///< rejected (ring full / not accepting)
  std::uint64_t elapsed_ns = 0;
};

/// The op-mix draw both KV rails share: each call draws one request from
/// cfg's mix, with Zipfian keys; interarrival gaps come from the same
/// stream, so a seed fixes the whole offered sequence.
class RequestGen {
 public:
  /// cfg.keyspace must be nonzero.
  explicit RequestGen(const LoadGenConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        keys_(cfg.keyspace, cfg.zipf_theta, cfg.seed ^ 0x5eedULL) {}

  /// The next request (arrival_ns left 0).
  Request next() {
    Request req;
    const double roll = rng_.next_unit();
    double acc = cfg_.mix.put;
    if (roll < acc) {
      req.op = Op::kPut;
      req.key = keys_.next();
      req.value = cfg_.put_value;
    } else if (roll < (acc += cfg_.mix.del)) {
      req.op = Op::kDel;
      req.key = keys_.next();
    } else if (roll < (acc += cfg_.mix.multi_get)) {
      req.op = Op::kMultiGet;
      // The window is [key, key + fanout): its start is uniform (not
      // skewed) over every window that fits, so the last key is read too.
      const std::uint64_t starts = cfg_.keyspace >= cfg_.multi_fanout
                                       ? cfg_.keyspace - cfg_.multi_fanout + 1
                                       : 1;
      req.key = rng_.next_below(starts);
      req.fanout = cfg_.multi_fanout;
    } else if (roll < (acc += cfg_.mix.scan)) {
      req.op = Op::kScan;
    } else if (roll < (acc += cfg_.mix.transfer)) {
      req.op = Op::kTransfer;
      req.key = keys_.next();
      req.key2 = keys_.next();
      if (req.key2 == req.key) req.key2 = (req.key + 1) % cfg_.keyspace;
      req.value = cfg_.transfer_amount;
    } else {
      req.op = Op::kGet;
      req.key = keys_.next();
    }
    return req;
  }

  /// Nanoseconds to the next arrival: `mean_ns` itself, or an exponential
  /// (Poisson-process) draw around it when cfg.poisson is set.
  double gap_ns(double mean_ns) {
    if (!cfg_.poisson) return mean_ns;
    // Exponential interarrival: -ln(U) scaled to the mean spacing.
    double u = rng_.next_unit();
    if (u <= 1e-12) u = 1e-12;
    return -std::log(u) * mean_ns;
  }

 private:
  LoadGenConfig cfg_;
  util::Xorshift rng_;
  util::Zipfian keys_;
};

/// The open-loop schedule both rails run from the calling thread for
/// ~cfg.duration (cfg.rate > 0 and cfg.keyspace > 0): sleep until each
/// arrival's scheduled time, then hand `emit` the next drawn request
/// stamped with that time. Returns the schedule's start
/// (ProgressTracker::now_ns).
template <typename Emit>
std::uint64_t pace_open_loop(const LoadGenConfig& cfg, Emit&& emit) {
  RequestGen gen(cfg);
  const double interval_ns = 1e9 / cfg.rate;
  const std::uint64_t t0 = util::ProgressTracker::now_ns();
  const std::uint64_t end =
      t0 + static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   cfg.duration)
                   .count());
  double next = static_cast<double>(t0);

  while (static_cast<std::uint64_t>(next) < end) {
    const std::uint64_t scheduled = static_cast<std::uint64_t>(next);
    const std::uint64_t now = util::ProgressTracker::now_ns();
    if (scheduled > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled - now));
    }
    // Behind schedule: emit immediately (burst catch-up) — the scheduled
    // stamp keeps the accounting honest.
    Request req = gen.next();
    req.arrival_ns = scheduled;
    emit(std::move(req));
    next += gen.gap_ns(interval_ns);
  }
  return t0;
}

/// Run the open-loop schedule against `svc` from the calling thread.
/// Blocks for ~cfg.duration. The service must be start()ed.
inline LoadGenResult run_open_loop(KvService& svc, const LoadGenConfig& cfg) {
  LoadGenResult res;
  if (cfg.rate <= 0.0 || cfg.keyspace == 0) return res;
  const std::uint64_t t0 = pace_open_loop(cfg, [&](Request&& req) {
    ++res.offered;
    if (svc.submit(std::move(req))) {
      ++res.accepted;
    } else {
      ++res.shed;
    }
  });
  res.elapsed_ns = util::ProgressTracker::now_ns() - t0;
  return res;
}

}  // namespace zstm::server
