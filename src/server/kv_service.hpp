// KvService — the STM-backed key-value service (DESIGN.md §12): a worker
// pool draining a bounded MPMC request queue into a KvStore whose runtime
// variant is chosen by name (resolved once, by api::visit_variant, when the
// service is built).
//
// The service is the measurement harness the figure benches are not:
// requests carry their *scheduled* arrival time, workers record
// completion-minus-arrival into per-worker HDR histograms, so queueing
// delay — the thing an open-loop arrival process makes visible — lands in
// the latency tail where it belongs (no coordinated omission).
//
// Lifecycle: start() spawns the workers; submit() enqueues (and sheds,
// returning false, when the ring is full — open-loop honesty); stop()
// stops accepting, waits for in-flight submits, closes the queue, lets the
// workers drain every accepted request and joins them. start() may be
// called again after stop() — the worker threads are new each time, which
// exercises registry-slot reclamation through the façade's thread-exit
// hook.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "server/kv_store.hpp"
#include "server/mpmc_queue.hpp"
#include "util/align.hpp"
#include "util/latency_histogram.hpp"

namespace zstm::server {

enum class Op : std::uint8_t {
  kGet = 0,
  kPut,
  kDel,
  kMultiGet,
  kScan,
  kTransfer,
  kCount
};
constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);
const char* op_name(Op op);

struct Response {
  bool ok = false;          ///< op-specific success (e.g. get: key found)
  Value value = 0;          ///< get result / multi_get found-sum / scan sum
  std::uint64_t count = 0;  ///< multi_get found count / scan element count
};

struct Request {
  Op op = Op::kGet;
  Key key = 0;
  Key key2 = 0;   ///< transfer destination
  Value value = 0;  ///< put value / transfer amount
  std::uint32_t fanout = 0;  ///< multi_get width (keys [key, key+fanout))
  /// Scheduled (open-loop) arrival, ProgressTracker::now_ns timebase.
  /// submit() stamps the current time when left 0.
  std::uint64_t arrival_ns = 0;
  /// Completion callback, invoked on the worker thread. Tests use it; the
  /// load generator leaves it empty (fire-and-forget, no allocation).
  std::function<void(const Response&)> on_done;
};

struct ServiceConfig {
  std::string variant = "zl";
  int workers = 2;
  std::size_t queue_capacity = 1 << 14;
  std::size_t buckets = 256;
  /// Façade config. The service default differs from CommonConfig's: the
  /// serial-irrevocable rung is on, which bounds the latency tail.
  api::CommonConfig stm = default_stm_config();

  static api::CommonConfig default_stm_config() {
    api::CommonConfig c;
    c.retry.serial_after = 64;
    return c;
  }
};

/// Merged post-run view (exact after stop(); racy-but-safe while running).
struct ServiceMetrics {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::array<util::LatencyHistogram, kOpCount> per_op;
  util::LatencyHistogram all;
  util::ProgressTracker::Snapshot progress;
  util::StatsSnapshot stm;
};

class KvService {
 public:
  explicit KvService(ServiceConfig cfg);
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  void start();
  /// Drain-and-join: every accepted request completes before this returns.
  void stop();
  bool running() const { return running_; }

  /// Enqueue. False = shed (not accepting, or the ring is full); the
  /// request then had no effect and on_done is not called.
  bool submit(Request req);

  /// Synchronous preload from the calling thread (service need not be
  /// started): keys [first, first+count) each set to `value`.
  void preload(Key first, std::uint64_t count, Value value);

  std::uint64_t completed() const;
  ServiceMetrics metrics();

  const ServiceConfig& config() const { return cfg_; }
  /// The store, which also reports its façade's stats() and progress().
  KvStore& stm() { return *store_; }
  KvStore& store() { return *store_; }

 private:
  struct WorkerState {
    std::array<util::LatencyHistogram, kOpCount> hist;
    std::atomic<std::uint64_t> completed{0};
  };

  void worker_loop(int idx);
  Response execute(const Request& req);

  ServiceConfig cfg_;
  std::unique_ptr<KvStore> store_;
  std::unique_ptr<MpmcQueue<Request>> queue_;
  std::vector<std::thread> workers_;
  std::vector<WorkerState> wstate_;

  std::atomic<bool> accepting_{false};
  bool running_ = false;
  std::atomic<std::uint64_t> submit_in_flight_{0};
  std::atomic<std::uint64_t> accepted_{0};
};

}  // namespace zstm::server
