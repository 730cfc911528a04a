// KvService implementation (DESIGN.md §12). The interesting part is the
// shutdown protocol; the request loop itself is a thin dispatch onto
// KvStore.
#include "server/kv_service.hpp"

#include <cassert>
#include <utility>

namespace zstm::server {

const char* op_name(Op op) {
  switch (op) {
    case Op::kGet:      return "get";
    case Op::kPut:      return "put";
    case Op::kDel:      return "del";
    case Op::kMultiGet: return "multi_get";
    case Op::kScan:     return "scan";
    case Op::kTransfer: return "transfer";
    case Op::kCount:    break;
  }
  return "?";
}

namespace {

/// The one place a variant name becomes a runtime type: the five
/// KvStoreT<Stm<R>> instantiations live in this translation unit.
std::unique_ptr<KvStore> make_store(const ServiceConfig& cfg) {
  return api::visit_variant(
      cfg.variant, cfg.stm,
      [&](auto tag, const char*, const api::CommonConfig& variant_cfg)
          -> std::unique_ptr<KvStore> {
        using S = typename decltype(tag)::type;
        return std::make_unique<KvStoreT<S>>(variant_cfg, cfg.buckets);
      });
}

}  // namespace

KvService::KvService(ServiceConfig cfg)
    : cfg_(std::move(cfg)), store_(make_store(cfg_)) {}

KvService::~KvService() { stop(); }

void KvService::start() {
  if (running_) return;
  // A fresh ring per run: close() is one-way, and restart is part of the
  // service contract (thread-churn coverage for registry slot reuse).
  queue_ = std::make_unique<MpmcQueue<Request>>(cfg_.queue_capacity);
  wstate_ = std::vector<WorkerState>(static_cast<std::size_t>(cfg_.workers));
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  accepting_.store(true, std::memory_order_release);
  running_ = true;
}

void KvService::stop() {
  if (!running_) return;
  // 1. Stop accepting, then wait out submits already past the gate — after
  //    this, no producer can touch the ring again.
  accepting_.store(false, std::memory_order_release);
  while (submit_in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  // 2. Close the ring. Workers drain every accepted request, then exit.
  queue_->close();
  for (auto& w : workers_) w.join();
  workers_.clear();
  running_ = false;
}

bool KvService::submit(Request req) {
  // in_flight_ brackets the accepting_ check AND the push, so stop() can
  // wait for stragglers that saw accepting_==true just before it flipped.
  submit_in_flight_.fetch_add(1, std::memory_order_acquire);
  bool ok = false;
  if (accepting_.load(std::memory_order_acquire)) {
    if (req.arrival_ns == 0) req.arrival_ns = util::ProgressTracker::now_ns();
    ok = queue_->try_push(std::move(req));
  }
  submit_in_flight_.fetch_sub(1, std::memory_order_release);
  if (ok) accepted_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

void KvService::preload(Key first, std::uint64_t count, Value value) {
  for (std::uint64_t i = 0; i < count; ++i) {
    store_->put(first + i, value);
  }
}

std::uint64_t KvService::completed() const {
  std::uint64_t n = 0;
  for (const auto& w : wstate_) n += w.completed.load(std::memory_order_relaxed);
  return n;
}

ServiceMetrics KvService::metrics() {
  ServiceMetrics m;
  m.accepted = accepted_.load(std::memory_order_relaxed);
  for (auto& w : wstate_) {
    m.completed += w.completed.load(std::memory_order_relaxed);
    for (std::size_t op = 0; op < kOpCount; ++op) {
      m.per_op[op].merge(w.hist[op]);
      m.all.merge(w.hist[op]);
    }
  }
  m.progress = store_->progress();
  m.stm = store_->stats();
  return m;
}

void KvService::worker_loop(int idx) {
  WorkerState& st = wstate_[static_cast<std::size_t>(idx)];
  Request req;
  while (queue_->pop(req)) {
    const Response resp = execute(req);
    const std::uint64_t done_ns = util::ProgressTracker::now_ns();
    const std::uint64_t lat =
        done_ns > req.arrival_ns ? done_ns - req.arrival_ns : 0;
    st.hist[static_cast<std::size_t>(req.op)].record(lat);
    if (req.on_done) req.on_done(resp);
    req.on_done = nullptr;  // drop any captured state before the next pop
    st.completed.fetch_add(1, std::memory_order_relaxed);
  }
}

Response KvService::execute(const Request& req) {
  Response resp;
  switch (req.op) {
    case Op::kGet: {
      const std::optional<Value> v = store_->get(req.key);
      resp.ok = v.has_value();
      resp.value = v.value_or(0);
      break;
    }
    case Op::kPut: {
      const bool inserted = store_->put(req.key, req.value);
      resp.ok = true;
      resp.count = inserted ? 1 : 0;
      break;
    }
    case Op::kDel: {
      resp.ok = store_->del(req.key);
      break;
    }
    case Op::kMultiGet: {
      // Snapshot sum over the window: with transfers confined to the same
      // window this is an invariant the tests can pin.
      std::vector<Value> vals;
      resp.count = store_->multi_get(req.key, req.fanout, &vals);
      for (const Value v : vals) resp.value += v;
      resp.ok = true;
      break;
    }
    case Op::kScan: {
      const KvStore::ScanResult r = store_->scan();
      resp.ok = true;
      resp.count = r.count;
      resp.value = r.sum;
      break;
    }
    case Op::kTransfer: {
      resp.ok = store_->transfer(req.key, req.key2, req.value);
      break;
    }
    case Op::kCount:
      break;
  }
  return resp;
}

}  // namespace zstm::server
