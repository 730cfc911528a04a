// The two KV phases of every run (see RATIONALE.md):
//
//   kv-inproc  server::KvService (variant zl, 2 workers, 256 buckets),
//              4,096 preloaded keys, the default mix, open loop at a fixed
//              2,000 req/s, then a max_rps search. Requests are handed to
//              KvService::submit directly: no sockets.
//   kv-tcp     the same service behind net::TcpServer (1 io thread) on
//              loopback, 2 connections, point ops only, open loop at a
//              fixed 20,000 req/s, then a max_rps search.
//
// Every request is timed from its scheduled arrival. The pacer runs on its
// own thread (so its timer slack never leaks into the program's threads);
// the TCP receiver is the generator's second and last thread. The TCP pacer
// sends every request already due in one send per connection, so a send
// syscall per request never caps the offered rate.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "net/kv_client.hpp"
#include "net/tcp_server.hpp"
#include "net/wire.hpp"
#include "server/kv_service.hpp"
#include "util/rng.hpp"
#include "util/zipfian.hpp"

namespace perfbench {
namespace {

namespace server = zstm::server;
namespace net = zstm::net;
namespace wire = zstm::net::wire;
using zstm::util::Counter;

constexpr std::uint64_t kKeys = 4096;
constexpr server::Value kInitialValue = 100;
constexpr std::uint32_t kFanout = 16;
constexpr int kSetupRounds = 9;
constexpr double kInprocRate = 2000;
constexpr double kTcpRate = 20000;
constexpr int kTcpConns = 2;
/// p99 limits of the max_rps searches, fixed once from light-load runs
/// (RATIONALE.md, "Latency limits").
constexpr double kInprocLimitUs = 10000;
constexpr double kTcpLimitUs = 5000;
/// Search ladders: start rate and how often it may double before failing.
constexpr double kInprocSearchStart = 4000;
constexpr double kTcpSearchStart = 20000;
constexpr int kMaxDoublings = 7;
constexpr int kSearchSteps = 15;  // typical doublings, bisections, reruns
/// Fixed-rate latencies are reported as the median over this many
/// consecutive windows of the window's percentile.
constexpr std::size_t kLatencyWindows = 16;
constexpr std::uint64_t kDrainTimeoutNs = 5000000000ULL;
/// A traced TCP run sends one ping per this many requests.
constexpr std::uint64_t kPingStride = 16;
constexpr std::uint64_t kPingFlag = 1ULL << 63;
/// Most requests the TCP pacer sends in one go when it is behind.
constexpr std::size_t kMaxBatch = 64;

/// Operation mix as fractions; the rest is get (kv_server's default mix).
struct Mix {
  double put, del, multi_get, scan, transfer;
};
constexpr Mix kDefaultMix{0.15, 0.02, 0.05, 0.01, 0.07};
constexpr Mix kPointMix{0.15, 0.0, 0.0, 0.0, 0.07};

struct OpSpec {
  server::Op op = server::Op::kGet;
  server::Key key = 0;
  server::Key key2 = 0;
  server::Value value = 0;
  std::uint32_t fanout = 0;
};

/// Deterministic request stream: Zipf(theta) keys, fixed mix.
class OpGen {
 public:
  OpGen(std::uint64_t seed, double theta, Mix mix)
      : rng_(seed | 1), keys_(kKeys, theta, seed ^ 0x5eedULL), mix_(mix) {}

  OpSpec next() {
    OpSpec s;
    const double roll = rng_.next_unit();
    double acc = mix_.put;
    if (roll < acc) {
      s.op = server::Op::kPut;
      s.key = keys_.next();
      s.value = kInitialValue;
    } else if (roll < (acc += mix_.del)) {
      s.op = server::Op::kDel;
      s.key = keys_.next();
    } else if (roll < (acc += mix_.multi_get)) {
      s.op = server::Op::kMultiGet;
      s.key = rng_.next_below(kKeys - kFanout);
      s.fanout = kFanout;
    } else if (roll < (acc += mix_.scan)) {
      s.op = server::Op::kScan;
    } else if (roll < (acc += mix_.transfer)) {
      s.op = server::Op::kTransfer;
      s.key = keys_.next();
      s.key2 = keys_.next();
      if (s.key2 == s.key) s.key2 = (s.key + 1) % kKeys;
      s.value = 1;
    } else {
      s.op = server::Op::kGet;
      s.key = keys_.next();
    }
    return s;
  }

  std::vector<OpSpec> batch(std::size_t n) {
    std::vector<OpSpec> v(n);
    for (OpSpec& s : v) s = next();
    return v;
  }

 private:
  zstm::util::Xorshift rng_;
  zstm::util::Zipfian keys_;
  Mix mix_;
};

/// A response no correct store can give (put refused, window or scan
/// larger than the key space).
bool implausible(server::Op op, bool ok, std::uint64_t count) {
  switch (op) {
    case server::Op::kPut: return !ok;
    case server::Op::kMultiGet: return count > kFanout;
    case server::Op::kScan: return !ok || count > kKeys;
    default: return false;
  }
}

std::size_t slots_for(double rate, double secs) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(rate * secs));
}

server::ServiceConfig service_config() {
  server::ServiceConfig cfg;
  cfg.variant = "zl";
  cfg.workers = 2;
  cfg.buckets = 256;
  return cfg;
}

/// The end-of-phase store check: structure sound, and a full scan sees
/// exactly the elements the audit counted.
void audit_store(server::KvStore& store, const char* phase, bool inject,
                 Report& rep) {
  const auto audit = store.audit();
  const server::KvStore::ScanResult scan = store.scan();
  const std::uint64_t scanned = scan.count + (inject ? 1 : 0);
  if (!audit.sorted) rep.violation(std::string(phase) + ": store audit unsorted");
  if (scanned != audit.size) {
    rep.violation(std::string(phase) + ": scan saw " + std::to_string(scanned) +
                  " keys, audit " + std::to_string(audit.size));
  }
  ++rep.attempted;
}

void gen_flag(const char* phase, Samples& late_us, double rate,
              double cpu_share, Report& rep) {
  const double p99 = late_us.quantile(0.99);
  rep.note(std::string("gen_late_us_p99.") + phase, std::to_string(p99));
  rep.note(std::string("gen_cpu_share.") + phase, std::to_string(cpu_share));
  // Behind schedule: 1% of arrivals left more than one inter-arrival gap
  // late, so arrivals bunched.
  if (p99 > 1e6 / rate) {
    rep.note(std::string("gen_behind.") + phase, "yes");
    std::fprintf(stderr, "perfbench: WARNING: %s generator behind schedule "
                 "(late p99 %.1f us, cpu share %.2f)\n", phase, p99, cpu_share);
  }
}

/// Whole-phase and windowed percentiles of a fixed-rate phase, for the
/// provenance line.
void latency_notes(const char* phase, const std::vector<double>& lat_us,
                   Report& rep) {
  for (const double q : {0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    char key[64];
    std::snprintf(key, sizeof key, "%s.latency_us.q%g", phase, q);
    rep.note(key, std::to_string(quantile_of(lat_us, q)));
    std::snprintf(key, sizeof key, "%s.latency_us.windowed.q%g", phase, q);
    rep.note(key, std::to_string(windowed_quantile(lat_us, q, kLatencyWindows)));
  }
}

// ---------------------------------------------------------------------------
// In process
// ---------------------------------------------------------------------------

/// Completion record of one in-process request, written by the worker.
struct Completion {
  std::atomic<std::uint64_t> done_ns{0};
  std::atomic<std::uint32_t> calls{0};
};

struct Completions {
  explicit Completions(std::size_t n) : slot(new Completion[n]) {}
  std::unique_ptr<Completion[]> slot;
  std::atomic<std::uint64_t> finished{0};
  std::atomic<std::uint64_t> implausible{0};
};

struct InprocStep {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t not_once = 0;  // accepted but not completed exactly once
  std::uint64_t implausible = 0;
  bool drained = true;
  std::vector<double> lat_us;  // in arrival order
  Samples late_us;
  Samples submit_ns;
  Samples sojourn_us;
  std::uint64_t gen_cpu_ns = 0;
  std::uint64_t other_cpu_ns = 0;  // process CPU minus the generator's
  std::uint64_t elapsed_ns = 0;
};

InprocStep inproc_step(server::KvService& svc, OpGen& gen, double rate,
                       double secs, bool trace, bool inject,
                       std::uint64_t span_seq, Report* spans_to) {
  const std::size_t n = slots_for(rate, secs);
  const std::vector<OpSpec> ops = gen.batch(n);
  const double interval = 1e9 / rate;
  Completions done(n);
  std::vector<std::uint8_t> accepted(n, 0);
  std::vector<std::uint64_t> submit_start(trace ? n : 0);
  std::vector<std::uint64_t> submit_end(trace ? n : 0);
  InprocStep out;
  out.late_us.reserve(n);
  std::uint64_t t0 = 0;

  const std::uint64_t proc0 = process_cpu_ns();
  std::thread pacer([&] {
    const std::uint64_t cpu0 = thread_cpu_ns();
    t0 = now_ns() + 1000000;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(
                                         static_cast<double>(i) * interval);
      out.late_us.add(static_cast<double>(pace_until(due)) / 1e3);
      const OpSpec& s = ops[i];
      server::Request req;
      req.op = s.op;
      req.key = s.key;
      req.key2 = s.key2;
      req.value = s.value;
      req.fanout = s.fanout;
      req.arrival_ns = due;
      const server::Op op = s.op;
      Completions* d = &done;
      const std::uint32_t idx = static_cast<std::uint32_t>(i);
      req.on_done = [d, idx, op](const server::Response& r) {
        Completion& c = d->slot[idx];
        c.done_ns.store(now_ns(), std::memory_order_relaxed);
        if (implausible(op, r.ok, r.count)) {
          d->implausible.fetch_add(1, std::memory_order_relaxed);
        }
        c.calls.fetch_add(1, std::memory_order_relaxed);
        d->finished.fetch_add(1, std::memory_order_release);
      };
      const std::uint64_t s0 = trace ? now_ns() : 0;
      const bool ok = svc.submit(std::move(req));
      if (trace) {
        submit_start[i] = s0;
        submit_end[i] = now_ns();
      }
      accepted[i] = ok ? 1 : 0;
    }
    out.gen_cpu_ns = thread_cpu_ns() - cpu0;
  });
  pacer.join();
  for (const std::uint8_t a : accepted) out.accepted += a;
  out.offered = n;
  out.shed = n - out.accepted;

  const std::uint64_t deadline = now_ns() + kDrainTimeoutNs;
  while (done.finished.load(std::memory_order_acquire) < out.accepted) {
    if (now_ns() > deadline) {
      // stop() drains every accepted request, so no on_done can outlive
      // `done`; the service is then restarted for the next step.
      out.drained = false;
      svc.stop();
      svc.start();
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  done.finished.load(std::memory_order_acquire);
  out.elapsed_ns = now_ns() - t0;
  out.other_cpu_ns = process_cpu_ns() - proc0 - out.gen_cpu_ns;
  out.implausible = done.implausible.load();
  if (inject) done.slot[0].calls.fetch_add(1);

  out.lat_us.reserve(out.accepted);
  SpanLog log;
  for (std::size_t i = 0; i < n; ++i) {
    const Completion& c = done.slot[i];
    const std::uint32_t calls = c.calls.load(std::memory_order_relaxed);
    if (calls != accepted[i]) ++out.not_once;
    if (accepted[i] == 0 || calls == 0) continue;
    const std::uint64_t due =
        t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval);
    const std::uint64_t fin = c.done_ns.load(std::memory_order_relaxed);
    out.lat_us.push_back(static_cast<double>(fin - due) / 1e3);
    if (trace) {
      out.submit_ns.add(static_cast<double>(submit_end[i] - submit_start[i]));
      out.sojourn_us.add(
          fin > submit_end[i] ? static_cast<double>(fin - submit_end[i]) / 1e3
                              : 0.0);
      const std::uint64_t root = span_id(1, 0, span_seq + i);
      log.add(root, 0, kSpanKvRequest, due, fin);
      log.add(span_id(1, 1, span_seq + i), root, kSpanSubmit, submit_start[i],
              submit_end[i]);
      log.add(span_id(1, 2, span_seq + i), root, kSpanSojourn, submit_end[i],
              std::max(fin, submit_end[i]));
    }
  }
  if (spans_to != nullptr) spans_to->keep_spans(log);
  return out;
}

bool inproc_passes(const InprocStep& s) {
  return s.drained && s.shed == 0 && s.not_once == 0 &&
         quantile_of(s.lat_us, 0.99) <= kInprocLimitUs;
}

/// Correctness and accounting of a fixed-rate step.
void account_fixed(const char* phase, std::uint64_t offered,
                   std::uint64_t shed, std::uint64_t not_once,
                   std::uint64_t implausible_n, bool drained, Report& rep) {
  rep.attempted += offered;
  if (shed != 0) rep.violation(std::string(phase) + ": " + std::to_string(shed) + " requests shed at the fixed rate", shed);
  if (not_once != 0) {
    rep.violation(std::string(phase) + ": " + std::to_string(not_once) +
                      " requests not answered exactly once",
                  not_once);
  }
  if (implausible_n != 0) {
    rep.violation(std::string(phase) + ": " + std::to_string(implausible_n) +
                      " implausible responses",
                  implausible_n);
  }
  if (!drained) rep.violation(std::string(phase) + ": backlog did not drain");
}

/// The closed-loop store probe of a traced run: direct KvStore calls from
/// this thread, cycling the five store ops.
void store_probe(server::KvStore& store, double secs, std::uint64_t seed,
                 Report& rep) {
  static constexpr std::array<const char*, 5> kOps{"get", "put", "transfer",
                                                   "multi_get", "scan"};
  std::array<Samples, 5> us;
  zstm::util::Xorshift rng(seed | 1);
  zstm::util::Zipfian keys(kKeys, 0.99, seed ^ 0x5eedULL);
  std::vector<server::Value> window;
  SpanLog log;
  std::uint64_t seq = 0;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(secs * 1e9);
  while (now_ns() < end) {
    for (std::size_t op = 0; op < kOps.size(); ++op) {
      const server::Key k = keys.next();
      const std::uint64_t t0 = now_ns();
      switch (op) {
        case 0: (void)store.get(k); break;
        case 1: store.put(k, kInitialValue); break;
        case 2: store.transfer(k, (k + 1 + rng.next_below(kKeys - 1)) % kKeys, 1); break;
        case 3: store.multi_get(rng.next_below(kKeys - kFanout), kFanout, &window); break;
        default: (void)store.scan(); break;
      }
      const std::uint64_t t1 = now_ns();
      us[op].add(static_cast<double>(t1 - t0) / 1e3);
      log.add(span_id(3, 0, ++seq), 0, kSpanStoreGet + static_cast<std::uint32_t>(op), t0, t1);
    }
  }
  rep.keep_spans(log);
  for (std::size_t op = 0; op < kOps.size(); ++op) {
    rep.layer(std::string("server.store.") + kOps[op] + "_us_p50", us[op].quantile(0.5), "us");
    rep.layer(std::string("server.store.") + kOps[op] + "_us_p99", us[op].quantile(0.99), "us");
    rep.samples.push_back({std::string("store.") + kOps[op], us[op].size()});
  }
}

// ---------------------------------------------------------------------------
// Over TCP
// ---------------------------------------------------------------------------

/// Service, server and client connections, torn down in reverse order.
struct TcpRig {
  std::unique_ptr<server::KvService> svc;
  std::unique_ptr<net::TcpServer> srv;
  std::vector<int> fds;

  TcpRig() {
    svc = std::make_unique<server::KvService>(service_config());
    svc->preload(0, kKeys, kInitialValue);
    svc->start();
    net::NetConfig ncfg;
    ncfg.io_threads = 1;
    srv = std::make_unique<net::TcpServer>(*svc, ncfg);
    if (!srv->start()) return;
    for (int i = 0; i < kTcpConns; ++i) {
      const int fd = net::connect_tcp("127.0.0.1", srv->port());
      if (fd < 0) return;
      fds.push_back(fd);
    }
  }
  ~TcpRig() {
    for (const int fd : fds) ::close(fd);
    srv->stop();
    svc->stop();
  }
  TcpRig(const TcpRig&) = delete;
  TcpRig& operator=(const TcpRig&) = delete;

  bool ok() const { return srv->running() && fds.size() == kTcpConns; }
};

struct TcpStep {
  std::uint64_t offered = 0;
  std::uint64_t sent = 0;
  std::uint64_t pings = 0;
  std::uint64_t shed = 0;       // kShed responses
  std::uint64_t errors = 0;     // kError responses, bad frames, dead sockets
  std::uint64_t not_once = 0;   // sent but not answered exactly once
  std::uint64_t stale = 0;      // answers to an earlier step's requests
  bool drained = true;
  std::vector<double> lat_us;  // in arrival order
  Samples late_us;
  Samples send_us;
  Samples ping_us;
  std::uint64_t gen_cpu_ns = 0;
  std::uint64_t other_cpu_ns = 0;
  std::uint64_t elapsed_ns = 0;
};

/// Receive side of one connection, owned by the receiver thread while a
/// step runs.
struct RecvBuf {
  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
};

TcpStep tcp_step(TcpRig& rig, std::vector<RecvBuf>& rbufs, OpGen& gen,
                 double rate, double secs, bool trace, bool inject,
                 std::uint64_t& id_base, Report* spans_to) {
  const std::size_t n = slots_for(rate, secs);
  const std::vector<OpSpec> ops = gen.batch(n);
  const double interval = 1e9 / rate;
  const std::uint64_t base = id_base;
  id_base += n;
  std::vector<std::uint8_t> sent(n, 0);
  std::vector<std::uint8_t> hits(n, 0);
  std::vector<std::uint64_t> recv_at(n, 0);
  std::vector<std::uint64_t> send_start(trace ? n : 0);
  std::vector<std::uint64_t> send_end(trace ? n : 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pings;  // sent, recv
  TcpStep out;
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> stop{false};
  std::uint64_t recv_cpu = 0;
  std::uint64_t bad_frames = 0;

  const std::uint64_t proc0 = process_cpu_ns();
  std::thread receiver([&] {
    const std::uint64_t cpu0 = thread_cpu_ns();
    const int ep = epoll_create1(EPOLL_CLOEXEC);
    for (std::size_t c = 0; c < rig.fds.size(); ++c) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      epoll_ctl(ep, EPOLL_CTL_ADD, rig.fds[c], &ev);
    }
    std::array<epoll_event, kTcpConns> evs{};
    while (!stop.load(std::memory_order_acquire)) {
      const int k = epoll_wait(ep, evs.data(), kTcpConns, 1);
      for (int e = 0; e < k; ++e) {
        const std::size_t c = evs[static_cast<std::size_t>(e)].data.u64;
        RecvBuf& rb = rbufs[c];
        const std::size_t old = rb.buf.size();
        rb.buf.resize(old + 16384);
        const ssize_t got = ::recv(rig.fds[c], rb.buf.data() + old, 16384, MSG_DONTWAIT);
        rb.buf.resize(old + static_cast<std::size_t>(std::max<ssize_t>(got, 0)));
        const std::uint64_t now = now_ns();
        for (;;) {
          wire::Response resp;
          std::size_t used = 0;
          const wire::Decode d = wire::decode_response(
              rb.buf.data() + rb.off, rb.buf.size() - rb.off, &resp, &used);
          if (d == wire::Decode::kNeedMore) break;
          if (d == wire::Decode::kBad) {
            ++bad_frames;
            rb.off = rb.buf.size();
            break;
          }
          rb.off += used;
          received.fetch_add(1, std::memory_order_relaxed);
          if (resp.op == wire::Op::kPing) {
            pings.emplace_back(static_cast<std::uint64_t>(resp.value), now);
            continue;
          }
          if (resp.req_id < base || resp.req_id >= base + n) {
            ++out.stale;
            continue;
          }
          const std::size_t i = resp.req_id - base;
          ++hits[i];
          recv_at[i] = now;
          if (resp.status == wire::Status::kShed) ++out.shed;
          if (resp.status == wire::Status::kError) ++out.errors;
        }
        if (rb.off == rb.buf.size()) {
          rb.buf.clear();
          rb.off = 0;
        } else if (rb.off > 65536) {  // keep the partial frame, drop the rest
          rb.buf.erase(rb.buf.begin(),
                       rb.buf.begin() + static_cast<std::ptrdiff_t>(rb.off));
          rb.off = 0;
        }
      }
    }
    ::close(ep);
    recv_cpu = thread_cpu_ns() - cpu0;
  });

  std::uint64_t t0 = 0;
  std::uint64_t dead = 0;
  std::thread pacer([&] {
    const std::uint64_t cpu0 = thread_cpu_ns();
    std::array<bool, kTcpConns> alive{};
    alive.fill(true);
    std::array<std::vector<std::uint8_t>, kTcpConns> batch;
    std::array<std::vector<std::size_t>, kTcpConns> batch_ids;
    auto append = [&](std::size_t c, const wire::Request& r) {
      std::uint8_t buf[wire::kReqFrame];
      const std::size_t len = wire::encode_request(r, buf);
      batch[c].insert(batch[c].end(), buf, buf + len);
    };
    auto send_all = [&](std::size_t c) {
      std::size_t off = 0;
      while (alive[c] && off < batch[c].size()) {
        const ssize_t w = ::send(rig.fds[c], batch[c].data() + off,
                                 batch[c].size() - off, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) {
          alive[c] = false;
          ++dead;
          break;
        }
        off += static_cast<std::size_t>(w);
      }
      batch[c].clear();
      return alive[c];
    };
    auto due = [&](std::size_t i) {
      return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval);
    };
    t0 = now_ns() + 1000000;
    std::size_t i = 0;
    while (i < n) {
      pace_until(due(i));
      // Every request already due goes out now, one send per connection,
      // so a pacer that fell behind catches up instead of staying late.
      const std::uint64_t now = now_ns();
      for (std::size_t j = i; j < n && j < i + kMaxBatch && due(j) <= now; ++j, ++i) {
        out.late_us.add(static_cast<double>(now - due(j)) / 1e3);
        const OpSpec& s = ops[j];
        wire::Request r;
        r.op = static_cast<wire::Op>(static_cast<std::uint8_t>(s.op));
        r.req_id = base + j;
        r.key = s.key;
        r.key2 = s.key2;
        r.value = s.value;
        r.fanout = s.fanout;
        const std::size_t c = j % rig.fds.size();
        append(c, r);
        batch_ids[c].push_back(j);
        if (trace && j % kPingStride == 0) {
          wire::Request p;
          p.op = wire::Op::kPing;
          p.req_id = kPingFlag | (base + j);
          p.value = static_cast<std::int64_t>(now);
          append(c, p);
          ++out.pings;
        }
      }
      for (std::size_t c = 0; c < rig.fds.size(); ++c) {
        if (batch_ids[c].empty()) continue;
        const std::uint64_t s0 = trace ? now_ns() : 0;
        const bool ok = send_all(c);
        const std::uint64_t s1 = trace ? now_ns() : 0;
        if (trace) out.send_us.add(static_cast<double>(s1 - s0) / 1e3);
        for (const std::size_t j : batch_ids[c]) {
          sent[j] = ok ? 1 : 0;
          if (trace) {
            send_start[j] = s0;
            send_end[j] = s1;
          }
        }
        batch_ids[c].clear();
      }
    }
    out.gen_cpu_ns = thread_cpu_ns() - cpu0;
  });
  pacer.join();
  for (const std::uint8_t s : sent) out.sent += s;
  out.offered = n;

  const std::uint64_t expect = out.sent + out.pings;
  const std::uint64_t deadline = now_ns() + kDrainTimeoutNs;
  while (received.load(std::memory_order_relaxed) < expect) {
    if (now_ns() > deadline) {
      out.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true, std::memory_order_release);
  receiver.join();
  out.elapsed_ns = now_ns() - t0;
  out.gen_cpu_ns += recv_cpu;
  out.other_cpu_ns = process_cpu_ns() - proc0 - out.gen_cpu_ns;
  out.errors += bad_frames + dead;
  if (inject) ++hits[0];

  SpanLog log;
  for (std::size_t i = 0; i < n; ++i) {
    if (hits[i] != sent[i]) ++out.not_once;
    if (hits[i] == 0) continue;
    const std::uint64_t due =
        t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval);
    out.lat_us.push_back(static_cast<double>(recv_at[i] - due) / 1e3);
    if (trace) {
      const std::uint64_t root = span_id(2, 0, base + i);
      log.add(root, 0, kSpanTcpRequest, due, recv_at[i]);
      log.add(span_id(2, 1, base + i), root, kSpanSend, send_start[i], send_end[i]);
    }
  }
  for (std::size_t p = 0; p < pings.size(); ++p) {
    const auto [at, got] = pings[p];
    out.ping_us.add(got > at ? static_cast<double>(got - at) / 1e3 : 0.0);
    log.add(span_id(2, 2, p), 0, kSpanPing, at, got);
  }
  if (spans_to != nullptr) spans_to->keep_spans(log);
  return out;
}

bool tcp_passes(const TcpStep& s) {
  return s.drained && s.shed == 0 && s.errors == 0 && s.not_once == 0 &&
         s.sent == s.offered && quantile_of(s.lat_us, 0.99) <= kTcpLimitUs;
}

}  // namespace

void run_kv_inproc(const Options& opt, double secs, Report& rep) {
  std::unique_ptr<server::KvService> svc;
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    svc.reset();
    const std::uint64_t t0 = now_ns();
    svc = std::make_unique<server::KvService>(service_config());
    svc->preload(0, kKeys, kInitialValue);
    svc->start();
    rounds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  rep.setup_s += median(rounds);

  OpGen gen(opt.seed * 0x9e3779b97f4a7c15ULL + 11, opt.theta, kDefaultMix);
  const double fixed_s = opt.trace ? secs * 0.3 : secs * 0.5;
  InprocStep plain = inproc_step(*svc, gen, kInprocRate, fixed_s, false,
                                 opt.inject_wrong, 0, nullptr);
  account_fixed("kv-inproc", plain.offered, plain.shed, plain.not_once,
                plain.implausible, plain.drained, rep);
  rep.samples.push_back({"kv-inproc.fixed", plain.lat_us.size()});
  gen_flag("inproc", plain.late_us, kInprocRate,
           ratio(static_cast<double>(plain.gen_cpu_ns),
                 static_cast<double>(plain.elapsed_ns)),
           rep);
  latency_notes("inproc", plain.lat_us, rep);

  if (!opt.trace) {
    int steps = 0;
    const double step_s = secs * 0.5 / kSearchSteps;
    rep.note_rss();
    const double max_rps = search_max_rate(
        kInprocSearchStart, kMaxDoublings, [&](double rate) {
          ++steps;
          InprocStep s = inproc_step(*svc, gen, rate, step_s, false, false, 0,
                                     nullptr);
          return inproc_passes(s);
        });
    rep.samples.push_back({"kv-inproc.search_steps", static_cast<std::uint64_t>(steps)});
    reset_peak_rss();
    rep.note("inproc.max_rps", std::to_string(max_rps));
  } else {
    const zstm::util::StatsSnapshot st0 = svc->stm().stats();
    const std::uint64_t serial0 = svc->stm().progress().serial_entries;
    InprocStep traced = inproc_step(*svc, gen, kInprocRate, fixed_s, true,
                                    false, 0, &rep);
    account_fixed("kv-inproc traced", traced.offered, traced.shed,
                  traced.not_once, traced.implausible, traced.drained, rep);
    const zstm::util::StatsSnapshot st1 = svc->stm().stats();
    const zstm::util::ProgressTracker::Snapshot prog = svc->stm().progress();
    rep.samples.push_back({"kv-inproc.traced", traced.lat_us.size()});

    rep.layer("gen.late_us_p50.inproc", traced.late_us.quantile(0.5), "us");
    rep.layer("gen.late_us_p99.inproc", traced.late_us.quantile(0.99), "us");
    rep.layer("gen.cpu_share.inproc",
              ratio(static_cast<double>(traced.gen_cpu_ns),
                    static_cast<double>(traced.elapsed_ns)),
              "ratio");
    rep.layer("gen.sleep_overshoot_us", sleep_overshoot_us(), "us");
    rep.layer("server.sojourn_us_p50", traced.sojourn_us.quantile(0.5), "us");
    rep.layer("server.sojourn_us_p99", traced.sojourn_us.quantile(0.99), "us");
    rep.layer("server.submit_ns_p50", traced.submit_ns.quantile(0.5), "ns");
    rep.layer("server.submit_ns_p99", traced.submit_ns.quantile(0.99), "ns");
    const double commits =
        static_cast<double>(st1[Counter::kCommits] - st0[Counter::kCommits]);
    const double aborts =
        static_cast<double>(st1[Counter::kAborts] - st0[Counter::kAborts]);
    rep.layer("api.commit_ratio", ratio(commits, commits + aborts), "ratio");
    rep.layer("api.serial_entries",
              static_cast<double>(prog.serial_entries - serial0), "count");
    rep.layer("api.max_attempts", static_cast<double>(prog.max_attempts), "count");
    rep.layer("zstm.zone_conflicts_per_kcommit",
              per_kcommit(st0, st1, Counter::kZoneConflicts), "count");
    rep.layer("lsa.extensions_per_kcommit",
              per_kcommit(st0, st1, Counter::kExtensions), "count");
    rep.layer("lsa.validation_fails_per_kcommit",
              per_kcommit(st0, st1, Counter::kValidationFails), "count");
    rep.layer("cm.kills_per_kcommit", per_kcommit(st0, st1, Counter::kCmKills), "count");
    rep.layer("cm.waits_per_kcommit", per_kcommit(st0, st1, Counter::kCmWaits), "count");
    const double hits =
        static_cast<double>(st1[Counter::kPoolHits] - st0[Counter::kPoolHits]);
    const double misses =
        static_cast<double>(st1[Counter::kPoolMisses] - st0[Counter::kPoolMisses]);
    rep.layer("object.pool_hit_ratio", ratio(hits, hits + misses), "ratio");
    rep.layer("proc.cpu_us_per_req.inproc",
              ratio(static_cast<double>(traced.other_cpu_ns) / 1e3,
                    static_cast<double>(traced.accepted)),
              "us");
    rep.layer("trace.overhead_pct.inproc",
              100.0 * ratio(quantile_of(traced.lat_us, 0.5) - quantile_of(plain.lat_us, 0.5),
                            quantile_of(plain.lat_us, 0.5)),
              "%");
    store_probe(svc->store(), secs * 0.2, opt.seed + 77, rep);
  }

  svc->stop();
  audit_store(svc->store(), "kv-inproc", opt.inject_wrong, rep);
}

void run_kv_tcp(const Options& opt, double secs, Report& rep) {
  std::unique_ptr<TcpRig> rig;
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    rig = std::make_unique<TcpRig>();
    rounds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  rep.setup_s += median(rounds);
  if (!rig->ok()) {
    rep.violation("kv-tcp: server or connections failed to start");
    return;
  }

  std::vector<RecvBuf> rbufs(kTcpConns);
  std::uint64_t id_base = 1;
  OpGen gen(opt.seed * 0x9e3779b97f4a7c15ULL + 23, opt.theta, kPointMix);
  const net::NetStats ns0 = rig->srv->stats();
  const double fixed_s = opt.trace ? secs * 0.4 : secs * 0.5;
  TcpStep plain = tcp_step(*rig, rbufs, gen, kTcpRate, fixed_s, false,
                           opt.inject_wrong, id_base, nullptr);
  const net::NetStats ns1 = rig->srv->stats();
  account_fixed("kv-tcp", plain.offered, plain.shed,
                plain.not_once + (plain.offered - plain.sent), plain.errors,
                plain.drained, rep);
  if (ns1.responses - ns0.responses != plain.sent) {
    rep.violation("kv-tcp: server responses " +
                  std::to_string(ns1.responses - ns0.responses) + " != sent " +
                  std::to_string(plain.sent));
  }
  if (ns1.protocol_errors != ns0.protocol_errors) {
    rep.violation("kv-tcp: protocol errors");
  }
  rep.samples.push_back({"kv-tcp.fixed", plain.lat_us.size()});
  gen_flag("tcp", plain.late_us, kTcpRate,
           ratio(static_cast<double>(plain.gen_cpu_ns),
                 static_cast<double>(plain.elapsed_ns)),
           rep);
  rep.e2e("tcp.p50_us", windowed_quantile(plain.lat_us, 0.5, kLatencyWindows), "us");
  latency_notes("tcp", plain.lat_us, rep);

  if (!opt.trace) {
    int steps = 0;
    const double step_s = secs * 0.5 / kSearchSteps;
    rep.note_rss();
    const double max_rps = search_max_rate(
        kTcpSearchStart, kMaxDoublings, [&](double rate) {
          ++steps;
          TcpStep s = tcp_step(*rig, rbufs, gen, rate, step_s, false, false,
                               id_base, nullptr);
          return tcp_passes(s);
        });
    rep.samples.push_back({"kv-tcp.search_steps", static_cast<std::uint64_t>(steps)});
    reset_peak_rss();
    rep.note("tcp.max_rps", std::to_string(max_rps));
  } else {
    const net::NetStats t0 = rig->srv->stats();
    TcpStep traced = tcp_step(*rig, rbufs, gen, kTcpRate, fixed_s, true, false,
                              id_base, &rep);
    const net::NetStats t1 = rig->srv->stats();
    account_fixed("kv-tcp traced", traced.offered, traced.shed,
                  traced.not_once + (traced.offered - traced.sent),
                  traced.errors, traced.drained, rep);
    if (t1.responses - t0.responses != traced.sent + traced.pings) {
      rep.violation("kv-tcp traced: server responses != sent");
    }
    rep.samples.push_back({"kv-tcp.traced", traced.lat_us.size()});
    rep.samples.push_back({"kv-tcp.pings", traced.ping_us.size()});
    rep.layer("gen.late_us_p50.tcp", traced.late_us.quantile(0.5), "us");
    rep.layer("gen.late_us_p99.tcp", traced.late_us.quantile(0.99), "us");
    rep.layer("gen.cpu_share.tcp",
              ratio(static_cast<double>(traced.gen_cpu_ns),
                    static_cast<double>(traced.elapsed_ns)),
              "ratio");
    rep.layer("net.ping_rtt_us_p50", traced.ping_us.quantile(0.5), "us");
    rep.layer("net.ping_rtt_us_p99", traced.ping_us.quantile(0.99), "us");
    rep.layer("net.send_us_p50", traced.send_us.quantile(0.5), "us");
    rep.layer("net.requests", static_cast<double>(t1.requests - t0.requests), "count");
    rep.layer("net.responses", static_cast<double>(t1.responses - t0.responses), "count");
    rep.layer("net.shed_backpressure",
              static_cast<double>(t1.shed_backpressure - t0.shed_backpressure), "count");
    rep.layer("net.shed_service",
              static_cast<double>(t1.shed_service - t0.shed_service), "count");
    rep.layer("net.protocol_errors",
              static_cast<double>(t1.protocol_errors - t0.protocol_errors), "count");
    rep.layer("proc.cpu_us_per_req.tcp",
              ratio(static_cast<double>(traced.other_cpu_ns) / 1e3,
                    static_cast<double>(traced.sent)),
              "us");
    rep.layer("trace.overhead_pct.tcp",
              100.0 * ratio(quantile_of(traced.lat_us, 0.5) - quantile_of(plain.lat_us, 0.5),
                            quantile_of(plain.lat_us, 0.5)),
              "%");
  }

  server::KvService& svc = *rig->svc;
  rig->srv->stop();
  svc.stop();
  audit_store(svc.store(), "kv-tcp", opt.inject_wrong, rep);
}

}  // namespace perfbench
