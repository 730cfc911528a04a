// kv_server — the STM-backed KV service under open-loop load (DESIGN.md
// §12): for each requested runtime variant, stand the service up, preload
// the keyspace, drive a paced Zipfian request mix at a fixed arrival rate,
// and report throughput plus the latency tail (p50/p99/p999, measured from
// scheduled arrival, so queueing delay is in the numbers).
//
//   ./kv_server [--variants=lsa,zl,...] [--rate=2000] [--duration-ms=1000]
//               [--workers=2] [--keys=4096] [--zipf=0.99] [--poisson]
//               [--put=0.15] [--del=0.02] [--multi=0.05] [--scan=0.01]
//               [--transfer=0.07] [--multi-fanout=16] [--queue=16384]
//               [--seed=1] [--json]
//
// Networked mode (DESIGN.md §13.5) puts the epoll TCP front end between the
// load generator and the service — same schedule, same mix, one extra hop:
//
//   ./kv_server --net [--port=0] [--io-threads=2] [--conns=8] [--idle-ms=0]
//
// `--json` writes BENCH_kv.json (in-process) or BENCH_kv_net.json (--net),
// scripts/bench_compare.py compatible; the identity of a row is system +
// rate + threads (+ transport/io_threads/conns for net rows) + the
// stringified knobs. Exit status is nonzero if any variant completes zero
// requests.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "net/net_load_gen.hpp"
#include "net/tcp_server.hpp"
#include "server/kv_service.hpp"
#include "server/load_gen.hpp"

namespace {

using namespace zstm;

struct Args {
  std::vector<std::string> variants;
  int rate = 2000;
  int duration_ms = 1000;
  int workers = 2;
  std::uint64_t keys = 4096;
  double zipf = 0.99;
  server::LoadMix mix;
  std::uint32_t multi_fanout = 16;
  std::size_t queue = 1 << 14;
  bool poisson = false;
  std::uint64_t seed = 1;
  bool json = false;
  // --net
  bool net = false;
  int port = 0;
  int io_threads = 2;
  int conns = 8;
  int idle_ms = 0;
};

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += *p;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (parse_flag(argv[i], "--variants", &v) && v != nullptr) {
      a.variants = split_csv(v);
    } else if (parse_flag(argv[i], "--rate", &v) && v != nullptr) {
      a.rate = std::atoi(v);
    } else if (parse_flag(argv[i], "--duration-ms", &v) && v != nullptr) {
      a.duration_ms = std::atoi(v);
    } else if (parse_flag(argv[i], "--workers", &v) && v != nullptr) {
      a.workers = std::atoi(v);
    } else if (parse_flag(argv[i], "--keys", &v) && v != nullptr) {
      a.keys = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--zipf", &v) && v != nullptr) {
      a.zipf = std::atof(v);
    } else if (parse_flag(argv[i], "--put", &v) && v != nullptr) {
      a.mix.put = std::atof(v);
    } else if (parse_flag(argv[i], "--del", &v) && v != nullptr) {
      a.mix.del = std::atof(v);
    } else if (parse_flag(argv[i], "--multi", &v) && v != nullptr) {
      a.mix.multi_get = std::atof(v);
    } else if (parse_flag(argv[i], "--scan", &v) && v != nullptr) {
      a.mix.scan = std::atof(v);
    } else if (parse_flag(argv[i], "--transfer", &v) && v != nullptr) {
      a.mix.transfer = std::atof(v);
    } else if (parse_flag(argv[i], "--multi-fanout", &v) && v != nullptr) {
      a.multi_fanout = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--queue", &v) && v != nullptr) {
      a.queue = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (parse_flag(argv[i], "--seed", &v) && v != nullptr) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--port", &v) && v != nullptr) {
      a.port = std::atoi(v);
    } else if (parse_flag(argv[i], "--io-threads", &v) && v != nullptr) {
      a.io_threads = std::atoi(v);
    } else if (parse_flag(argv[i], "--conns", &v) && v != nullptr) {
      a.conns = std::atoi(v);
    } else if (parse_flag(argv[i], "--idle-ms", &v) && v != nullptr) {
      a.idle_ms = std::atoi(v);
    } else if (std::strcmp(argv[i], "--poisson") == 0) {
      a.poisson = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      a.json = true;
    } else if (std::strcmp(argv[i], "--net") == 0) {
      a.net = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (a.variants.empty()) {
    a.variants = api::variant_names();
  }
  // Resolve every name before any service starts: a typo is a usage error.
  for (const std::string& name : a.variants) {
    try {
      api::visit_variant(name, {}, [](auto, const char*, const auto&) {});
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }
  return a;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

server::ServiceConfig service_config(const Args& args,
                                     const std::string& variant) {
  server::ServiceConfig scfg;
  scfg.variant = variant;
  scfg.workers = args.workers;
  scfg.queue_capacity = args.queue;
  scfg.buckets = 256;
  scfg.stm.max_threads = args.workers + 4;  // workers + pacer/main slack
  return scfg;
}

server::LoadGenConfig load_config(const Args& args) {
  server::LoadGenConfig lcfg;
  lcfg.rate = static_cast<double>(args.rate);
  lcfg.duration = std::chrono::milliseconds(args.duration_ms);
  lcfg.keyspace = args.keys;
  lcfg.zipf_theta = args.zipf;
  lcfg.mix = args.mix;
  lcfg.multi_fanout = args.multi_fanout;
  lcfg.poisson = args.poisson;
  lcfg.seed = args.seed;
  return lcfg;
}

/// One in-process run. Returns whether it completed any request.
bool run_inproc(const Args& args, const std::string& variant,
                benchjson::Doc& doc) {
  server::KvService svc(service_config(args, variant));
  svc.preload(0, args.keys, 100);

  svc.start();
  const server::LoadGenResult load =
      server::run_open_loop(svc, load_config(args));
  svc.stop();

  server::ServiceMetrics m = svc.metrics();
  const double secs = static_cast<double>(load.elapsed_ns) / 1e9;
  const double thruput =
      secs > 0 ? static_cast<double>(m.completed) / secs : 0.0;

  std::printf("%-8s %8d %10.0f %8llu %8llu %8.1f %9.1f %9.1f %9.1f %7llu\n",
              variant.c_str(), args.rate, thruput,
              static_cast<unsigned long long>(load.accepted),
              static_cast<unsigned long long>(load.shed),
              us(m.all.quantile(0.50)), us(m.all.quantile(0.99)),
              us(m.all.quantile(0.999)), us(m.all.max()),
              static_cast<unsigned long long>(m.progress.serial_entries));

  doc.row()
      .str("system", variant)
      .num("threads", args.workers)
      .num("rate", args.rate)
      .str("zipf", std::to_string(args.zipf))
      .str("keys", std::to_string(args.keys))
      .num("offered", load.offered)
      .num("accepted", load.accepted)
      .num("shed", load.shed)
      .num("completed", m.completed)
      .num("throughput", thruput)
      .num("p50_us", us(m.all.quantile(0.50)))
      .num("p99_us", us(m.all.quantile(0.99)))
      .num("p999_us", us(m.all.quantile(0.999)))
      .num("max_us", us(m.all.max()))
      .num("get_p99_us",
           us(m.per_op[static_cast<std::size_t>(server::Op::kGet)].quantile(
               0.99)))
      .num("put_p99_us",
           us(m.per_op[static_cast<std::size_t>(server::Op::kPut)].quantile(
               0.99)))
      .num("scan_p99_us",
           us(m.per_op[static_cast<std::size_t>(server::Op::kScan)].quantile(
               0.99)))
      .num("serial_entries", m.progress.serial_entries)
      .num("max_attempts", static_cast<std::uint64_t>(m.progress.max_attempts));
  return m.completed > 0;
}

/// One networked run: service + TcpServer on loopback, load over TCP.
/// Returns whether it received any response.
bool run_net(const Args& args, const std::string& variant,
             benchjson::Doc& doc) {
  server::KvService svc(service_config(args, variant));
  svc.preload(0, args.keys, 100);
  svc.start();

  net::NetConfig ncfg;
  ncfg.port = static_cast<std::uint16_t>(args.port);
  ncfg.io_threads = args.io_threads;
  ncfg.idle_timeout = std::chrono::milliseconds(args.idle_ms);
  net::TcpServer ts(svc, ncfg);
  if (!ts.start()) {
    std::fprintf(stderr, "kv_server: TCP server failed to start\n");
    svc.stop();
    return false;
  }

  const net::NetLoadResult load = net::run_net_open_loop(
      "127.0.0.1", ts.port(), load_config(args), args.conns);

  ts.stop();  // before the service: in-flight completions target live loops
  svc.stop();

  const net::NetStats ns = ts.stats();
  server::ServiceMetrics m = svc.metrics();
  const double secs = static_cast<double>(load.elapsed_ns) / 1e9;
  const double thruput =
      secs > 0 ? static_cast<double>(load.responses) / secs : 0.0;
  const std::uint64_t shed_total =
      load.client_shed + load.server_shed + load.unflushed;

  std::printf("%-8s %8d %10.0f %8llu %8llu %8.1f %9.1f %9.1f %9.1f %7llu %6llu\n",
              variant.c_str(), args.rate, thruput,
              static_cast<unsigned long long>(load.responses),
              static_cast<unsigned long long>(shed_total),
              us(load.all.quantile(0.50)), us(load.all.quantile(0.99)),
              us(load.all.quantile(0.999)), us(load.all.max()),
              static_cast<unsigned long long>(m.progress.serial_entries),
              static_cast<unsigned long long>(ns.protocol_errors));

  const auto op_p99 = [&load](net::wire::Op op) {
    return us(load.per_op[static_cast<int>(op)].quantile(0.99));
  };

  doc.row()
      .str("system", variant)
      .str("transport", "tcp")
      .num("threads", args.workers)
      .num("io_threads", args.io_threads)
      .num("conns", args.conns)
      .num("rate", args.rate)
      .str("zipf", std::to_string(args.zipf))
      .str("keys", std::to_string(args.keys))
      .num("offered", load.offered)
      .num("sent", load.sent)
      .num("client_shed", load.client_shed)
      .num("server_shed", load.server_shed)
      .num("unflushed", load.unflushed)
      .num("io_errors", load.io_errors)
      .num("responses", load.responses)
      .num("completed", m.completed)
      .num("throughput", thruput)
      .num("p50_us", us(load.all.quantile(0.50)))
      .num("p99_us", us(load.all.quantile(0.99)))
      .num("p999_us", us(load.all.quantile(0.999)))
      .num("max_us", us(load.all.max()))
      .num("get_p99_us", op_p99(net::wire::Op::kGet))
      .num("put_p99_us", op_p99(net::wire::Op::kPut))
      .num("scan_p99_us", op_p99(net::wire::Op::kScan))
      .num("net_requests", ns.requests)
      .num("net_responses", ns.responses)
      .num("shed_backpressure", ns.shed_backpressure)
      .num("shed_service", ns.shed_service)
      .num("protocol_errors", ns.protocol_errors)
      .num("conns_accepted", ns.conns_accepted)
      .num("serial_entries", m.progress.serial_entries)
      .num("max_attempts",
           static_cast<std::uint64_t>(m.progress.max_attempts));
  return load.all.count() > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::printf(
      "kv_server: open-loop %d req/s for %d ms, %d workers, %llu keys, "
      "zipf %.2f%s%s\n",
      args.rate, args.duration_ms, args.workers,
      static_cast<unsigned long long>(args.keys), args.zipf,
      args.poisson ? ", poisson" : "", args.net ? ", tcp loopback" : "");
  if (args.net) {
    std::printf("net: %d io thread(s), %d conn(s)\n", args.io_threads,
                args.conns);
  }
  std::printf("%-8s %8s %10s %8s %8s %8s %9s %9s %9s %7s%s\n", "system",
              "rate", "thruput/s", args.net ? "resps" : "accepted", "shed",
              "p50us", "p99us", "p999us", "maxus", "serial",
              args.net ? " proterr" : "");

  benchjson::Doc doc(args.net ? "kv_net" : "kv");
  bool failed = false;

  for (const std::string& variant : args.variants) {
    const bool ok = args.net ? run_net(args, variant, doc)
                             : run_inproc(args, variant, doc);
    if (!ok) failed = true;
  }

  if (args.json && !doc.write()) return 1;
  if (failed) {
    std::fprintf(stderr, "kv_server: a variant completed zero requests\n");
    return 1;
  }
  return 0;
}
