// zstm_perfbench: runs one workload of the repository benchmark. Every run
// has three phases in turn (kv-inproc, kv-tcp, bank; see RATIONALE.md) and
// prints a provenance line, then the result line:
//
//   zstm_perfbench --workload zipf|uniform --seed N --seconds S --trace 0|1
//                  [--inject-wrong] [--source-id ID] [--out-dir DIR]
//
// Exit code 0 only when every correctness check passed.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

/// Shares of --seconds each phase measures for.
constexpr double kInprocShare = 0.35;
constexpr double kTcpShare = 0.25;
constexpr double kBankShare = 0.40;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string kernel() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

void usage() {
  std::fprintf(stderr,
               "usage: zstm_perfbench --workload zipf|uniform --seed N "
               "--seconds S --trace 0|1 [--inject-wrong] [--source-id ID] "
               "[--out-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string source_id = "unknown";
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_val) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--inject-wrong") {
      opt.inject_wrong = true;
    } else if (a == "--source-id" && has_val) {
      source_id = argv[++i];
    } else if (a == "--out-dir" && has_val) {
      out_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (opt.workload == "zipf") {
    opt.theta = 0.99;
  } else if (opt.workload == "uniform") {
    opt.theta = 0.0;
  } else {
    usage();
    return 2;
  }
  if (!(opt.seconds > 0) || opt.seconds > 600) {
    usage();
    return 2;
  }

  perfbench::Report rep;
  perfbench::run_kv_inproc(opt, opt.seconds * kInprocShare, rep);
  perfbench::run_kv_tcp(opt, opt.seconds * kTcpShare, rep);
  perfbench::run_bank(opt, opt.seconds * kBankShare, rep);
  rep.e2e("setup_s", rep.setup_s, "s");
  rep.note_rss();
  rep.e2e("peak_rss_mb", rep.rss_mb, "MB");
  const bool correct = rep.violations.empty() && rep.failed == 0;
  const std::uint64_t attempted = rep.attempted > 0 ? rep.attempted : 1;

  // Provenance: enough to refuse a comparison across hosts or builds.
  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": \"" << opt.workload
       << "\", \"seed\": " << opt.seed << ", \"seconds\": " << num(opt.seconds)
       << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpu_model\": \"" << json_escape(cpu_model())
       << "\", \"kernel\": \"" << json_escape(kernel())
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
       << "\", \"source_id\": \"" << json_escape(source_id) << "\"";
  for (const auto& [k, v] : rep.notes) {
    prov << ", \"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
  }
  prov << "}, \"fail_ratio\": "
       << num(static_cast<double>(rep.failed) / static_cast<double>(attempted))
       << ", \"samples\": {";
  for (std::size_t i = 0; i < rep.samples.size(); ++i) {
    prov << (i ? ", " : "") << "\"" << json_escape(rep.samples[i].first)
         << "\": " << rep.samples[i].second;
  }
  prov << "}, \"violations\": [";
  for (std::size_t i = 0; i < rep.violations.size(); ++i) {
    prov << (i ? ", " : "") << "\"" << json_escape(rep.violations[i]) << "\"";
  }
  prov << "]}";
  std::printf("%s\n", prov.str().c_str());

  // Spans of a traced run, one CSV row each, written once the run is over.
  if (opt.trace && !out_dir.empty()) {
    const std::string path = out_dir + "/" + opt.workload + ".spans.csv";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "id,parent,name,start_ns,end_ns\n");
      for (const perfbench::Span& s : rep.spans) {
        std::fprintf(f, "%llu,%llu,%s,%llu,%llu\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     perfbench::span_name(s.name),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
      }
      std::fclose(f);
    }
  }

  const auto& metrics = opt.trace ? rep.per_layer : rep.end_to_end;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
