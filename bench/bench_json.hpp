// Shared JSON emission for zstm_bench and kv_server: `--json` makes them
// write BENCH_<name>.json next to their stdout tables so CI can archive the
// perf trajectory. The host (hardware threads, OS, build type) is recorded
// alongside the numbers because the 1-CPU CI box is not representative of
// the multi-core boxes the figures were tuned on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

namespace zstm::benchjson {

/// One benchmark result row: ordered key → already-encoded JSON value.
class Row {
 public:
  Row& num(const char* key, double v) {
    // JSON has no NaN/Inf tokens; emit null so the document stays parseable.
    if (!std::isfinite(v)) {
      fields_.emplace_back(key, "null");
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    fields_.emplace_back(key, buf);
    return *this;
  }
  Row& num(const char* key, std::uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
    return *this;
  }
  Row& num(const char* key, int v) {
    fields_.emplace_back(key, std::to_string(v));
    return *this;
  }
  Row& str(const char* key, const std::string& v) {
    fields_.emplace_back(key, "\"" + v + "\"");
    return *this;
  }

 private:
  friend class Doc;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Accumulates rows and writes `BENCH_<name>.json`:
///   { "bench": ..., "host": {...}, "rows": [ {...}, ... ] }
class Doc {
  using Fields = std::vector<std::pair<std::string, std::string>>;

 public:
  explicit Doc(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes BENCH_<name>.json into the working directory. Returns false
  /// (with a message on stderr) if the file cannot be opened.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    write_host(f);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {");
      const auto& fields = rows_[i].fields_;
      for (std::size_t k = 0; k < fields.size(); ++k) {
        std::fprintf(f, "\"%s\": %s%s", fields[k].first.c_str(),
                     fields[k].second.c_str(),
                     k + 1 < fields.size() ? ", " : "");
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

  /// Prints the rows on stdout as aligned columns, with a header wherever
  /// the set of fields changes.
  void print() const {
    for (std::size_t first = 0, end = 0; first < rows_.size(); first = end) {
      const Fields& head = rows_[first].fields_;
      std::vector<std::size_t> width(head.size());
      for (end = first; end < rows_.size() && same_keys(rows_[end], head);
           ++end) {
        for (std::size_t k = 0; k < head.size(); ++k) {
          width[k] = std::max({width[k], head[k].first.size(),
                               plain(rows_[end].fields_[k].second).size()});
        }
      }
      const auto line = [&](auto text) {
        for (std::size_t k = 0; k < head.size(); ++k) {
          std::printf("%*s%s", static_cast<int>(width[k]), text(k).c_str(),
                      k + 1 < head.size() ? "  " : "\n");
        }
      };
      std::printf("\n");
      line([&](std::size_t k) { return head[k].first; });
      for (std::size_t i = first; i < end; ++i) {
        line([&](std::size_t k) { return plain(rows_[i].fields_[k].second); });
      }
    }
  }

 private:
  static void write_host(std::FILE* f) {
    std::fprintf(f, "  \"host\": {\"hardware_concurrency\": %u",
                 std::thread::hardware_concurrency());
#if defined(__unix__) || defined(__APPLE__)
    struct utsname u{};
    if (uname(&u) == 0) {
      std::fprintf(f, ", \"os\": \"%s %s\", \"machine\": \"%s\"", u.sysname,
                   u.release, u.machine);
    }
#endif
#if defined(NDEBUG)
    std::fprintf(f, ", \"build\": \"release\"");
#else
    std::fprintf(f, ", \"build\": \"debug\"");
#endif
    std::fprintf(f, "},\n");
  }

  static bool same_keys(const Row& row, const Fields& head) {
    return std::equal(
        row.fields_.begin(), row.fields_.end(), head.begin(), head.end(),
        [](const auto& x, const auto& y) { return x.first == y.first; });
  }

  /// A field's value as printed: strings lose their JSON quotes.
  static std::string plain(const std::string& encoded) {
    return encoded.size() >= 2 && encoded.front() == '"'
               ? encoded.substr(1, encoded.size() - 2)
               : encoded;
  }

  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace zstm::benchjson
