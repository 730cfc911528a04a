// The paper's bank application (§5.5) as a standalone example, now over
// the unified façade: any runtime variant by name.
//
//   $ ./bank [threads] [seconds] [stm] [update]
//     threads : worker count                               (default 4)
//     seconds : run time                                   (default 1)
//     stm     : lsa | lsa-nors | cs-vc | cs-r | sstm | zl | tl2  (default z/zl)
//     update  : ro | update  — Compute-Total               (default ro)
//
// Thread 0 mixes transfers (80%) with Compute-Total (20%); other threads
// only transfer. Prints throughput, the conserved total, and STM stats.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "../bench/bank_harness.hpp"

int main(int argc, char** argv) {
  zstm::bench::BankParams p;
  p.threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 1.0;
  p.duration = std::chrono::milliseconds(static_cast<long>(seconds * 1000));
  std::string stm = argc > 3 ? argv[3] : "zl";
  if (stm == "z") stm = "zl";            // old spelling
  if (stm == "lsa-nrs") stm = "lsa-nors";  // old spelling
  p.update_total = argc > 4 && std::strcmp(argv[4], "update") == 0;

  if (p.threads < 1 || p.threads > 32) {
    std::fprintf(stderr, "threads must be in [1, 32]\n");
    return 2;
  }

  std::printf("bank: %d threads, %.1fs, stm=%s, compute-total=%s\n",
              p.threads, seconds, stm.c_str(),
              p.update_total ? "update" : "read-only");

  zstm::bench::BankResult r;
  try {
    r = zstm::bench::run_named_bank(stm, p, zstm::bench::bank_config(p));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("  transfers      : %10.0f tx/s  (%llu commits)\n",
              r.transfer_per_s,
              static_cast<unsigned long long>(r.transfer_commits));
  std::printf("  compute-total  : %10.1f tx/s  (%llu commits, %llu failed "
              "episodes)\n",
              r.compute_total_per_s,
              static_cast<unsigned long long>(r.compute_total_commits),
              static_cast<unsigned long long>(r.compute_total_failures));
  const long expected = zstm::bench::kInitialBalance * p.accounts;
  std::printf("  conserved total: %ld (expected %ld)\n", r.total, expected);
  return r.total == expected ? 0 : 1;
}
