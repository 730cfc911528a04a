// zstm_bench: the paper's evaluation in one binary.
//
//   zstm_bench [--json] [section ...]      no section runs them all
//
// Each section prints its table; --json also writes BENCH_<section>.json
// (bench_json.hpp). Every section drives its workers through one trial
// runner (trial.hpp), and the STM-level sections are settings of the §5.5
// bank (bank_harness.hpp):
//
//   fig6, fig7   Figures 6 and 7: the bank, read-only / update Compute-Total
//   transfer     transfer-only bank, all variants: zone-check (Figure 6) and
//                vector-time / serializability (§4.4) overheads
//   scan         one thread, Compute-Total only: the read-set cost (Figure 6)
//   alloc        heap allocations on the write path, pooled vs heap
//                (DESIGN.md §7): lsa transfers, cs-vc reads and transfers,
//                sstm transfers
//   cm           the one contention rule on a hot spot, every object
//                runtime (§4.1)
//   versions     version depth against long scans (§4.4)
//   plausible_r  REV plausible clocks: accuracy, cs-r throughput, and
//                clock-operation costs (§4.3)
//   clock_scale  commit-stamp acquisition: §2's shared counter against
//                its synchronized real-time clocks (DESIGN.md §10)
//
// Exit status: 1 when a check fails — a bank run whose accounts no longer
// sum to the opening balance (§5.5 conservation), or pooled cs-vc or sstm
// updates above kMaxPooledUpdateAllocs heap allocations per transaction; 2
// on a usage error; otherwise 0.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bank_harness.hpp"
#include "bench_json.hpp"
#include "object/node_pool.hpp"
#include "timebase/global_counter.hpp"
#include "timebase/plausible_clock.hpp"
#include "timebase/sync_clock.hpp"
#include "timebase/vector_clock.hpp"
#include "trial.hpp"
#include "util/rng.hpp"

// Counting global allocator for the alloc section: a thread-local tally, so
// sections that never read it pay no shared-line traffic. The standard
// library's operator delete, which frees with free(), stays; operator
// new[] and the nothrow forms call this one.
void* operator new(std::size_t size) {
  ++zstm::bench::t_heap_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

namespace zstm::bench {
namespace {

using namespace std::chrono_literals;
using benchjson::Doc;
using benchjson::Row;
using util::Counter;

int g_failures = 0;

/// Makes `v` observable, so a timed loop cannot drop the work producing it.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

/// One bank run, checked for §5.5 conservation; a violation fails the whole
/// run and names the section, variant and thread count.
BankResult checked_bank(const Doc& doc, const std::string& system,
                        const BankParams& p, const api::CommonConfig& cfg) {
  const BankResult b = run_named_bank(system, p, cfg);
  if (b.total != kInitialBalance * p.accounts) {
    std::fprintf(stderr,
                 "FAIL: %s: %s threads=%d: accounts sum to %ld, expected %ld\n",
                 doc.name().c_str(), system.c_str(), p.threads, b.total,
                 kInitialBalance * p.accounts);
    ++g_failures;
  }
  return b;
}

double per(std::uint64_t n, std::uint64_t d) {
  return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
}

// --- fig6, fig7, transfer, scan: every variant at each setting -------------

/// Bank results of every variant (api::variant_names order) at one setting.
struct BankLine {
  int key;  // the thread count, or a scan's account count
  std::vector<BankResult> results;
};

/// Runs the bank on every variant at `params(key)` for each key; each run
/// is one row: system, `key_name`, then what `fields(row, result, params)`
/// adds.
template <typename Params, typename Fields>
std::vector<BankLine> sweep_variants(Doc& doc, const char* key_name,
                                     std::initializer_list<int> keys,
                                     Params params, Fields fields) {
  std::vector<BankLine> lines;
  for (const int key : keys) {
    const BankParams p = params(key);
    BankLine& line = lines.emplace_back(BankLine{key, {}});
    for (const std::string& name : api::variant_names()) {
      const BankResult& b = line.results.emplace_back(
          checked_bank(doc, name, p, bank_config(p)));
      fields(doc.row().str("system", name).num(key_name, key), b, p);
    }
  }
  return lines;
}

/// Prints one metric of a sweep with the variants as columns (the layout of
/// the paper's figure panels).
template <typename Metric>
void print_panel(const char* title, const char* key_name,
                 const std::vector<BankLine>& lines, int precision,
                 Metric metric) {
  std::printf("\n%s\n%8s", title, key_name);
  for (const std::string& name : api::variant_names()) {
    std::printf(" %10s", name.c_str());
  }
  for (const BankLine& line : lines) {
    std::printf("\n%8d", line.key);
    for (const BankResult& b : line.results) {
      std::printf(" %10.*f", precision, static_cast<double>(metric(b)));
    }
  }
  std::printf("\n");
}

/// Figures 6 and 7: thread 0 runs 80% transfers and 20% Compute-Total, the
/// others only transfers. Figure 7's Compute-Total also writes a private
/// sink object: "LSA-STM is not able to execute them anymore ... Z-STM is
/// able to sustain the throughput."
void figure(Doc& doc, bool update_total) {
  const auto lines = sweep_variants(
      doc, "threads", {1, 2, 8, 16, 32},
      [&](int threads) {
        return BankParams{.threads = threads,
                          .duration = 250ms,
                          .update_total = update_total};
      },
      [](Row& row, const BankResult& b, const BankParams&) {
        row.num("compute_total_per_s", b.compute_total_per_s)
            .num("transfer_per_s", b.transfer_per_s)
            .num("compute_total_failures", b.compute_total_failures);
      });
  print_panel(update_total ? "Compute-Total transactions (update)  [tx/s]"
                           : "Compute-Total transactions (read-only)  [tx/s]",
              "threads", lines, 1,
              [](const BankResult& b) { return b.compute_total_per_s; });
  print_panel("Transfer transactions  [tx/s]", "threads", lines, 0,
              [](const BankResult& b) { return b.transfer_per_s; });
  print_panel("Compute-Total failed episodes (attempt budget exhausted)",
              "threads", lines, 0,
              [](const BankResult& b) { return b.compute_total_failures; });
}

void fig6(Doc& doc) { figure(doc, false); }
void fig7(Doc& doc) { figure(doc, true); }

/// Transfer-only: zl against lsa is Figure 6's "the overhead of updating
/// and checking the per-object zone counters is negligible"; cs and sstm
/// against them are §4.4's vector-time and serializability overheads.
void transfer(Doc& doc) {
  const auto lines = sweep_variants(
      doc, "threads", {1, 2, 4, 8},
      [](int threads) {
        return BankParams{.accounts = 256,
                          .threads = threads,
                          .duration = 200ms,
                          .long_probability = 0};
      },
      [](Row& row, const BankResult& b, const BankParams&) {
        row.num("transfer_per_s", b.transfer_per_s);
      });
  print_panel("Transfer transactions  [tx/s]", "threads", lines, 0,
              [](const BankResult& b) { return b.transfer_per_s; });
}

/// One thread scanning: "Z-STM performs Compute-Total faster than LSA-STM
/// because the latter always maintains read sets"; lsa-nors drops them.
void scan(Doc& doc) {
  const auto lines = sweep_variants(
      doc, "accounts", {100, 1000},
      [](int accounts) {
        return BankParams{.accounts = accounts,
                          .threads = 1,
                          .duration = 200ms,
                          .long_probability = 1};
      },
      [](Row& row, const BankResult& b, const BankParams& p) {
        row.num("scans_per_s", b.compute_total_per_s)
            .num("ns_per_read", 1e9 / (b.compute_total_per_s * p.accounts));
      });
  print_panel("Compute-Total scans  [scans/s]", "accounts", lines, 0,
              [](const BankResult& b) { return b.compute_total_per_s; });
}

// --- alloc -----------------------------------------------------------------

/// The pooled cs-vc and sstm update rows' bound (exit status 1 above it):
/// pool-backed stamp vectors took cs-vc from ~2 heap allocations per
/// transaction to ~0, and a pooled descriptor stamp and a begin that builds
/// no temporary container took sstm from ~3 to ~0; the slack covers slab
/// carving and warm-up stragglers.
constexpr double kMaxPooledUpdateAllocs = 0.75;

/// Warm the pools, then measure with fresh counters: lsa transfers over
/// 1000 accounts (allocations per write from the pool counters), cs-vc
/// two-read and transfer transactions and sstm transfers over 256 accounts
/// (operator-new calls per transaction). Pooled rows should show ~0 of
/// either.
void alloc(Doc& doc) {
  const bool pool_on = object::NodePool::env_enabled();
  if (!pool_on) {
    std::printf("note: ZSTM_POOL=0 is set: the \"pooled\" rows run on the "
                "heap too, and the allocation bound is not checked.\n");
  }
  for (const int threads : {1, 2, 4}) {
    for (const bool pooled : {false, true}) {
      const BankParams p{.threads = threads,
                         .warmup = 100ms,
                         .duration = 300ms,
                         .long_probability = 0};
      api::CommonConfig cfg = bank_config(p);
      cfg.use_node_pool = pooled;
      const BankResult b = checked_bank(doc, "lsa", p, cfg);
      const std::uint64_t writes = b.stats[Counter::kWrites];
      const std::uint64_t hits = b.stats[Counter::kPoolHits];
      const std::uint64_t misses = b.stats[Counter::kPoolMisses];
      doc.row()
          .str("mode", pooled ? "pooled" : "heap")
          .num("threads", threads)
          .num("tx_per_s", b.transfer_per_s)
          .num("ns_per_write", threads * b.seconds * 1e9 / writes)
          .num("allocs_per_write", per(misses, writes))
          .num("pool_hit_rate", per(hits, hits + misses))
          .num("writes", writes)
          .num("pool_returns", b.stats[Counter::kPoolReturns]);
    }
  }
  const auto txn_row = [&](const char* system, int threads, bool update,
                           bool pooled) {
    const BankParams p{.accounts = 256,
                       .threads = threads,
                       .warmup = 100ms,
                       .duration = 250ms,
                       .long_probability = 0,
                       .read_only_transfers = !update};
    api::CommonConfig cfg = bank_config(p);
    cfg.use_node_pool = pooled;
    const BankResult b = checked_bank(doc, system, p, cfg);
    const double allocs = per(b.heap_allocs, b.transfer_commits);
    doc.row()
        .str("system", system)
        .str("workload", update ? "update" : "read-only")
        .str("mode", pooled ? "pooled" : "heap")
        .num("threads", threads)
        .num("tx_per_s", b.transfer_per_s)
        .num("allocs_per_txn", allocs)
        .num("commits", b.transfer_commits);
    if (pool_on && pooled && update && allocs > kMaxPooledUpdateAllocs) {
      std::fprintf(stderr,
                   "FAIL: alloc: %s pooled update threads=%d: %.3f "
                   "allocs/txn > %.2f\n",
                   system, threads, allocs, kMaxPooledUpdateAllocs);
      ++g_failures;
    }
  };
  for (const int threads : {1, 2}) {
    for (const bool update : {false, true}) {
      for (const bool pooled : {false, true}) {
        txn_row("cs-vc", threads, update, pooled);
      }
    }
  }
  // sstm: transfers only. A read registers on the version's reader list,
  // which grows on the heap.
  for (const int threads : {1, 2}) {
    for (const bool pooled : {false, true}) {
      txn_row("sstm", threads, true, pooled);
    }
  }
  doc.print();
}

// --- cm, versions ----------------------------------------------------------

/// "Conflict arbitration is performed by a configurable module called
/// contention manager, which is responsible for the liveness of the system"
/// (§4.1): every object runtime's one rule (an active owner is aborted, a
/// committing one waited out; DESIGN.md §1), 4 threads transferring among
/// 4 accounts.
void cm(Doc& doc) {
  for (const char* system : {"lsa", "cs-vc", "cs-r", "sstm", "zl"}) {
    const BankParams p{.accounts = 4,
                       .threads = 4,
                       .duration = 150ms,
                       .long_probability = 0};
    const BankResult b = checked_bank(doc, system, p, bank_config(p));
    doc.row()
        .str("system", system)
        .num("tx_per_s", b.transfer_per_s)
        .num("aborts", b.stats[Counter::kAborts])
        .num("cm_kills", b.stats[Counter::kCmKills])
        .num("cm_waits", b.stats[Counter::kCmWaits]);
  }
  doc.print();
}

/// "Keeping multiple copies does not only increase the memory overhead but
/// also the runtime overhead" (§4.4): thread 0 scans 512 lsa accounts
/// (retrying until it commits) against two transfer threads, per number of
/// versions kept.
void versions(Doc& doc) {
  for (const int kept : {1, 2, 4, 8, 16}) {
    const BankParams p{.accounts = 512,
                       .threads = 3,
                       .duration = 200ms,
                       .long_probability = 1,
                       .long_attempt_budget = 0};
    api::CommonConfig cfg = bank_config(p);
    cfg.versions_kept = kept;
    const BankResult b = checked_bank(doc, "lsa", p, cfg);
    doc.row()
        .num("versions_kept", kept)
        .num("scans_per_s", b.compute_total_per_s)
        .num("attempts_per_scan",
             per(b.compute_total_attempts, b.compute_total_commits))
        .num("transfers_per_s", b.transfer_per_s);
  }
  doc.print();
}

// --- plausible_r, clock_scale: timebases -----------------------------------

/// Seconds for `ops` calls of one operation on each of `threads` workers
/// released together; `make_op(t)` builds worker t's operation on its own
/// thread. The results are summed, so no call can be dropped.
template <typename MakeOp>
double time_ops(int threads, std::uint64_t ops, MakeOp make_op) {
  const auto trial =
      run_trial<std::uint64_t>(threads, Window{}, [&](int t) {
        return [ops, op = make_op(t)](std::uint64_t& sum) mutable {
          for (std::uint64_t i = 0; i < ops; ++i) sum += op();
        };
      });
  keep(trial.counts);
  return trial.seconds;
}

/// REV(r) against an exact vector-clock oracle on one fixed random history
/// (8 threads, 6 objects, 400 steps): how many truly concurrent commit
/// pairs REV falsely orders. The oracle is computed here, each thread
/// bumping its own component, not with the REV code under measurement.
void clock_accuracy(Doc& doc, int r) {
  constexpr int kThreads = 8;
  constexpr int kObjects = 6;
  timebase::RevDomain rev_dom(r, kThreads);
  struct Pair {
    timebase::VcStamp vc;
    timebase::VcStamp rev;
  };
  std::vector<Pair> threads(kThreads,
                            {timebase::VcStamp(kThreads), rev_dom.zero()});
  std::vector<Pair> objects(kObjects,
                            {timebase::VcStamp(kThreads), rev_dom.zero()});
  util::Xorshift rng(777);
  std::vector<Pair> events;
  for (int s = 0; s < 400; ++s) {
    const int t = static_cast<int>(rng.next_below(kThreads));
    Pair& ts = threads[static_cast<std::size_t>(t)];
    Pair& os = objects[rng.next_below(kObjects)];
    ts.vc.merge(os.vc);
    ts.rev.merge(os.rev);
    ts.vc[t] += 1;
    rev_dom.advance(t, ts.rev);
    os = ts;
    events.push_back(ts);
  }
  std::uint64_t concurrent = 0;
  std::uint64_t false_orderings = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (!events[i].vc.concurrent_with(events[j].vc)) continue;
      ++concurrent;
      if (!events[i].rev.concurrent_with(events[j].rev)) ++false_orderings;
    }
  }
  doc.row()
      .str("measurement", "clock_accuracy")
      .num("r", r)
      .num("concurrent_pairs", concurrent)
      .num("false_orderings", false_orderings);
}

/// cs-r with REV(r), 4 threads over 16 objects, each transaction six
/// random reads then one write depending on them. False orderings become
/// unnecessary aborts only when a reader has merged the falsely
/// "preceding" stamp; with r = 1 every fresh stamp dominates, which
/// suppresses the validation inequality instead, so the accuracy rows are
/// the cleaner read of §4.3's trade.
void rev_throughput(Doc& doc, int r) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kObjects = 16;
  api::CommonConfig cfg;
  cfg.max_threads = kThreads + 2;
  cfg.plausible_entries = r;
  api::CsStm stm(cfg);
  std::vector<api::CsStm::Var<long>> vars;
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    vars.push_back(stm.make_var(0L));
  }
  const auto trial = run_trial<std::uint64_t>(
      kThreads, {.measure = 150ms}, [&](int t) {
        return [&, rng = util::Xorshift(static_cast<std::uint64_t>(t) + 31)](
                   std::uint64_t& commits) mutable {
          stm.run(api::TxKind::kUpdate, [&](auto& tx) {
            long sum = 0;
            for (int k = 0; k < 6; ++k) {
              sum += tx.read(vars[rng.next_below(kObjects)]);
            }
            tx.write(vars[rng.next_below(kObjects)]) += sum % 5 + 1;
          });
          ++commits;
        };
      });
  doc.row()
      .str("measurement", "stm_throughput")
      .num("r", r)
      .num("tx_per_s", static_cast<double>(trial.counts) / trial.seconds)
      .num("validation_aborts", stm.stats()[Counter::kValidationFails]);
}

/// "Storing, updating, and comparing vector timestamps is significantly
/// costlier than managing a single counter" (§4.3): ns per operation for
/// n-entry stamps and one scalar (an r-entry REV stamp is the same class at
/// n = r), for the advance of an entry its slot owns (r = n, cs-vc and
/// sstm), and for REV's shared-counter advance under 1-8 threads
/// (per-thread latency).
void clock_ops(Doc& doc) {
  constexpr std::uint64_t kOps = 1'000'000;
  const auto row = [&](const char* op, int entries, int threads,
                       double seconds) {
    doc.row()
        .str("measurement", "clock_op")
        .str("op", op)
        .num("entries", entries)
        .num("threads", threads)
        .num("ns_per_op", seconds * 1e9 / static_cast<double>(kOps));
  };
  const auto single = [&](const char* op, int entries, auto fn) {
    row(op, entries, 1, time_ops(1, kOps, [&](int) { return fn; }));
  };
  util::Xorshift rng(2);
  const auto randomize = [&](auto& stamp, int entries) {
    for (int k = 0; k < entries; ++k) stamp[k] = rng.next_below(1000);
  };
  const volatile std::uint64_t x = rng.next();
  const volatile std::uint64_t y = rng.next();
  single("scalar-compare", 1, [&] { return std::uint64_t{x < y}; });
  for (const int n : {4, 8, 16, 32, 64}) {
    timebase::VcStamp a(n);
    timebase::VcStamp b(n);
    randomize(a, n);
    randomize(b, n);
    single("vc-compare", n,
           [&] { return static_cast<std::uint64_t>(a.compare(b)); });
    single("vc-merge", n, [&] {
      a.merge(b);
      keep(a);
      return a[0];
    });
    single("vc-copy", n, [&] {
      const timebase::VcStamp copy = a;
      keep(copy);
      return copy[0];
    });
  }
  timebase::RevDomain exact(32, 32);  // r = n: the exact vector clock
  timebase::VcStamp s = exact.zero();
  single("vc-advance", 32, [&] {
    exact.advance(0, s);
    keep(s);
    return s[0];
  });
  // REV advance draws from a shared per-entry counter: contended as
  // threads outnumber its r = 4 entries.
  timebase::RevDomain shared(4, 64);
  for (const int threads : {1, 2, 4, 8}) {
    row("rev-advance", 4, threads,
        time_ops(threads, kOps, [&](int t) {
          return [&shared, t, stamp = shared.zero()]() mutable {
            shared.advance(t, stamp);
            return stamp[shared.entry_of(t)];
          };
        }));
  }
}

void plausible_r(Doc& doc) {
  for (const int r : {1, 2, 4, 8}) clock_accuracy(doc, r);
  for (const int r : {1, 2, 4, 6}) rev_throughput(doc, r);
  clock_ops(doc);
  doc.print();
}

/// Commit-stamp acquisition per timebase, `kStampOps` stamps per thread,
/// §2's two time bases:
///   global  GlobalCounter::acquire_commit_time, one fetch_add on one
///           shared line (the default of every scalar-clock runtime)
///   sync    SyncRealTimeClock (200 ns deviation): synchronized real-time
///           clocks, one per slot, uncontended by construction
/// shared_rmws_per_op counts atomic RMWs on shared lines per stamp: the
/// host-independent signal, since on a 1-CPU host wall-clock contention
/// never materializes.
void clock_scale(Doc& doc) {
  constexpr std::uint64_t kStampOps = 4'000'000;
  for (const int threads : {1, 2, 4}) {
    const std::uint64_t ops = kStampOps * static_cast<std::uint64_t>(threads);
    const auto row = [&](const char* timebase, double seconds,
                         double shared_rmws) {
      doc.row()
          .str("section", "stamp")
          .str("timebase", timebase)
          .num("threads", threads)
          .num("ops", ops)
          .num("seconds", seconds)
          .num("mops", static_cast<double>(ops) / seconds / 1e6)
          .num("shared_rmws_per_op", shared_rmws);
    };
    timebase::GlobalCounter global;
    row("global", time_ops(threads, kStampOps, [&](int) {
          return [&] { return global.acquire_commit_time(); };
        }),
        1.0);
    timebase::SyncRealTimeClock sync(threads, 200ns, 7);
    row("sync", time_ops(threads, kStampOps, [&](int t) {
          return [&sync, t] { return sync.acquire_commit_stamp(t, 0); };
        }),
        0.0);
  }
  doc.print();
}

struct Section {
  const char* name;
  const char* title;
  void (*run)(Doc&);
};

constexpr Section kSections[] = {
    {"fig6", "Figure 6: bank, 1000 accounts, read-only Compute-Total", fig6},
    {"fig7", "Figure 7: bank, 1000 accounts, update Compute-Total", fig7},
    {"transfer", "transfer-only bank, 256 accounts", transfer},
    {"scan", "one thread, Compute-Total scans only", scan},
    {"alloc", "heap allocations per write / per transaction", alloc},
    {"cm", "contention: object runtimes, 4 threads, 4 accounts", cm},
    {"versions", "versions kept: lsa scans of 512 accounts vs 2 writers",
     versions},
    {"plausible_r", "REV plausible clocks: accuracy, cs-r, clock ops",
     plausible_r},
    {"clock_scale", "commit timebases: the counter and the sync clocks",
     clock_scale},
};

int usage() {
  std::fprintf(stderr, "usage: zstm_bench [--json] [section ...]\nsections:");
  for (const Section& s : kSections) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace zstm::bench

int main(int argc, char** argv) {
  using namespace zstm::bench;
  bool json = false;
  std::vector<const Section*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto* it = std::find_if(
        std::begin(kSections), std::end(kSections),
        [&](const Section& s) { return arg == s.name; });
    if (arg == "--json") {
      json = true;
    } else if (it != std::end(kSections)) {
      chosen.push_back(it);
    } else {
      return usage();
    }
  }
  if (chosen.empty()) {
    for (const Section& s : kSections) chosen.push_back(&s);
  }
  for (const Section* s : chosen) {
    std::printf("\n== %s: %s\n", s->name, s->title);
    std::fflush(stdout);
    zstm::benchjson::Doc doc(s->name);
    s->run(doc);
    if (json && !doc.write()) ++g_failures;
  }
  return g_failures == 0 ? 0 : 1;
}
