// The one runtime configuration (DESIGN.md §8). Every runtime — lsa, cs,
// sstm, tl2 and zl — is built from this struct, and each of
// their `Config` names is an alias of it; the api façade's CommonConfig is
// this struct plus its own retry ladder. Each knob is declared once, here;
// a runtime reads the knobs it has a use for and ignores the rest (the
// table is in DESIGN.md §8).
//
// The header includes no runtime or object header, so a caller can spell a
// configuration with designated initializers before choosing a runtime:
//
//   zstm::runtime::Config cfg{.max_threads = 8, .versions_kept = 4};
//   zstm::lsa::Runtime rt(cfg);
//
// The enum a knob takes is declared here, in the namespace of the
// subsystem that interprets it.
#pragma once

#include <chrono>
#include <cstdint>

namespace zstm {

namespace timebase {
/// Scalar commit timebase of lsa and zl (timebase/scalar_timebase.hpp).
enum class TimeBaseKind { kCounter, kSyncClock };
}  // namespace timebase

namespace runtime {

struct Config {
  /// Registry capacity: threads that may be attached at once.
  int max_threads = 36;
  /// Object runtimes: committed versions retained per object (K, paper
  /// §4.4), clamped to at least 1. 1 = single-version; more let lsa's
  /// read-only transactions commit in the past, and cs/sstm find a read
  /// version's successor for longer.
  int versions_kept = 8;
  /// Slab-pool node allocation (DESIGN.md §7); the ZSTM_POOL=0 environment
  /// variable overrides it to false (debugging, ASan).
  bool use_node_pool = true;
  /// Record every transaction for the offline history checkers.
  bool record_history = false;
  /// lsa and zl: false selects the Figure 6 "LSA-STM (no readsets)"
  /// variant for transactions declared read-only (the name "lsa-nors").
  bool track_readonly_readsets = true;
  /// lsa and zl: the scalar commit timebase (DESIGN.md §10). kCounter is
  /// the paper's shared counter; kSyncClock simulates synchronized
  /// real-time clocks `clock_deviation` apart, seeded by `seed`.
  timebase::TimeBaseKind time_base = timebase::TimeBaseKind::kCounter;
  std::chrono::nanoseconds clock_deviation{0};
  std::uint64_t seed = 1;
  /// cs: r, the number of REV clock entries (§4.3), clamped to
  /// [1, max_threads]; the name "cs-vc" sets it to max_threads.
  int plausible_entries = 4;
};

}  // namespace runtime
}  // namespace zstm
