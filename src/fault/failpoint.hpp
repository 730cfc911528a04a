// Deterministic failpoint injection for the STM protocol hot spots
// (DESIGN.md §11).
//
// A *failpoint site* is a named place in a protocol where the rare
// interleaving lives: the settle/install CAS races in the object substrate,
// its acquire/arbitrate loop (one site per runtime), tl2's stripe-lock
// acquisition and commit revalidation, EBR retirement, node-pool
// allocation, and sstm's descriptor trim. Each site calls
// `fault::poke(Site)`; the registry decides — deterministically, from a
// seed and the site's hit ordinal — whether to inject an *effect*:
//
//   kAbort      the caller aborts the current transaction attempt
//   kCasFail    the caller takes its CAS-failed / lock-busy path
//   kDelay      a bounded spin executed inside poke() to widen race windows
//   kExitThread poke() throws fault::ThreadExit (thread dies mid-transaction
//               by exception unwind; cleanup is the unwinder's job)
//   kOom        the caller reports allocation failure (std::bad_alloc)
//
// Each site carries a compile-time *allowed-effect mask*: effects that would
// corrupt protocol state at that site (e.g. unwinding out of the middle of
// ObjectStore::install, which would leak the caller's tentative version, or
// exiting while holding tl2 stripe locks) cannot be armed there. A site's
// default effect is its most interesting allowed one.
//
// Cost when disabled: `poke` is one relaxed load of a cold global atomic
// plus a statically-predicted-untaken branch — no registry access, no per
// site state touched (the `FaultDisabledCostsNothing` test pins the
// zero-hit behaviour).
//
// Arming: programmatic (`registry().arm(...)`) or via the environment,
// parsed once at first use:
//
//   ZSTM_FAILPOINTS=site:prob[:after[:effect]],...   e.g.
//   ZSTM_FAILPOINTS=lsa.acquire:0.05,tl2.stripe_lock:0.2:100:casfail
//   ZSTM_FAILPOINT_SEED=42
//
// `prob` ∈ [0,1]; `after` skips the first N hits of the site; `effect`
// defaults per site. The environment is parsed at start-up, and an entry
// that names no site, holds a bad number or asks for an effect its site
// does not allow stops the process with the entry on stderr, so a chaos run
// never silently loses a site. Determinism: whether hit #n of site s triggers is a
// pure function of (seed, s, n), so a single-threaded run replays exactly
// and a multi-threaded run is reproducible up to hit-ordinal interleaving.
//
// Irrevocable sections (the façade's serial fallback) suppress injection
// with a thread-local `SuppressGuard` — a transaction that must commit is
// never sabotaged.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

namespace zstm::fault {

enum class Site : int {
  kStoreSettleCas = 0,  ///< ObjectStore::settle, before the locator CAS
  kStoreInstallCas,     ///< ObjectStore::install, before the locator CAS
  kLsaAcquire,          ///< ObjectStore::acquire, lsa and zl short writes
  kCsAcquire,           ///< ObjectStore::acquire, cs writes
  kSstmAcquire,         ///< ObjectStore::acquire, sstm writes
  kZlAcquire,           ///< ObjectStore::acquire, zl long reads and writes
  kTl2StripeLock,       ///< tl2 commit: per-stripe lock acquisition
  kTl2Revalidate,       ///< tl2 commit: read-set revalidation
  kEbrRetire,           ///< EpochManager::retire_raw (delay only)
  kPoolAlloc,           ///< NodePool::create / tl2 snapshot buffers (OOM)
  // Networked front end (src/net/, DESIGN.md §13). In this layer the
  // effects are reinterpreted against the wire, not a transaction:
  // kCasFail means "take the failure path of this I/O step".
  kNetAccept,    ///< acceptor: casfail = drop the fresh connection
  kNetRead,      ///< event loop recv: casfail = short read (1 byte kept)
  kNetWrite,     ///< event loop send: casfail = short write (1 byte sent)
  kNetConnKill,  ///< per parsed request: abort = hard-close the connection
  // Appended, so every site above keeps its index and a seeded recipe its
  // schedule.
  kSstmTrim,  ///< sstm::Runtime's trim fold, at quiescence (delay only)
  kCount
};

enum class Effect : std::uint8_t {
  kNone = 0,
  kAbort,
  kCasFail,
  kDelay,
  kExitThread,
  kOom,
};

constexpr std::uint32_t effect_bit(Effect e) {
  return 1u << static_cast<unsigned>(e);
}

/// Thrown by the kExitThread effect: simulates a worker dying
/// mid-transaction via exception unwind. Test threads catch it and return;
/// the runtimes' unwind paths must leave no locator or stripe behind.
struct ThreadExit {};

const char* site_name(Site s);
const char* effect_name(Effect e);
/// Effects `arm` accepts at `s` (a bitmask of effect_bit values). The mask
/// excludes effects that would corrupt protocol state at that site.
std::uint32_t allowed_effects(Site s);
/// The effect used when none is given (env spec without `:effect`).
Effect default_effect(Site s);

namespace detail {
/// Number of armed sites; 0 keeps poke() on its branch-free-ish fast path.
extern std::atomic<int> g_armed_sites;
Effect on_hit(Site s);
}  // namespace detail

/// The hot-path check every site compiles down to: one relaxed load and an
/// untaken branch when nothing is armed anywhere.
inline Effect poke(Site s) {
  if (__builtin_expect(
          detail::g_armed_sites.load(std::memory_order_relaxed) == 0, 1)) {
    return Effect::kNone;
  }
  return detail::on_hit(s);
}

/// Thread-local injection suppression (re-entrant). Held by the façade's
/// serial-irrevocable mode: an irrevocable attempt must not be sabotaged.
class SuppressGuard {
 public:
  SuppressGuard();
  ~SuppressGuard();
  SuppressGuard(const SuppressGuard&) = delete;
  SuppressGuard& operator=(const SuppressGuard&) = delete;
};

class Registry {
 public:
  /// Arm `s`: hits beyond the first `after` trigger `effect` with
  /// probability `prob`. `effect == kNone` selects the site's default.
  /// A non-empty `hook` instead runs on each such hit, on the hitting
  /// thread, and nothing is injected. Returns false (and leaves the site
  /// disarmed) if the effect is not in the site's allowed mask or prob is
  /// not in [0, 1].
  bool arm(Site s, double prob, std::uint64_t after = 0,
           Effect effect = Effect::kNone, std::function<void()> hook = {});
  /// Test seam for scripted interleavings: every hit of `s` runs `hook`
  /// until `s` is disarmed.
  void arm_hook(Site s, std::function<void()> hook) {
    arm(s, 0.0, 0, Effect::kNone, std::move(hook));
  }
  void disarm(Site s);
  /// Disarm every site and zero all hit/trigger counts (test isolation).
  void disarm_all();

  /// Arm every site whose allowed mask includes kAbort at probability 1.
  /// (Sites that only support kCasFail are deliberately excluded: a CAS
  /// that spuriously fails 100% of the time livelocks the retry loop by
  /// construction instead of aborting — see DESIGN.md §11.)
  void arm_all_abort();

  bool armed(Site s) const;
  /// Times an armed site was evaluated / times an effect actually fired.
  std::uint64_t hits(Site s) const;
  std::uint64_t triggers(Site s) const;
  std::uint64_t triggers_total() const;
  void reset_counts();

  void set_seed(std::uint64_t seed);
  std::uint64_t seed() const { return seed_; }

  /// Parse a ZSTM_FAILPOINTS-style spec and arm accordingly. Returns false
  /// on any malformed entry (the others stay armed) and, when `rejected` is
  /// given, stores the first such entry there.
  bool load_spec(const char* spec, std::string* rejected = nullptr);

 private:
  friend Registry& registry();
  friend Effect detail::on_hit(Site s);
  Registry();

  struct SiteState {
    std::atomic<bool> armed{false};
    double prob = 0.0;
    Effect effect = Effect::kNone;
    std::uint64_t after = 0;
    std::function<void()> hook;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> triggers{0};
  };

  Effect evaluate(Site s);

  std::uint64_t seed_ = 0x5eedfa17u;
  SiteState sites_[static_cast<int>(Site::kCount)];
};

/// The process-wide registry. It parses ZSTM_FAILPOINTS /
/// ZSTM_FAILPOINT_SEED from the environment at start-up.
Registry& registry();

}  // namespace zstm::fault
