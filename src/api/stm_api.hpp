// zstm::api — the unified front-end over all five runtimes.
//
// The paper's whole point is comparing one workload across consistency
// criteria (LSA vs CS vs S vs Z). Every runtime already speaks one attempt
// vocabulary (runtime/run_result.hpp): `attach()` a ThreadCtx,
// `ctx.begin(TxKind)` a transaction, `read`/`write`/`abort` on its handle,
// `ctx.commit()`, and is built from one runtime::Config. This header adds
// the rest — implicit attachment, the retry/escalation ladder — as one
// façade, `Stm<R>`: `Stm<lsa::Runtime>`, `Stm<cs::Runtime>`,
// `Stm<sstm::Runtime>`, `Stm<zl::Runtime>` and `Stm<tl2::Runtime>` all
// expose `make_var<T>` and `run(TxKind, body)`.
// Bodies receive the runtime's own transaction handle (`lsa::Tx`, `zl::Tx`,
// ...), so generic callers take it as `auto&` and every access is the
// native call.
//
// A runtime picked *by name* at run time ("lsa" | "lsa-nors" | "cs-vc" |
// "cs-r" | "sstm" | "zl" | "tl2") goes through `visit_variant`, which
// resolves the name once and hands the caller the matching `Stm<R>` type
// and Config (two names share a runtime: "lsa-nors" is lsa without
// read-only read sets, "cs-vc" is cs with one clock entry per thread);
// a caller that must hide the type (the KV service) does so once, around
// whole operations, never per access.
//
// TxKind × runtime mapping (DESIGN.md §8 has the full table): each
// runtime's `ThreadCtx::begin(kind)` applies its own column. `kLong`/
// `kLongUpdate` run Z-STM's Algorithm 2 on zl and ordinary transactions
// everywhere else; LSA treats `kReadOnly`/`kLong` as declared-read-only,
// enabling its no-readsets fast path. A body run under `kReadOnly` or
// `kLong` must not write on runtimes that specialize the read-only path.
//
// Implicit attachment: user code never calls `attach()`. Each thread's
// first transaction against a given `Stm` attaches it and caches the
// `ThreadCtx` in thread-local storage; the cache entry is destroyed when
// the thread exits (releasing the registry slot — the same slot-release
// hook that drains the NodePool's return stacks then fires, so pooled
// memory survives thread churn) or when the `Stm` itself is destroyed.
// Lifetime contract (unchanged from the raw runtimes): worker threads must
// be finished with an `Stm` before it is destroyed.
//
// THE ABORT-EXCEPTION CONTRACT (the one place it is documented): every
// runtime signals an aborted attempt by throwing the one
// `runtime::TxAborted` token out of the user body. Bodies must let it
// propagate — catching it (or a blanket `catch (...)` without rethrow)
// inside a transaction body leaves the attempt half-finished and the retry
// loop blind. `runtime::attempt`, the one try/catch every retry loop runs,
// catches exactly that token, and the loop either retries (backoff) or —
// when an attempt budget is given — returns
// `RunResult{attempts, committed = false}`. Any other exception escaping
// the body aborts the attempt and propagates to the caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cs/cs.hpp"
#include "fault/failpoint.hpp"
#include "lsa/lsa.hpp"
#include "runtime/config.hpp"
#include "runtime/run_result.hpp"
#include "sstm/sstm.hpp"
#include "tl2/tl2.hpp"
#include "util/backoff.hpp"
#include "util/stats.hpp"
#include "zstm/zstm.hpp"

namespace zstm::api {

using runtime::RunResult;
using runtime::TxKind;

/// The façade's progress policy: how `run` spaces retries and when it
/// escalates (DESIGN.md §11.3). The ladder, in order:
///
///   1. Randomized-exponential backoff between attempts (util::Backoff with
///      per-thread jitter, so rivals that abort each other don't wake in
///      lockstep and re-collide).
///   2. From `serial_after` aborted attempts on, the final rung: the
///      transaction takes the Stm's global serial-irrevocable token
///      (HTM-fallback style). Acquiring the token exclusively waits out
///      every in-flight attempt; ordinary attempts share the token, so they
///      proceed concurrently when no one holds it exclusively. The holder
///      runs without façade rivals and with fault injection suppressed, so
///      it eventually commits — the façade-level guarantee that no
///      transaction starves forever.
///
/// `serial_after == 0` disables rung 2 unless the ZSTM_SERIAL_FALLBACK env
/// var enables it with the default threshold (8). A per-call attempt budget
/// (`run(kind, body, max_attempts)`) always wins over escalation: a
/// transaction that exhausts its budget returns `committed == false`
/// instead of escalating past it.
///
/// Not supported (unchanged from before): nested `run` calls on the same
/// Stm — with serialization enabled they would self-deadlock on the token.
struct RetryPolicy {
  /// Rung 2 threshold; 0 = disabled unless ZSTM_SERIAL_FALLBACK is set.
  std::uint32_t serial_after = 0;
};

/// The one runtime Config (runtime/config.hpp) every runtime is built from,
/// plus the façade's own knobs. A Stm<R> hands its runtime the Config part
/// as it is.
struct CommonConfig : runtime::Config {
  /// The retry/escalation ladder.
  RetryPolicy retry;
};

namespace detail {

/// ZSTM_SERIAL_FALLBACK=1 turns on the serial-irrevocable rung for every
/// Stm whose policy leaves `serial_after` at 0 (threshold 8).
inline bool serial_fallback_env() {
  static const bool on = [] {
    const char* v = std::getenv("ZSTM_SERIAL_FALLBACK");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  return on;
}

inline std::uint32_t resolve_serial_after(const RetryPolicy& pol) {
  if (pol.serial_after != 0) return pol.serial_after;
  return serial_fallback_env() ? 8u : 0u;
}

/// Per-slot jitter seed for the retry loop's randomized backoff (nonzero,
/// distinct per slot — rivals never share a spin sequence).
inline std::uint64_t backoff_seed(int slot) {
  return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(slot) + 2) | 1u;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Stm<R>: the compiled-in façade over one runtime.
// ---------------------------------------------------------------------------

/// One façade instance owns one runtime. Movable, not copyable. Worker
/// threads must be finished with it before it is destroyed (see header
/// comment for the implicit-attachment lifetime contract).
template <typename R>
class Stm {
 public:
  using Runtime = R;
  /// The runtime's own per-thread context (what `attach()` returns).
  using Ctx = typename decltype(std::declval<R&>().attach())::element_type;
  /// The runtime's own transaction handle, which bodies receive (take it as
  /// `auto&` in generic code).
  using Tx = std::remove_reference_t<decltype(std::declval<Ctx&>().begin(
      TxKind::kUpdate))>;
  template <typename T>
  using Var = typename R::template Var<T>;

  explicit Stm(CommonConfig cfg = {})
      : cfg_(cfg),
        rt_(std::make_unique<R>(cfg)),
        shared_(std::make_shared<Shared>()),
        progress_(std::make_unique<util::ProgressTracker>(cfg.max_threads)),
        serial_after_(detail::resolve_serial_after(cfg.retry)),
        id_(next_id()) {}

  ~Stm() { invalidate_cached_ctxs(); }

  Stm(const Stm&) = delete;
  Stm& operator=(const Stm&) = delete;
  Stm(Stm&& other) noexcept
      : cfg_(other.cfg_),
        rt_(std::move(other.rt_)),
        shared_(std::move(other.shared_)),
        progress_(std::move(other.progress_)),
        serial_after_(other.serial_after_),
        id_(other.id_) {
    other.id_ = 0;  // the id travels with the runtime; the husk is inert
  }
  Stm& operator=(Stm&& other) noexcept {
    if (this != &other) {
      invalidate_cached_ctxs();
      cfg_ = other.cfg_;
      rt_ = std::move(other.rt_);
      shared_ = std::move(other.shared_);
      progress_ = std::move(other.progress_);
      serial_after_ = other.serial_after_;
      id_ = other.id_;
      other.id_ = 0;
    }
    return *this;
  }

  template <typename T>
  Var<T> make_var(T initial) {
    return rt_->make_var(std::move(initial));
  }

  /// Run `body` as a transaction of the given kind, retrying with backoff
  /// until it commits. The calling thread attaches implicitly on first use.
  template <typename F>
  RunResult run(TxKind kind, F&& body) {
    return run_impl(kind, body, 0);
  }

  /// Budgeted variant: gives up after `max_attempts` aborted attempts and
  /// returns `committed == false` (0 = unbounded). This is how callers
  /// express the paper's abandoned long-transaction episodes.
  template <typename F>
  RunResult run(TxKind kind, F&& body, std::uint32_t max_attempts) {
    return run_impl(kind, body, max_attempts);
  }

  /// Drop the calling thread's cached ThreadCtx now (releasing its registry
  /// slot) instead of at thread exit. The next `run` re-attaches.
  void detach_thread() {
    TlsCache& c = tls();
    if (c.fast_id == id_) {
      c.fast_id = 0;
      c.fast_ctx = nullptr;
    }
    c.entries.erase(id_);
  }

  /// The underlying runtime (advanced / test use; the raw API stays public).
  R& runtime() { return *rt_; }
  const R& runtime() const { return *rt_; }

  const CommonConfig& config() const { return cfg_; }
  util::StatsSnapshot stats() const { return rt_->stats(); }
  void reset_stats() { rt_->reset_stats(); }

  /// Starvation watchdog: the max-attempt high-water and serial-fallback
  /// entries.
  util::ProgressTracker::Snapshot progress() const {
    return progress_->snapshot();
  }
  void reset_progress() { progress_->reset(); }

 private:
  struct Entry;

  /// Control block shared between the Stm and every thread's cached ctx
  /// entry: lets whichever dies first (thread or Stm) clean up safely.
  struct Shared {
    std::mutex mu;
    std::atomic<bool> dead{false};
    std::vector<Entry*> entries;
    /// The serial-irrevocable token (RetryPolicy rung 2). Ordinary attempts
    /// hold it shared (only taken when the rung is enabled — an uncontended
    /// shared_mutex op per attempt); an escalated transaction holds it
    /// exclusive, which drains every in-flight attempt first.
    std::shared_mutex serial_gate;
  };

  struct Entry {
    std::shared_ptr<Shared> shared;
    std::unique_ptr<Ctx> ctx;

    Entry() = default;
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

    ~Entry() {
      if (shared == nullptr) return;
      std::lock_guard<std::mutex> lk(shared->mu);
      if (ctx != nullptr) {
        ctx.reset();  // releases the registry slot on this (owning) thread
        auto& v = shared->entries;
        for (std::size_t i = 0; i < v.size(); ++i) {
          if (v[i] == this) {
            v[i] = v.back();
            v.pop_back();
            break;
          }
        }
      }
    }

    bool dead() const {
      return shared != nullptr && shared->dead.load(std::memory_order_acquire);
    }
  };

  struct TlsCache {
    /// One-element fast path: ids are never reused, so a stale fast_id can
    /// never alias a new Stm (no ABA).
    std::uint64_t fast_id = 0;
    Ctx* fast_ctx = nullptr;
    std::unordered_map<std::uint64_t, Entry> entries;
  };

  static TlsCache& tls() {
    thread_local TlsCache cache;
    return cache;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Ctx& thread_ctx() {
    TlsCache& c = tls();
    if (c.fast_id == id_) return *c.fast_ctx;
    // Slow path: sweep entries whose Stm died, then find-or-attach.
    for (auto it = c.entries.begin(); it != c.entries.end();) {
      it = it->second.dead() ? c.entries.erase(it) : std::next(it);
    }
    Entry& e = c.entries[id_];
    if (e.ctx == nullptr) {
      e.shared = shared_;
      std::unique_ptr<Ctx> ctx = rt_->attach();
      std::lock_guard<std::mutex> lk(shared_->mu);
      e.ctx = std::move(ctx);
      shared_->entries.push_back(&e);
    }
    c.fast_id = id_;
    c.fast_ctx = e.ctx.get();
    return *e.ctx;
  }

  /// Destroy every cached ctx still registered against this Stm (runs in
  /// the destructor, before the runtime member is destroyed). Entries left
  /// in other threads' TLS keep only the Shared block alive; they are swept
  /// on those threads' next slow-path lookup or at their exit.
  void invalidate_cached_ctxs() {
    if (shared_ == nullptr) return;  // moved-from
    detach_thread();                 // own thread first: clears fast cache
    std::lock_guard<std::mutex> lk(shared_->mu);
    shared_->dead.store(true, std::memory_order_release);
    for (Entry* e : shared_->entries) e->ctx.reset();
    shared_->entries.clear();
  }

  /// The retry/escalation ladder (see RetryPolicy). A per-call budget
  /// (0 = none) always wins over escalation.
  template <typename F>
  RunResult run_impl(TxKind kind, F& body, std::uint32_t max_attempts) {
    Ctx& ctx = thread_ctx();
    const int slot = ctx.slot();
    util::ProgressTracker& watch = *progress_;
    std::uint32_t attempt = 1;
    struct EndGuard {  // tx_end even when a foreign exception unwinds run()
      util::ProgressTracker& watch;
      int slot;
      const std::uint32_t& attempt;
      ~EndGuard() { watch.tx_end(slot, attempt); }
    } end_guard{watch, slot, attempt};

    util::Backoff bo(util::Backoff::kMinSpins, util::Backoff::kMaxSpins,
                     detail::backoff_seed(slot));
    for (;; ++attempt) {
      if (serial_after_ != 0 && attempt > serial_after_) {
        // Rung 2: take the token exclusively (drains all in-flight shared
        // attempts), suppress fault injection, and retry under the token
        // until commit. With no façade rival running and no injection, an
        // attempt can only abort through raw-runtime users outside the
        // façade — and those cannot do so forever, since each such abort
        // consumes one of THEIR protocol steps; in the common all-façade
        // case the first serial attempt commits.
        std::unique_lock<std::shared_mutex> serial(shared_->serial_gate);
        fault::SuppressGuard suppress;
        watch.note_serial(slot);
        for (;; ++attempt) {
          auto&& tx = ctx.begin(kind);
          if (runtime::attempt(ctx, tx, body)) {
            return {attempt, true};
          }
          if (max_attempts != 0 && attempt >= max_attempts) {
            return {attempt, false};
          }
        }
      }
      bool committed;
      {
        std::shared_lock<std::shared_mutex> gate(shared_->serial_gate,
                                                 std::defer_lock);
        if (serial_after_ != 0) gate.lock();
        auto&& tx = ctx.begin(kind);
        committed = runtime::attempt(ctx, tx, body);
      }
      if (committed) return {attempt, true};
      if (max_attempts != 0 && attempt >= max_attempts) {
        return {attempt, false};
      }
      // Deliberately no backoff reset: past the spin cap the episodes are
      // sched_yield, and a starved transaction's rivals are usually
      // *mid-transaction on this core* (threads > cores). Hot retries here
      // would burn whole scheduler quanta that the owner needs to finish —
      // measured as a ~1000x slowdown of the history workload on the 1-CPU
      // CI box.
      bo.pause();
    }
  }

  CommonConfig cfg_;
  std::unique_ptr<R> rt_;
  std::shared_ptr<Shared> shared_;
  std::unique_ptr<util::ProgressTracker> progress_;
  std::uint32_t serial_after_ = 0;
  std::uint64_t id_ = 0;
};

using LsaStm = Stm<lsa::Runtime>;
using CsStm = Stm<cs::Runtime>;
using SStm = Stm<sstm::Runtime>;
using ZStm = Stm<zl::Runtime>;
using Tl2Stm = Stm<tl2::Runtime>;

// ---------------------------------------------------------------------------
// By-name variant dispatch — THE one mapping from names to runtimes.
// The benches, the KV service and the examples all drive off this visitor;
// adding a variant means adding exactly one branch here (and its name to
// kVariantNames).
// ---------------------------------------------------------------------------

/// The canonical variant names, in the order the paper's figures use.
inline const std::vector<std::string>& variant_names() {
  static const std::vector<std::string> kVariantNames{
      "lsa", "lsa-nors", "cs-vc", "cs-r", "sstm", "zl", "tl2"};
  return kVariantNames;
}

/// Resolve `name` to a façade type at compile time: invokes
/// `fn(std::type_identity<Stm<R>>{}, canonical_name, cfg)` for the matching
/// variant, with `cfg` adjusted for it ("lsa-nors" clears
/// track_readonly_readsets; "cs-vc" sets plausible_entries to max_threads,
/// the exact vector clock, while "cs-r" keeps the caller's r). Throws
/// std::invalid_argument for unknown names.
template <typename Fn>
decltype(auto) visit_variant(std::string_view name, CommonConfig cfg,
                             Fn&& fn) {
  if (name == "lsa") {
    return fn(std::type_identity<LsaStm>{}, "lsa", cfg);
  }
  if (name == "lsa-nors" || name == "lsa-no-readsets") {
    cfg.track_readonly_readsets = false;
    return fn(std::type_identity<LsaStm>{}, "lsa-nors", cfg);
  }
  if (name == "cs-vc") {
    cfg.plausible_entries = cfg.max_threads;
    return fn(std::type_identity<CsStm>{}, "cs-vc", cfg);
  }
  if (name == "cs-r") {
    return fn(std::type_identity<CsStm>{}, "cs-r", cfg);
  }
  if (name == "sstm") {
    return fn(std::type_identity<SStm>{}, "sstm", cfg);
  }
  if (name == "zl") {
    return fn(std::type_identity<ZStm>{}, "zl", cfg);
  }
  if (name == "tl2") {
    return fn(std::type_identity<Tl2Stm>{}, "tl2", cfg);
  }
  throw std::invalid_argument(
      "unknown STM variant '" + std::string(name) +
      "' (expected lsa | lsa-nors | cs-vc | cs-r | sstm | zl | tl2)");
}

}  // namespace zstm::api
