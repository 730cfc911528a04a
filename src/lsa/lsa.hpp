// LSA-STM — the Lazy Snapshot Algorithm ([8]), the paper's baseline TBTM and
// the substrate for Z-STM's short transactions (§2, §3, §5).
//
// Model (object-based, DSTM-style [4], as the paper prescribes):
//  * Every transactional object points to an immutable Locator
//    {writer, tentative, committed}: the logically current version is
//    `tentative` iff the writer's status is kCommitted, else `committed`.
//    Installing a locator is a single CAS, and a transaction's whole write
//    set becomes visible atomically when its status word flips to
//    kCommitted — the single-CAS commit.
//  * Committed versions form a chain (newest first), each stamped with the
//    scalar commit time at which it became visible. Up to
//    Config::versions_kept versions are retained ("a TBTM typically needs
//    old object versions to construct a consistent snapshot", §4.4).
//  * Writers acquire objects at open time (encounter-time write/write
//    detection, single writer per object; an active owner is aborted) and
//    prepare a private duplicate of the current version.
//  * Reads are invisible. A transaction maintains a snapshot validity
//    interval [lb, ub]; reading a version narrows it, and when the newest
//    version lies beyond ub the snapshot is *extended* (re-validated at the
//    current time) or an older version inside the interval is returned, so
//    read-only transactions can commit "in the past".
//  * Update transactions validate at commit that every read version is
//    still current, acquire a commit stamp from the scalar time base
//    (shared counter, or simulated synchronized real-time clocks), and
//    publish. This is the "first committer wins" rule whose effect on long
//    transactions motivates the whole paper.
//
// The "LSA-STM (no readsets)" variant of Figure 6 is selected with
// Config::track_readonly_readsets = false: declared read-only transactions
// then fix their snapshot time up front, never validate or extend, and pay
// no read-set maintenance cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "history/recorder.hpp"
#include "object/object_store.hpp"
#include "runtime/config.hpp"
#include "runtime/core.hpp"
#include "runtime/payload.hpp"
#include "runtime/run_result.hpp"
#include "runtime/txdesc.hpp"
#include "timebase/scalar_timebase.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::lsa {

using runtime::TxAborted;
using runtime::TxKind;

using Config = runtime::Config;

class Runtime;
class ThreadCtx;
class Tx;

class TxDesc final : public runtime::TxDescBase {
 public:
  using TxDescBase::TxDescBase;
  /// Scalar commit stamp; meaningful once status() == kCommitted.
  std::uint64_t commit_ts = 0;
};

/// Per-version metadata on the shared substrate (object/versioned.hpp):
/// the scalar commit stamp and the publishing transaction's zone.
struct VersionMeta {
  /// Commit time at which this version became visible; written by the
  /// owning transaction before its commit CAS and read by others only
  /// after they observe kCommitted.
  std::uint64_t ts = 0;
  /// Zone (T.zc) of the transaction that published this version; 0 for
  /// plain LSA. Z-STM long transactions use it to recover the pre-claim
  /// state of an object: versions carrying the long transaction's own zone
  /// were committed by shorts serialized *after* it (they adopted its zone
  /// between the zone claim and the version read) and must be skipped.
  std::uint64_t zone = 0;
};

/// Per-object metadata: the zone stamp `zc` used by Z-STM (§5.1; plain LSA
/// ignores it).
struct ObjectMeta {
  std::atomic<std::uint64_t> zc{0};
};

struct StoreTraits {
  using Desc = TxDesc;
  using VersionMeta = lsa::VersionMeta;
  using ObjectMeta = lsa::ObjectMeta;
};

using Store = object::ObjectStore<StoreTraits>;
using Version = Store::Version;
using Locator = Store::Locator;
using Object = Store::Object;
using object::OnCommitting;

/// Typed handle to a transactional object (shared substrate Var).
template <typename T>
using Var = Store::Var<T>;

inline constexpr std::uint64_t kOpenEnded = ~std::uint64_t{0};

struct ReadEntry {
  Object* obj;
  Version* version;
  /// Commit stamp of the version's known successor (exclusive validity
  /// bound) or kOpenEnded while it was the newest when read.
  std::uint64_t valid_until;
};

struct WriteEntry {
  Object* obj;
  Version* tentative;
};

/// Commit-time admission test for an update attempt. ThreadCtx::commit
/// runs it once the attempt is kCommitting and before it draws a commit
/// stamp; returning false aborts the attempt. Z-STM's short transactions
/// re-check their zone here (DESIGN.md §5.4).
class CommitCheck {
 public:
  virtual bool admit(const std::vector<WriteEntry>& writes) = 0;

 protected:
  ~CommitCheck() = default;
};

/// One in-flight transaction attempt. Obtained from ThreadCtx::begin();
/// reads/writes throw TxAborted on conflict, ThreadCtx::commit() throws on
/// validation failure. Runtime::run wraps this in a retry loop.
class Tx {
 public:
  template <typename T>
  const T& read(const Var<T>& var) {
    return runtime::payload_as<T>(read_object(*var.object()));
  }

  /// Open for writing and return the mutable private copy.
  template <typename T>
  T& write(Var<T>& var) {
    return runtime::payload_as<T>(write_object(*var.object()));
  }

  template <typename T>
  void write(Var<T>& var, T value) {
    write(var) = std::move(value);
  }

  /// Abort this attempt and throw TxAborted (retried by Runtime::run).
  [[noreturn]] void abort();

  /// Tag the history record with a Z-STM zone (set by zl::ShortTx).
  void set_history_zone(std::uint64_t zone) { rec_.zone = zone; }

  /// Zone stamped onto every version this transaction publishes (set by
  /// zl::ShortTx just before commit; stays 0 for plain LSA).
  void set_publish_zone(std::uint64_t zone) { publish_zone_ = zone; }

  /// From now on a read that would fall back to an older version aborts
  /// instead. zl::ShortTx calls it on entering a zone a long transaction
  /// claimed: the short transaction then serializes after that long one
  /// and must see every version it read (DESIGN.md §5.5).
  void forbid_past_reads() { past_reads_ok_ = false; }
  /// True iff every version read so far is still the newest committed one:
  /// zl::ShortTx's test before it slides to a later zone (DESIGN.md §5.5).
  /// False after an untracked read; the caller then aborts, and the
  /// thread's next attempt tracks its reads so that it can slide.
  bool reads_still_current();

  bool read_only_declared() const { return declared_read_only_; }
  TxDesc* descriptor() const { return desc_; }
  std::size_t read_set_size() const { return read_set_.size(); }
  std::size_t write_set_size() const { return write_set_.size(); }

  // Object-level API (used by Z-STM's wrappers and by tests).
  const runtime::Payload& read_object(Object& o);
  runtime::Payload& write_object(Object& o);

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit Tx(ThreadCtx& ctx) : ctx_(ctx) {}

  [[noreturn]] void fail(util::Counter reason);
  bool try_extend();
  WriteEntry* find_write(const Object& o);

  ThreadCtx& ctx_;
  TxDesc* desc_ = nullptr;
  std::uint64_t lb_ = 0;
  std::uint64_t ub_ = 0;
  std::uint64_t publish_zone_ = 0;
  bool declared_read_only_ = false;
  bool track_reads_ = true;
  bool past_reads_ok_ = true;
  bool untracked_reads_ = false;
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  history::TxRecord rec_;
};

/// Per-thread attachment to a Runtime. Create one per worker thread via
/// Runtime::attach(); it claims a registry slot for its lifetime.
class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  /// Start a transaction attempt. `kReadOnly` and `kLong` declare it
  /// read-only, which enables the no-readsets fast path when the runtime is
  /// configured for it (DESIGN.md §8).
  Tx& begin(TxKind kind = TxKind::kUpdate);

  /// Commit the current attempt; throws TxAborted on validation failure
  /// or when `check` (may be null) refuses an update attempt (the attempt
  /// is already cleaned up when it throws).
  void commit(CommitCheck* check = nullptr);

  /// Abort the current attempt without throwing (for explicit control in
  /// tests and schedulers).
  void abort_attempt();

  bool in_transaction() const { return tx_.desc_ != nullptr; }
  int slot() const { return reg_.slot(); }
  Runtime& runtime() { return rt_; }
  Tx& current() { return tx_; }

 private:
  friend class Runtime;
  friend class Tx;
  ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg);

  void release_ownerships();
  void finish_attempt(bool committed);

  Runtime& rt_;
  util::ThreadRegistry::Registration reg_;
  util::EpochManager::Guard epoch_guard_;
  Tx tx_;
  /// Serialization point of this thread's last committed transaction.
  /// Snapshots never anchor below it, so a thread always reads its own
  /// writes and its transactions serialize in program order even when the
  /// sync-clock snapshot margin would otherwise anchor in the past.
  std::uint64_t last_serialization_ = 0;
  bool force_track_reads_once_ = false;
};

/// config(), stats(), collect_history(), and the registry, pool, EBR,
/// recorder, ids and retire Z-STM's long transactions share, come from
/// runtime::Core.
class Runtime : public runtime::Core {
 public:
  template <typename T>
  using Var = lsa::Var<T>;

  /// All worker threads must be detached before destruction: the store
  /// tears down the live objects single-threaded, then the core's
  /// EpochManager frees retired versions and descriptors (disjoint sets).
  explicit Runtime(Config cfg = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Create a transactional variable with the given initial value. The
  /// runtime owns the underlying object for its whole lifetime.
  template <typename T>
  Var<T> make_var(T initial) {
    return store_.template make_var<T>(std::move(initial));
  }

  std::unique_ptr<ThreadCtx> attach();

  /// Run `body` (callable taking Tx&) as a transaction, retrying with
  /// backoff until it commits. Returns {attempts used, committed = true}
  /// (the retry-loop convention of runtime/run_result.hpp).
  template <typename F>
  runtime::RunResult run(ThreadCtx& ctx, F&& body, bool read_only = false) {
    const TxKind kind = read_only ? TxKind::kReadOnly : TxKind::kUpdate;
    return runtime::retry(
        ctx, [&]() -> Tx& { return ctx.begin(kind); }, body);
  }

  // --- internals shared with Z-STM (stable within this library) ---------

  /// The shared versioned-object substrate (object/object_store.hpp):
  /// resolve, open-for-write and release go through it directly.
  Store& store() { return store_; }
  timebase::ScalarTimeBase& time_base() { return timebase_; }

 private:
  friend class ThreadCtx;
  friend class Tx;

  timebase::ScalarTimeBase timebase_;
  Store store_;
};

}  // namespace zstm::lsa
