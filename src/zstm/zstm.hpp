// Z-STM — the z-linearizable STM of §5, Algorithms 2 and 3.
//
// Z-STM classifies transactions as *long* or *short* at start (§5.3). Long
// transactions are ordered by an optimistic timestamp-ordering scheme [11]
// over a logical *zone counter*; short transactions run on LSA and are
// partitioned into zones by the long transactions. The result is
// z-linearizability: (1) the long transactions are linearizable, (2) the
// short transactions of each zone are linearizable, (3) everything is
// serializable, (4) the serialization respects each thread's order.
//
// Long transactions (Algorithm 2):
//  * Startlong:  T.zc ← ++ZC — a unique logical time (line 3).
//  * Openlong:   the object's zone stamp o.zc is raised to T.zc; if a long
//    transaction with a higher zc already touched the object, we were
//    "passed" and abort (lines 6, 19-21). An active writer is aborted
//    (lines 8-11, ObjectStore::acquire). Writes are visible
//    (locator install); reads take the current committed version — no read
//    set, no write-set validation ever.
//  * Commitlong: commit iff T.zc > CT, then CT ← T.zc (lines 24-26) —
//    implemented as an atomic max-CAS so racing long transactions decide
//    the order exactly once. Publication is the usual single status CAS.
//
// Short transactions (Algorithm 3): the first opened object determines the
// transaction's zone (lines 6-15); every later open checks for a zone
// crossing (lines 16-22) — crossing an *active* zone (one whose long
// transaction may still be live, i.e. zone id in (CT, ZC]) is a conflict,
// and the short transaction aborts (the paper's contention manager "would
// typically abort T"). The thread-local LZC forbids moving backwards past an
// active long transaction (property 4). Everything else — snapshots,
// validation, commit — is plain LSA (line 23's OpenLSA).
//
// Deviation noted in DESIGN.md §4: our long transactions keep a private list
// of written objects purely to stamp published versions with an LSA commit
// time and to release locators; the paper's claim "no read set nor write
// set" concerns validation work, which is preserved (commit validates
// nothing). Zone 0 (objects never touched by a long transaction) is
// treated as a real zone, which closes a corner the pseudo-code leaves
// open when a short transaction spans zone-0 and active-zone objects.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "lsa/lsa.hpp"

namespace zstm::zl {

using runtime::TxAborted;
using runtime::TxKind;

/// Z-STM has no knobs of its own: the Config configures the LSA substrate.
using Config = runtime::Config;

class Runtime;
class ThreadCtx;

/// A long transaction attempt (Algorithm 2).
class LongTx {
 public:
  template <typename T>
  const T& read(const lsa::Var<T>& var) {
    return runtime::payload_as<T>(read_object(*var.object()));
  }
  template <typename T>
  T& write(lsa::Var<T>& var) {
    return runtime::payload_as<T>(write_object(*var.object()));
  }
  template <typename T>
  void write(lsa::Var<T>& var, T value) {
    write(var) = std::move(value);
  }

  [[noreturn]] void abort();

  std::uint64_t zone() const { return zc_; }
  lsa::TxDesc* descriptor() const { return desc_; }

  const runtime::Payload& read_object(lsa::Object& o);
  runtime::Payload& write_object(lsa::Object& o);

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit LongTx(ThreadCtx& ctx) : ctx_(ctx) {}

  /// Openlong lines 6-7 and 19-21: raise o.zc to T.zc or abort if passed.
  void claim_zone(lsa::Object& o);
  lsa::WriteEntry* find_write(const lsa::Object& o);

  ThreadCtx& ctx_;
  lsa::TxDesc* desc_ = nullptr;
  std::uint64_t zc_ = 0;
  /// True once claim_zone stamped any object with zc_. An aborting attempt
  /// that claimed objects must retire its zone (ThreadCtx::
  /// abort_long_attempt), or the zone stays "active" forever and every
  /// short transaction crossing it livelocks.
  bool zone_claimed_ = false;
  std::vector<lsa::WriteEntry> write_set_;
  history::TxRecord rec_;
};

/// A short transaction attempt (Algorithm 3): LSA plus zone checks.
class ShortTx : private lsa::CommitCheck {
 public:
  template <typename T>
  const T& read(const lsa::Var<T>& var) {
    check_zone(*var.object());
    const T& ref = inner_->read(var);
    // Close the zone-check/read race: a long transaction that claimed the
    // object in between may already have a write from its zone current.
    verify_zone(*var.object());
    return ref;
  }
  template <typename T>
  T& write(lsa::Var<T>& var) {
    check_zone(*var.object());
    T& ref = inner_->write(var);
    // Close the zone-check/install race against a concurrent long
    // transaction: our locator is now installed (seq_cst), so either the
    // long transaction's open sees it and arbitrates, or we see its zone
    // stamp here and resolve the crossing (see verify_zone).
    verify_zone(*var.object());
    return ref;
  }
  template <typename T>
  void write(lsa::Var<T>& var, T value) {
    write(var) = std::move(value);
  }

  [[noreturn]] void abort() { inner_->abort(); }

  std::uint64_t zone() const { return zc_; }
  lsa::Tx& inner() { return *inner_; }

 private:
  friend class ThreadCtx;
  explicit ShortTx(ThreadCtx& ctx) : ctx_(ctx) {}

  void check_zone(lsa::Object& o);
  /// Aborts unless zone_holds(o): run after every open (DESIGN.md §5.1,
  /// §5.5).
  void verify_zone(lsa::Object& o);
  /// Re-reads o.zc (seq_cst): true while it still matches our zone, or
  /// once both zones are committed (sliding to CT); false, counting a zone
  /// conflict, when a still-active long transaction claimed o.
  bool zone_holds(lsa::Object& o);
  /// Slide to `ct` when both our zone and `other` are committed (Algorithm
  /// 3 line 20) and, unless we are at `ct` already, every version we read
  /// is still current: sliding puts us after the long transactions up to
  /// `ct`, which read current versions (DESIGN.md §5.5).
  bool try_slide(std::uint64_t other, std::uint64_t ct);
  /// Enter zone `z`; past zone 0 no read may fall back to the past.
  void join_zone(std::uint64_t z);
  /// Commit-time zone re-check of every written object (DESIGN.md §5.4).
  bool admit(const std::vector<lsa::WriteEntry>& writes) override;

  ThreadCtx& ctx_;
  lsa::Tx* inner_ = nullptr;
  std::uint64_t zc_ = 0;
  bool first_open_pending_ = true;
};

/// The dispatching handle ThreadCtx::begin(kind) returns: a Z-STM
/// transaction is short or long, with different native types, and one
/// branch per access picks the class in flight. run_auto's bodies and the
/// api façade's receive it. It also counts the opens made through it,
/// which run_auto's classifier samples (§5.3): a plain member, since only
/// the owning thread touches the handle.
class Tx {
 public:
  explicit Tx(ShortTx& tx) : short_(&tx) {}
  explicit Tx(LongTx& tx) : long_(&tx) {}

  template <typename T>
  const T& read(const lsa::Var<T>& var) {
    ++opens_;
    return long_ != nullptr ? long_->read(var) : short_->read(var);
  }
  template <typename T>
  T& write(lsa::Var<T>& var) {
    ++opens_;
    return long_ != nullptr ? long_->write(var) : short_->write(var);
  }
  template <typename T>
  void write(lsa::Var<T>& var, T value) {
    write(var) = std::move(value);
  }
  [[noreturn]] void abort() {
    if (long_ != nullptr) long_->abort();
    short_->abort();
  }

  bool is_long() const { return long_ != nullptr; }
  /// Reads and writes made through this handle so far.
  std::uint64_t opens() const { return opens_; }

 private:
  ShortTx* short_ = nullptr;
  LongTx* long_ = nullptr;
  std::uint64_t opens_ = 0;
};

class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  /// Start a transaction of the given kind (DESIGN.md §8): the long kinds
  /// run Algorithm 2, the others a short transaction, declared read-only
  /// for kReadOnly. Inline, so a constant kind folds the handle's branch.
  Tx begin(TxKind kind = TxKind::kUpdate) {
    if (kind == TxKind::kLong || kind == TxKind::kLongUpdate) {
      return Tx(begin_long());
    }
    return Tx(begin_short(kind == TxKind::kReadOnly));
  }
  /// Commit, abort or query the attempt of the class last begun (by
  /// begin, begin_short or begin_long).
  void commit() {
    if (long_begun_) {
      commit_long();
    } else {
      commit_short();
    }
  }
  void abort_attempt() {
    if (long_begun_) {
      abort_long_attempt();
    } else {
      abort_short_attempt();
    }
  }
  bool in_transaction() const {
    return long_begun_ ? in_long_transaction() : in_short_transaction();
  }

  // --- short transactions (Algorithm 3) --------------------------------
  ShortTx& begin_short(bool read_only = false);
  void commit_short();

  // --- long transactions (Algorithm 2) ---------------------------------
  LongTx& begin_long();
  void commit_long();
  void abort_long_attempt();

  /// Abort a half-finished short attempt without throwing (foreign-
  /// exception unwind in the façade; the inner LSA attempt is the whole
  /// short-transaction state).
  void abort_short_attempt() { inner_->abort_attempt(); }

  bool in_short_transaction() const { return inner_->in_transaction(); }
  bool in_long_transaction() const { return long_tx_.descriptor() != nullptr; }

  int slot() const { return inner_->slot(); }
  Runtime& runtime() { return rt_; }
  /// LZCp: last zone this thread committed in (long or short).
  std::uint64_t last_zone_committed() const;

 private:
  friend class Runtime;
  friend class LongTx;
  friend class ShortTx;
  ThreadCtx(Runtime& rt, std::unique_ptr<lsa::ThreadCtx> inner);

  void release_long_ownerships();
  void finish_long_attempt(bool committed);

  Runtime& rt_;
  std::unique_ptr<lsa::ThreadCtx> inner_;
  util::EpochManager::Guard long_epoch_guard_;
  ShortTx short_tx_;
  LongTx long_tx_;
  bool long_begun_ = false;  // class of the attempt last begun
};

class Runtime {
 public:
  template <typename T>
  using Var = lsa::Var<T>;

  explicit Runtime(Config cfg = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  template <typename T>
  lsa::Var<T> make_var(T initial) {
    return lsa_.make_var(std::move(initial));
  }

  std::unique_ptr<ThreadCtx> attach();

  /// Retry loop for short transactions; returns {attempts, committed =
  /// true} (see runtime/run_result.hpp for the convention).
  template <typename F>
  runtime::RunResult run_short(ThreadCtx& ctx, F&& body,
                               bool read_only = false) {
    return runtime::retry(
        ctx, [&]() -> ShortTx& { return ctx.begin_short(read_only); }, body);
  }

  /// Retry loop for long transactions; returns {attempts, committed = true}.
  template <typename F>
  runtime::RunResult run_long(ThreadCtx& ctx, F&& body) {
    return runtime::retry(
        ctx, [&]() -> LongTx& { return ctx.begin_long(); }, body);
  }

  /// ZC, the global zone counter (last zone number handed out).
  std::uint64_t zone_counter() const {
    return zc_.value.load(std::memory_order_acquire);
  }
  /// CT, the global commit counter (last zone committed).
  std::uint64_t commit_time() const {
    return ct_.value.load(std::memory_order_acquire);
  }

  const Config& config() const { return lsa_.config(); }
  lsa::Runtime& substrate() { return lsa_; }
  util::StatsSnapshot stats() const { return lsa_.stats(); }
  void reset_stats() { lsa_.reset_stats(); }
  history::History collect_history() const { return lsa_.collect_history(); }

 private:
  friend class ThreadCtx;
  friend class LongTx;
  friend class ShortTx;

  std::uint64_t lzc(int slot) const {
    return lzc_[static_cast<std::size_t>(slot)].value.load(
        std::memory_order_acquire);
  }
  void set_lzc(int slot, std::uint64_t z) {
    lzc_[static_cast<std::size_t>(slot)].value.store(
        z, std::memory_order_release);
  }

  lsa::Runtime lsa_;
  util::PaddedCounter zc_;  // ZC: zone numbers handed to long transactions
  util::PaddedCounter ct_;  // CT: highest committed zone
  std::vector<util::PaddedCounter> lzc_;  // per-slot LZC
};

}  // namespace zstm::zl
