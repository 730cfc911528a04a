// TL2-style word-granularity STM (Dice, Shalev & Shavit, DISC 2006) — the
// sixth backend, and the repo's only one that is *not* object-based.
//
// Everything the paper's five runtimes do with DSTM locators this runtime
// does with raw memory words and a striped array of versioned spin-locks:
//
//  * Each transactional object is a fixed run of `std::atomic<uint64_t>`
//    master words holding the committed value's bytes. There is no locator,
//    no version chain and no per-access heap allocation.
//  * A global table of 2^16 versioned lock words covers all words by
//    address hash ("lock striping"). A lock word encodes
//    `version << 1 | locked`; version is the commit time (from the shared
//    `timebase::GlobalCounter`) of the last transaction that wrote any word
//    in the stripe.
//  * Reads are invisible AND allocation-free: at begin the transaction
//    samples the global clock (`rv`) and every read runs a seqlock-style
//    consistent copy — pre-check the covering lock words (unlocked,
//    version <= rv), copy the master words straight into caller storage
//    (a stack value for the typed fast path), post-check the lock words
//    are unchanged. The read set records only {object, version-id} for
//    commit-time revalidation; repeated reads of an object re-run the
//    seqlock and are forced consistent by the rv bound, so no lookup or
//    caching happens on the read path at all. This is the one read path.
//  * Writes go to a private redo log (one pooled buffer per object, seeded
//    from a validated snapshot, so read-modify-write patterns are protected
//    against lost updates by commit-time revalidation).
//  * Commit: acquire the write set's stripes in sorted order (bounded spin,
//    abort on contention — no deadlock, no contention manager needed),
//    fetch a commit time `wv`, revalidate the read set (skipped when
//    wv == rv + 1: nothing committed in between), write the redo log back
//    to the master words and release every stripe at version wv.
//
// The published algorithm's guarantee is strict serializability (opacity,
// even: the per-read post-check keeps doomed transactions from seeing
// inconsistent snapshots). tests/history_conformance_test.cpp checks the
// recorded histories with history::check_strictly_serializable.
//
// Memory-order contract (the part ThreadSanitizer holds us to): master
// words are written with release stores (under the stripe lock) and read
// with acquire loads. A reader that observes a writer's new word value
// therefore synchronizes with that writer, so the reader's program-order-
// later post-check load is forced (write-read coherence) to see at least
// the writer's lock acquisition — and aborts. Stale data with a clean
// post-check is thus impossible, which is the whole seqlock argument.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "history/recorder.hpp"
#include "object/node_pool.hpp"
#include "runtime/config.hpp"
#include "runtime/core.hpp"
#include "runtime/payload.hpp"
#include "runtime/run_result.hpp"
#include "runtime/txdesc.hpp"
#include "timebase/global_counter.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::tl2 {

using runtime::TxAborted;
using runtime::TxKind;

using Config = runtime::Config;

class Runtime;
class ThreadCtx;
class Tx;

/// A transactional object: a fixed run of atomic master words plus the
/// immutable prototype payload that donates the value's type/layout to
/// redo buffers. Values must be trivially copyable and at most kMaxBytes
/// bytes.
struct Object {
  std::uint64_t oid = 0;
  /// The initial payload; used only via clone_into (layout donor for redo
  /// buffers), never mutated after construction.
  std::unique_ptr<runtime::Payload> prototype;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  std::uint32_t word_count = 0;
  std::uint32_t bytes = 0;
  /// History only: id of the currently committed version (0 = initial).
  /// Written under the stripe locks, sampled inside readers' seqlock
  /// windows, so it is always consistent with the value read.
  std::atomic<std::uint64_t> vid{0};
};

template <typename T>
class Var {
 public:
  Var() = default;
  Object* object() const { return obj_; }

 private:
  friend class Runtime;
  explicit Var(Object* o) : obj_(o) {}
  Object* obj_ = nullptr;
};

struct ReadEntry {
  Object* obj;
  std::uint64_t vid;  // version id sampled inside the seqlock window
};

struct WriteEntry {
  Object* obj;
  runtime::Payload* redo;  // pooled redo buffer (placement-constructed)
};

/// One in-flight transaction attempt. Obtained from ThreadCtx::begin();
/// reads throw TxAborted on a failed consistent snapshot,
/// ThreadCtx::commit() throws on validation failure. Runtime::run wraps
/// this in a retry loop.
class Tx {
 public:
  /// Value read — no allocation, no read-set lookup. Repeated reads re-run
  /// the seqlock copy; the rv anchoring makes them return identical values
  /// or abort, so opacity holds without caching.
  template <typename T>
  T read(const Var<T>& var) {
    Object& o = *var.object();
    if (const runtime::Payload* redo = find_redo(o)) {
      return runtime::payload_as<T>(*redo);  // read-own-writes
    }
    T out;
    read_into(o, &out);
    return out;
  }

  /// Open for writing and return the mutable private redo copy.
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

  std::uint64_t read_version() const { return rv_; }
  std::size_t read_set_size() const { return read_set_.size(); }
  std::size_t write_set_size() const { return write_set_.size(); }

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit Tx(ThreadCtx& ctx) : ctx_(ctx) {}

  /// Redo-log hit for read-own-writes; null when `o` is unwritten.
  const runtime::Payload* find_redo(const Object& o) const {
    for (const auto& w : write_set_) {
      if (w.obj == &o) return w.redo;
    }
    return nullptr;
  }

  /// Seqlock-copy `o`'s committed value into `dst` (o.bytes bytes) and
  /// append the read to the read set. Throws TxAborted when the copy
  /// cannot be anchored at rv.
  void read_into(Object& o, void* dst);
  /// The private redo copy of `o`, seeded by a validated read on first
  /// open.
  runtime::Payload& write_object(Object& o);

  ThreadCtx& ctx_;
  std::uint64_t rv_ = 0;  // clock sample at begin; snapshot validity bound
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  history::TxRecord rec_;
};

/// Per-thread attachment to a Runtime (Runtime::attach()); claims a
/// registry slot for its lifetime.
class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  /// Start a transaction attempt (aborting a leaked previous one first).
  /// One transaction class for every kind: tl2 treats every commit with an
  /// empty write set as read-only automatically.
  Tx& begin(TxKind kind = TxKind::kUpdate);

  /// Commit the current attempt; throws TxAborted on lock contention or
  /// read-set revalidation failure (the attempt is already cleaned up).
  void commit();

  /// Abort the current attempt without throwing.
  void abort_attempt();

  bool in_transaction() const { return active_; }
  int slot() const { return reg_.slot(); }
  Runtime& runtime() { return rt_; }
  Tx& current() { return tx_; }

 private:
  friend class Runtime;
  friend class Tx;
  ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg);

  /// Seqlock-consistent copy of `o`'s master words into `dst` (o.bytes
  /// bytes), sampling `o.vid` inside the window. Returns false when the
  /// copy cannot be anchored at `rv` (caller cleans up and aborts).
  bool try_read_words(Object& o, std::uint64_t rv, void* dst,
                      std::uint64_t* vid_out);

  void finish_attempt(bool committed);
  void drop_logs();
  [[noreturn]] void fail(util::Counter reason);
  void release_acquired(std::size_t count);

  Runtime& rt_;
  util::ThreadRegistry::Registration reg_;
  Tx tx_;
  bool active_ = false;
  // Commit scratch (capacity reused across attempts): the sorted, deduped
  // stripe indices of the write set and the lock words they held before
  // acquisition (restored on abort).
  std::vector<std::uint32_t> stripes_;
  std::vector<std::uint64_t> stripe_old_;
};

/// Built on runtime::Core like the object runtimes, tl2 uses its registry,
/// stats, pool, recorder and id lanes; with no versions to reclaim, it
/// never touches the core's EBR.
class Runtime : public runtime::Core {
 public:
  template <typename T>
  using Var = tl2::Var<T>;

  /// Largest value size (bytes) a tl2 object supports: one NodePool class-3
  /// block holds the redo payload (16-byte TypedPayload header + value).
  static constexpr std::size_t kBufBytes = 240;
  static constexpr std::size_t kMaxBytes =
      kBufBytes - runtime::Payload::kInlineAlign;
  static constexpr std::size_t kMaxWords = kBufBytes / 8;
  /// Versioned lock words: 2^16 * 8 bytes = 512 KiB.
  static constexpr std::uint32_t kLockTableSize = 1u << 16;
  /// Bounded spin on a locked stripe during commit-time acquisition before
  /// the transaction gives up and retries (requester-aborts: no deadlock,
  /// no contention manager).
  static constexpr int kCommitSpin = 64;

  explicit Runtime(Config cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Create a transactional variable. The runtime owns the underlying
  /// object for its whole lifetime.
  template <typename T>
  Var<T> make_var(T initial) {
    using P = runtime::TypedPayload<T>;
    static_assert(std::is_trivially_copyable_v<T>,
                  "tl2 stores values as raw words; T must be trivially "
                  "copyable (use an object-based runtime otherwise)");
    // clone_into's condition for one log buffer, so redo copies never fail.
    static_assert(sizeof(P) <= kBufBytes &&
                      alignof(P) <= runtime::Payload::kInlineAlign &&
                      sizeof(T) <= kMaxBytes,
                  "tl2 values must fit one kBufBytes log buffer");
    return Var<T>(allocate_object(new P(std::move(initial))));
  }

  std::unique_ptr<ThreadCtx> attach();

  /// Run `body` (callable taking Tx&) as a transaction, retrying with
  /// backoff until it commits (runtime/run_result.hpp convention). The
  /// read-only flag is advisory and unused: tl2 runs one class (see begin).
  template <typename F>
  runtime::RunResult run(ThreadCtx& ctx, F&& body,
                         bool /*read_only*/ = false) {
    return runtime::retry(ctx, [&]() -> Tx& { return ctx.begin(); }, body);
  }

  timebase::GlobalCounter& clock() { return clock_; }

 private:
  friend class ThreadCtx;
  friend class Tx;

  /// Takes ownership of `initial`, whose raw-word fit make_var checked.
  Object* allocate_object(runtime::Payload* initial);

  /// Stripe index covering the master word at `addr` (Fibonacci hash of
  /// the word address — adjacent objects land on unrelated stripes).
  std::uint32_t stripe_of(const void* addr) const {
    const auto a = reinterpret_cast<std::uintptr_t>(addr) >> 3;
    const std::uint64_t h =
        static_cast<std::uint64_t>(a) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::uint32_t>(h >> 32) & (kLockTableSize - 1);
  }

  std::atomic<std::uint64_t>& lockword(std::uint32_t stripe) {
    return locks_[stripe];
  }

  /// Log-node (redo buffer) storage: pooled when enabled, plain
  /// aligned heap otherwise (ZSTM_POOL=0 keeps ASan's heap poisoning).
  void* acquire_buf(int slot);
  void release_buf(int slot, void* p);

  timebase::GlobalCounter clock_;
  util::PaddedCounter oids_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> locks_;
  std::mutex objects_mu_;
  std::vector<std::unique_ptr<Object>> objects_;
};

}  // namespace zstm::tl2
