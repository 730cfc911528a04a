// S-STM — the serializable STM of §4.2.
//
// S-STM extends CS-STM so that *all* update transactions are perceived in
// the same order by all processors, not only those updating the same
// object. The paper specifies the ingredients but omits its implementation
// details ("quite intricate"); we implement the stated specification:
//
//  * Visible reads: a reading transaction atomically inserts itself into a
//    reader list attached to the version it read.
//  * When an update transaction commits, it scans the reader lists of the
//    versions it supersedes: committed readers' final timestamps are merged
//    into its own (the new version's timestamp becomes strictly greater
//    than that of any committed past reader); still-active readers are
//    recorded as predecessor edges and carried on the new version as its
//    "past readers" list, propagating anti-dependency information along
//    causal chains.
//  * A transaction that reads (or overwrites) a version merges the final
//    timestamps of that version's committed past readers and records
//    still-active ones as predecessors.
//  * At commit, after merging, CS-STM's validation runs — the same
//    cs::validate (a read version with a committed successor whose stamp
//    ≼ T.ct ⇒ abort) — plus a cycle check over the
//    active-transaction precedence graph: two active transactions that
//    must each precede the other conflict, and one aborts.
//  * The clock is CS-STM's too: REV at r = max_threads, the exact vector
//    clock.
//
// Deviations from the paper's (unpublished) implementation, recorded in
// DESIGN.md §4: update-commit validation+publication runs under one global
// commit spin lock instead of a CAS+helping protocol (publication itself is
// still the single status CAS), reader lists are guarded by per-version
// spin locks, and transaction descriptors are retained until a quiescent
// trim folds every reader-list reference into per-version stamps, so the
// lists never dangle. A begin pins its epoch slot, passes the trim gate and
// only then registers its descriptor on its own slot's list; it runs the
// trim once kTrimWatermark descriptors are retained (DESIGN.md §11.5). No
// attempt takes a sleeping lock, and a transfer allocates nothing from the
// heap: descriptors and their stamps come from the node pool, and each Tx
// reuses its scratch vectors. What remains is the cost the paper attributes
// to S-STM ("the runtime overhead ... can be deemed prohibitive"), which
// zstm_bench's transfer section quantifies.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "history/recorder.hpp"
#include "object/object_store.hpp"
#include "runtime/config.hpp"
#include "runtime/core.hpp"
#include "runtime/payload.hpp"
#include "runtime/run_result.hpp"
#include "runtime/txdesc.hpp"
#include "timebase/plausible_clock.hpp"
#include "util/align.hpp"
#include "util/ebr.hpp"
#include "util/spin_lock.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::sstm {

using runtime::TxAborted;
using runtime::TxKind;

using Config = runtime::Config;

class Runtime;
class ThreadCtx;
class Tx;

class TxDesc final : public runtime::TxDescBase {
 public:
  TxDesc(std::uint64_t id, int slot, timebase::VcStamp initial)
      : TxDescBase(id, slot, runtime::TxClass::kShort), ct(std::move(initial)) {}

  /// Tentative commit timestamp; immutable once status() == kCommitted.
  timebase::VcStamp ct;

  /// Transactions that must serialize before this one (recorded while they
  /// were active). Guarded by `preds_lock`.
  util::SpinLock preds_lock;
  std::vector<TxDesc*> preds;

  void add_pred(TxDesc* p) {
    std::lock_guard<util::SpinLock> lk(preds_lock);
    for (TxDesc* q : preds) {
      if (q == p) return;
    }
    preds.push_back(p);
  }
  /// Replace `out` with, or append to it, the current predecessors. The
  /// caller's vector is reused scratch, so neither allocates once it has
  /// grown.
  void copy_preds_into(std::vector<TxDesc*>& out) {
    std::lock_guard<util::SpinLock> lk(preds_lock);
    out.assign(preds.begin(), preds.end());
  }
  void append_preds_to(std::vector<TxDesc*>& out) {
    std::lock_guard<util::SpinLock> lk(preds_lock);
    out.insert(out.end(), preds.begin(), preds.end());
  }
};

/// Per-version metadata on the shared substrate: the vector-clock commit
/// stamp plus S-STM's visible-reader machinery.
struct VersionMeta {
  explicit VersionMeta(timebase::VcStamp stamp) : ct(std::move(stamp)) {}

  timebase::VcStamp ct;  // written pre-publication by the committing writer

  /// Active transactions that had read the *previous* version(s) when this
  /// version's writer committed (§4.2). Written pre-publication; immutable
  /// afterwards.
  std::vector<TxDesc*> past_readers;

  /// Visible readers of this version. Guarded by `readers_lock`.
  util::SpinLock readers_lock;
  std::vector<TxDesc*> readers;

  /// Ordering constraints of finished readers, folded into a single stamp
  /// by the quiescent trim before their descriptors are freed.
  /// Dimension 0 until the first trim touches this version (VcStamp::merge
  /// indexes `other` by *this* stamp's dimension, so consumers must guard
  /// on dimension() != 0). Written only at quiescence; read without
  /// locking by transactions, which is safe because trims only run when no
  /// transaction is in flight.
  timebase::VcStamp folded;
};

struct StoreTraits {
  using Desc = TxDesc;
  using VersionMeta = sstm::VersionMeta;
  using ObjectMeta = object::NoMeta;
};

using Store = object::ObjectStore<StoreTraits>;
using Version = Store::Version;
using Locator = Store::Locator;
using Object = Store::Object;
using object::OnCommitting;

template <typename T>
using Var = Store::Var<T>;

struct ReadEntry {
  Object* obj;
  Version* version;
};
struct WriteEntry {
  Object* obj;
  Version* tentative;
};

class Tx {
 public:
  template <typename T>
  const T& read(const Var<T>& var) {
    return runtime::payload_as<T>(read_object(*var.object()));
  }
  template <typename T>
  T& write(Var<T>& var) {
    return runtime::payload_as<T>(write_object(*var.object()));
  }
  template <typename T>
  void write(Var<T>& var, T value) {
    write(var) = std::move(value);
  }

  [[noreturn]] void abort();

  TxDesc* descriptor() const { return desc_; }
  const timebase::VcStamp& tentative_ct() const { return desc_->ct; }

  const runtime::Payload& read_object(Object& o);
  runtime::Payload& write_object(Object& o);

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit Tx(ThreadCtx& ctx) : ctx_(ctx) {}

  /// Merge committed past readers of `v`, record active ones as preds.
  void absorb_past_readers(Version* v);
  /// Record that `p` must serialize before this transaction: live `p`
  /// becomes a predecessor edge; committed `p` is absorbed transitively
  /// (its stamp, plus the pending constraints of every committed
  /// transaction reachable through its predecessor edges — a committed
  /// transaction's order may hinge on predecessors that were still active
  /// when it committed, so its stamp alone does not carry them).
  void note_predecessor(TxDesc* p);
  /// True if `target` is reachable from `from` along predecessor edges of
  /// live (active/committing) transactions, or if the search gives up
  /// after Runtime::kCycleSearchCap descriptors: an abort is always safe.
  bool reaches(TxDesc* from, const TxDesc* target);

  ThreadCtx& ctx_;
  TxDesc* desc_ = nullptr;
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  history::TxRecord rec_;
  // Scratch reused by every attempt, so commit allocates nothing once these
  // have grown: the worklist and visited set of note_predecessor and
  // reaches, a snapshot of a superseded version's readers, and a copy of
  // desc_->preds.
  std::vector<TxDesc*> work_;
  std::vector<TxDesc*> visited_;
  std::vector<TxDesc*> readers_;
  std::vector<TxDesc*> preds_;
};

class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  /// Start a transaction attempt. One transaction class: S-STM's
  /// serializability machinery does not distinguish kinds.
  Tx& begin(TxKind kind = TxKind::kUpdate);
  void commit();
  void abort_attempt();

  bool in_transaction() const { return tx_.desc_ != nullptr; }
  int slot() const { return reg_.slot(); }
  const timebase::VcStamp& last_committed() const { return vcp_; }

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
  timebase::VcStamp vcp_;
};

class Runtime : public runtime::Core {
 public:
  template <typename T>
  using Var = sstm::Var<T>;

  explicit Runtime(Config cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  template <typename T>
  Var<T> make_var(T initial) {
    return store_.template make_var<T>(std::move(initial), domain_.zero());
  }

  std::unique_ptr<ThreadCtx> attach();

  /// Retry loop; returns {attempts, committed = true} (see
  /// runtime/run_result.hpp for the convention).
  template <typename F>
  runtime::RunResult run(ThreadCtx& ctx, F&& body) {
    return runtime::retry(ctx, [&]() -> Tx& { return ctx.begin(); }, body);
  }

  /// Descriptors retained before a begin trims (DESIGN.md §11.5).
  static constexpr std::size_t kTrimWatermark = 4096;
  /// Descriptors the commit-time cycle search visits before it gives up,
  /// which counts as finding a cycle.
  static constexpr int kCycleSearchCap = 4096;

  /// The quiescent trim without begin's drain: fold every finished
  /// reader's ordering constraint into its version's `folded` stamp, clear
  /// the reader and past-reader lists and free the descriptors. Returns the
  /// number freed; 0 when an attempt is in flight or another trim holds the
  /// gate. Never waits; callable from any thread outside a transaction on
  /// this runtime.
  std::size_t trim_descriptors();
  /// Retained (not yet trimmed) descriptor count. Safe to call from any
  /// thread at any time; concurrent begins make it a snapshot.
  std::size_t descriptor_count() const {
    return retained_count_.value.load(std::memory_order_relaxed);
  }

 private:
  friend class ThreadCtx;
  friend class Tx;

  /// Pins `slot` into `guard` past the trim gate. First, once the retained
  /// count reaches next_trim, closes the gate, drains and trims.
  void enter(int slot, util::EpochManager::Guard& guard);
  /// Allocates a descriptor and appends it to `slot`'s own list. The
  /// caller is pinned past the gate, so no trim takes the list meanwhile.
  TxDesc* register_desc(int slot);

  /// Closes the trim gate; false when another trim already holds it. The
  /// caller reopens it through a GateHold (sstm.cpp).
  bool close_gate();
  /// No epoch slot pinned. With the gate closed this is quiescence: a
  /// descriptor is registered only after its slot pinned and is final
  /// before the slot unpins, and no slot can pin past a closed gate.
  bool quiescent() const;
  /// With the gate closed and the runtime quiescent, folds every reader
  /// reference and takes every slot's retained descriptors, for the caller
  /// to free once it has reopened the gate; otherwise takes nothing.
  std::vector<TxDesc*> trim_closed();

  /// REV at r = max_threads: the exact vector clock, one entry per slot.
  timebase::RevDomain domain_;

  /// Read by every begin, written only by the gate's holder.
  struct alignas(util::kCacheLine) TrimGate {
    std::atomic<bool> closed{false};
    /// The retained count at which a begin trims.
    std::atomic<std::size_t> next_trim{kTrimWatermark};
  };
  TrimGate gate_;
  /// Descriptors registered since the last trim; bumped by every begin.
  util::Padded<std::atomic<std::size_t>> retained_count_;

  /// Pool-backed descriptor storage, one retained list per slot. Reader and
  /// past-reader lists may reference a descriptor long after its
  /// transaction finished, so descriptors are retained until a quiescent
  /// trim folds every such reference into per-version stamps (or until
  /// teardown). Only a slot's owner appends to its list, pinned past the
  /// gate; only the gate's holder takes the lists, at quiescence.
  struct DescArena {
    DescArena(object::NodePool& p, int slots)
        : pool(&p), retained(static_cast<std::size_t>(slots)) {}
    ~DescArena() {
      for (auto& list : retained) {
        for (TxDesc* d : list.value) pool->destroy(-1, d);
      }
    }
    object::NodePool* pool;
    std::vector<util::Padded<std::vector<TxDesc*>>> retained;
  };

  /// Frees into the core's pool, which outlives it; declared before store_
  /// (the store's destructor reads locator writers' status, so the
  /// descriptors must still be alive when it runs).
  DescArena descs_{pool_, cfg_.max_threads};

  /// Serializes update-commit validation + publication (see header).
  util::Padded<util::SpinLock> commit_lock_;

  Store store_;
};

}  // namespace zstm::sstm
