// CS-STM — the causally serializable STM of §4.1, a line-by-line
// implementation of Algorithm 1 on top of DSTM-style locators.
//
//  * The time base is a vector clock (VcDomain) or an REV plausible clock
//    (RevDomain, §4.3) — the template parameter. The paper's observation
//    that plausible clocks drop in "with almost no modifications" holds
//    literally here: both domains expose zero()/advance() and stamps with
//    merge()/compare().
//  * Start:  T.ct ← VCp, the committing thread's last committed timestamp
//            (Algorithm 1 line 3).
//  * Open:   T.ct ← element-wise max(T.ct, v.ct) for the current version v
//            (line 8); writes install a locator (single writer per object,
//            an active owner is aborted, lines 10-13)
//            and duplicate the current version (line 14). Reads are
//            invisible.
//  * Validate (lines 20-26): abort iff some read version has a committed
//            successor whose timestamp strictly precedes T.ct — i.e. the
//            transaction would both causally precede and follow another.
//            Successors with concurrent timestamps are tolerated; that is
//            exactly where causal serializability admits more schedules
//            than serializability (Figure 1's long transaction commits).
//  * Commit: increment own component (line 29; skipped for read-only
//            transactions), publish with the single status CAS, remember
//            VCp (line 31).
//
// Old versions (deviation recorded in DESIGN.md §4): the paper keeps only
// the last committed version per object (footnote 1). We retain a short
// chain purely to *find* the immediate
// successor of a read version during validation; a transaction whose read
// version was pruned out aborts conservatively, matching the paper's
// single-version semantics.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/failpoint.hpp"
#include "history/recorder.hpp"
#include "object/object_store.hpp"
#include "runtime/config.hpp"
#include "runtime/core.hpp"
#include "runtime/payload.hpp"
#include "runtime/run_result.hpp"
#include "runtime/txdesc.hpp"
#include "timebase/plausible_clock.hpp"
#include "timebase/vector_clock.hpp"
#include "util/align.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::cs {

using runtime::TxAborted;
using runtime::TxKind;

using Config = runtime::Config;

/// Causally serializable STM templated over the clock system.
/// ClockDomain = timebase::VcDomain (exact) or timebase::RevDomain
/// (plausible, r entries).
template <typename ClockDomain>
class RuntimeT : public runtime::Core {
 public:
  using Stamp = decltype(std::declval<const ClockDomain&>().zero());

  class TxDesc final : public runtime::TxDescBase {
   public:
    TxDesc(std::uint64_t id, int slot, Stamp initial)
        : TxDescBase(id, slot, runtime::TxClass::kShort),
          ct(std::move(initial)) {}
    /// The evolving tentative commit timestamp T.ct. Owner-thread-only for
    /// the descriptor's whole lifetime: other threads must never read it
    /// (versions carry their own stamp copies; the CM sees only
    /// TxDescBase). finish_attempt moves the backing vector out into the
    /// slot's spare buffer before retiring the descriptor (see
    /// take_spare_stamp), so it is NOT immutable after commit.
    Stamp ct;
  };

  /// Per-version metadata on the shared substrate: the commit timestamp of
  /// the writing transaction; written before the writer's commit CAS, read
  /// by others only after observing kCommitted.
  struct VersionMeta {
    Stamp ct;
  };

  struct StoreTraits {
    using Desc = TxDesc;
    using VersionMeta = RuntimeT::VersionMeta;
    using ObjectMeta = object::NoMeta;
  };

  using Store = object::ObjectStore<StoreTraits>;
  using Version = typename Store::Version;
  using Locator = typename Store::Locator;
  using Object = typename Store::Object;
  using OnCommitting = object::OnCommitting;

  template <typename T>
  using Var = typename Store::template Var<T>;

  struct ReadEntry {
    Object* obj;
    Version* version;
  };
  struct WriteEntry {
    Object* obj;
    Version* tentative;
  };

  class ThreadCtx;

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

    [[noreturn]] void abort() {
      ctx_.abort_attempt();
      throw TxAborted{};
    }

    const Stamp& tentative_ct() const { return desc_->ct; }
    TxDesc* descriptor() const { return desc_; }

    const runtime::Payload& read_object(Object& o);
    runtime::Payload& write_object(Object& o);

   private:
    friend class ThreadCtx;
    friend class RuntimeT;
    explicit Tx(ThreadCtx& ctx) : ctx_(ctx) {}

    ThreadCtx& ctx_;
    TxDesc* desc_ = nullptr;
    std::vector<ReadEntry> read_set_;
    std::vector<WriteEntry> write_set_;
    history::TxRecord rec_;
  };

  class ThreadCtx {
   public:
    ~ThreadCtx() {
      if (tx_.desc_ != nullptr) abort_attempt();
    }
    ThreadCtx(const ThreadCtx&) = delete;
    ThreadCtx& operator=(const ThreadCtx&) = delete;

    /// Start a transaction attempt. CS-STM has one transaction class; every
    /// kind runs it (read-only bodies simply never bump their own clock
    /// component at commit).
    Tx& begin(TxKind kind = TxKind::kUpdate);
    void commit();
    void abort_attempt();

    bool in_transaction() const { return tx_.desc_ != nullptr; }
    int slot() const { return reg_.slot(); }
    /// VCp: the timestamp of this thread's last committed transaction.
    const Stamp& last_committed() const { return vcp_; }

   private:
    friend class RuntimeT;
    friend class Tx;
    ThreadCtx(RuntimeT& rt, util::ThreadRegistry::Registration reg)
        : rt_(rt), reg_(std::move(reg)), tx_(*this), vcp_(rt.domain_.zero()) {}

    void release_ownerships();
    void finish_attempt(bool committed);

    RuntimeT& rt_;
    util::ThreadRegistry::Registration reg_;
    util::EpochManager::Guard epoch_guard_;
    Tx tx_;
    Stamp vcp_;
  };

  RuntimeT(Config cfg, ClockDomain domain)
      : Core(cfg),
        domain_(std::move(domain)),
        spare_ct_(static_cast<std::size_t>(cfg.max_threads)),
        store_(*this) {}

  RuntimeT(const RuntimeT&) = delete;
  RuntimeT& operator=(const RuntimeT&) = delete;

  template <typename T>
  Var<T> make_var(T initial) {
    return store_.template make_var<T>(std::move(initial), domain_.zero());
  }

  std::unique_ptr<ThreadCtx> attach() {
    return std::unique_ptr<ThreadCtx>(
        new ThreadCtx(*this, registry_.attach()));
  }

  /// Retry loop; returns {attempts, committed = true} (see
  /// runtime/run_result.hpp for the convention).
  template <typename F>
  runtime::RunResult run(ThreadCtx& ctx, F&& body) {
    return runtime::retry(ctx, [&]() -> Tx& { return ctx.begin(); }, body);
  }

  const ClockDomain& domain() const { return domain_; }

 private:
  friend class ThreadCtx;
  friend class Tx;

  /// Validation core (Algorithm 1 lines 20-26): returns false if some read
  /// version has a committed successor whose stamp strictly precedes ct.
  bool validate(Tx& tx, int slot) {
    for (const auto& r : tx.read_set_) {
      Version* cur =
          store_.resolve(*r.obj, tx.desc_, OnCommitting::kFail, slot);
      if (cur == nullptr) return false;  // mid-commit writer: conservative
      if (cur == r.version) continue;
      // Locate the immediate successor v_{i+1} of the version we read.
      Version* succ = Store::successor_of(cur, r.version);
      if (succ == nullptr) {
        // Pruned: conservative abort (paper's single-version semantics).
        stats_.add(slot, util::Counter::kVersionPruned);
        return false;
      }
      // Successor timestamps grow along the chain, so checking the
      // immediate successor suffices: if succ.ct ⋠ T.ct then every later
      // successor (whose stamp dominates succ's) is ⋠ T.ct as well.
      // Note ≼, not the paper's ≺: a read-only transaction never bumps its
      // own component, so T.ct can *equal* the successor's stamp after
      // merging it through another object — the transaction has then seen
      // the successor's effects elsewhere and must not also read the past.
      const timebase::Order ord = succ->ct.compare(tx.desc_->ct);
      if (ord == timebase::Order::kBefore || ord == timebase::Order::kEqual) {
        return false;
      }
    }
    return true;
  }

  /// Per-slot recycled stamp storage (ROADMAP: pool cs::TxDesc's inner
  /// vector-clock allocation). A descriptor's `ct` vector is moved back
  /// here when the transaction finishes — before the descriptor is retired
  /// through EBR, which is safe because `ct` is only ever accessed by the
  /// owning thread (versions carry their own stamp copies; the CM sees only
  /// TxDescBase) — and the next begin() on the slot moves it out again and
  /// copy-assigns VCp into the retained capacity. Steady state: zero heap
  /// allocations per transaction for descriptor clock storage. Slot-keyed,
  /// so the buffers survive thread churn like the NodePool's free lists.
  Stamp take_spare_stamp(int slot) {
    return std::move(spare_ct_[static_cast<std::size_t>(slot)].value);
  }
  void put_spare_stamp(int slot, Stamp&& s) {
    spare_ct_[static_cast<std::size_t>(slot)].value = std::move(s);
  }

  static std::vector<std::uint64_t> stamp_to_vector(const Stamp& s) {
    std::vector<std::uint64_t> out;
    const int n = stamp_size(s);
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out.push_back(s[i]);
    return out;
  }
  static int stamp_size(const timebase::VcStamp& s) { return s.dimension(); }
  static int stamp_size(const timebase::RevStamp& s) { return s.entries(); }

  ClockDomain domain_;
  /// Recycled per-slot TxDesc stamp buffers (see take_spare_stamp).
  std::vector<util::Padded<Stamp>> spare_ct_;
  Store store_;
};

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

template <typename D>
typename RuntimeT<D>::Tx& RuntimeT<D>::ThreadCtx::begin(TxKind) {
  if (in_transaction()) abort_attempt();
  const std::uint64_t id = rt_.next_tx_id(slot());
  // T.ct starts from VCp, the last committed timestamp of this thread
  // (Algorithm 1 line 3). The stamp's backing vector is recycled through
  // the slot's spare buffer: the copy-assign below reuses its capacity, so
  // steady state performs no heap allocation here.
  Stamp ct = rt_.take_spare_stamp(slot());
  ct = vcp_;
  tx_.desc_ =
      rt_.pool_.template create<TxDesc>(slot(), id, slot(), std::move(ct));
  epoch_guard_ = rt_.epochs_.pin_guard(slot());
  tx_.read_set_.clear();
  tx_.write_set_.clear();
  if (rt_.recorder_.enabled()) {
    tx_.rec_ = history::TxRecord{};
    tx_.rec_.tx_id = id;
    tx_.rec_.thread_slot = slot();
    tx_.rec_.begin_seq = rt_.recorder_.tick();
  }
  return tx_;
}

template <typename D>
void RuntimeT<D>::ThreadCtx::release_ownerships() {
  for (auto& w : tx_.write_set_) {
    rt_.store_.release(*w.obj, tx_.desc_, slot());
  }
}

template <typename D>
void RuntimeT<D>::ThreadCtx::finish_attempt(bool committed) {
  if (rt_.recorder_.enabled()) {
    tx_.rec_.committed = committed;
    tx_.rec_.end_seq = rt_.recorder_.tick();
    if (committed) tx_.rec_.stamp = RuntimeT::stamp_to_vector(tx_.desc_->ct);
    rt_.recorder_.record(slot(), std::move(tx_.rec_));
  }
  // Reclaim the descriptor's stamp storage before the descriptor goes
  // through EBR (only this thread ever reads desc->ct; see
  // take_spare_stamp). The retired descriptor destructs an empty vector.
  rt_.put_spare_stamp(slot(), std::move(tx_.desc_->ct));
  rt_.retire(slot(), tx_.desc_);
  tx_.desc_ = nullptr;
  epoch_guard_ = util::EpochManager::Guard();
}

template <typename D>
void RuntimeT<D>::ThreadCtx::abort_attempt() {
  tx_.desc_->finish_abort();
  release_ownerships();
  rt_.stats_.add(slot(), util::Counter::kAborts);
  finish_attempt(false);
}

template <typename D>
void RuntimeT<D>::ThreadCtx::commit() {
  Tx& tx = tx_;
  TxDesc* d = tx.desc_;
  const int s = slot();

  if (!d->begin_commit()) {
    abort_attempt();
    throw TxAborted{};
  }
  if (!rt_.validate(tx, s)) {
    rt_.stats_.add(s, util::Counter::kValidationFails);
    abort_attempt();
    throw TxAborted{};
  }
  if (rt_.recorder_.enabled()) {
    tx.rec_.vstamp = RuntimeT::stamp_to_vector(d->ct);  // pre-bump stamp
  }
  if (!tx.write_set_.empty()) {
    // Increment own component (Algorithm 1 line 29); not needed for
    // read-only transactions.
    rt_.domain_.advance(s, d->ct);
    for (auto& w : tx.write_set_) {
      w.tentative->ct = d->ct;
      if (rt_.recorder_.enabled()) {
        const Version* base =
            w.tentative->prev.load(std::memory_order_relaxed);
        tx.rec_.writes.push_back({w.obj->oid, w.tentative->vid, base->vid});
      }
    }
  }
  d->finish_commit();
  for (auto& w : tx.write_set_) {
    rt_.store_.release(*w.obj, d, s);
  }
  vcp_ = d->ct;  // VCp ← T.ct (line 31)
  rt_.stats_.add(s, util::Counter::kCommits);
  finish_attempt(true);
}

// ---------------------------------------------------------------------------
// Tx
// ---------------------------------------------------------------------------

template <typename D>
const runtime::Payload& RuntimeT<D>::Tx::read_object(Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return *w.tentative->data;
  }
  RuntimeT& rt = ctx_.rt_;
  const int s = ctx_.slot();
  rt.stats_.add(s, util::Counter::kReads);

  Version* v = rt.store_.resolve(o, desc_, OnCommitting::kWait, s);
  desc_->ct.merge(v->ct);  // line 8
  read_set_.push_back({&o, v});
  if (rt.recorder_.enabled()) rec_.reads.push_back({o.oid, v->vid});
  return *v->data;
}

template <typename D>
runtime::Payload& RuntimeT<D>::Tx::write_object(Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return *w.tentative->data;
  }
  RuntimeT& rt = ctx_.rt_;
  const int s = ctx_.slot();

  // Lines 10-14: a single writer per object (the store aborts an active
  // owner), then duplicate the current version.
  Version* tent = rt.store_.open_for_write(
      o, desc_, s, fault::Site::kCsAcquire, [&](Version* base) {
        desc_->ct.merge(base->ct);  // line 8 applies to writes as well
        // The written version's stamp storage comes from the slab pool too
        // (PoolAllocator): this was the last hidden per-commit heap malloc
        // on the update path — zstm_bench's alloc section gates it.
        return rt.store_.clone_version(
            s, *base->data,
            rt.domain_.zero_in(rt.pool_.enabled() ? &rt.pool_ : nullptr, s));
      });
  if (tent == nullptr) abort();
  if (rt.recorder_.enabled()) tent->vid = rt.recorder_.new_version_id();
  write_set_.push_back({&o, tent});
  return *tent->data;
}

using VcRuntime = RuntimeT<timebase::VcDomain>;
using RevRuntime = RuntimeT<timebase::RevDomain>;

/// CS-STM with exact vector clocks sized to the runtime's thread capacity.
inline std::unique_ptr<VcRuntime> make_vc_runtime(Config cfg = {}) {
  return std::make_unique<VcRuntime>(cfg, timebase::VcDomain(cfg.max_threads));
}

/// CS-STM with r = Config::plausible_entries plausible-clock entries
/// (modulo mapping), clamped to [1, max_threads] so one Config works across
/// thread counts. r = 1 degenerates to a scalar clock; r = max_threads to
/// exact vector clocks.
inline std::unique_ptr<RevRuntime> make_rev_runtime(Config cfg = {}) {
  const int entries =
      std::max(1, std::min(cfg.plausible_entries, cfg.max_threads));
  return std::make_unique<RevRuntime>(
      cfg, timebase::RevDomain(entries, cfg.max_threads));
}

}  // namespace zstm::cs
