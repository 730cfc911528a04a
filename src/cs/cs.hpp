// CS-STM — the causally serializable STM of §4.1, a line-by-line
// implementation of Algorithm 1 on top of DSTM-style locators.
//
//  * The time base is §4.3's REV clock (timebase::RevDomain) with
//    r = Config::plausible_entries entries, clamped to [1, max_threads].
//    r = max_threads is Algorithm 1's exact vector clock (the variant name
//    "cs-vc"); smaller r are the plausible clocks of §4.3 ("cs-r"). The
//    paper's observation that plausible clocks drop in "with almost no
//    modifications" holds literally: the width is the only difference.
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
//            S-STM's commit runs the same function (cs::validate).
//  * Commit: advance own entry (line 29; skipped for read-only
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
#include "timebase/plausible_clock.hpp"
#include "util/align.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::cs {

using runtime::TxAborted;
using runtime::TxKind;

using Config = runtime::Config;

class Runtime;
class ThreadCtx;
class Tx;

class TxDesc final : public runtime::TxDescBase {
 public:
  TxDesc(std::uint64_t id, int slot, timebase::VcStamp initial)
      : TxDescBase(id, slot, runtime::TxClass::kShort),
        ct(std::move(initial)) {}
  /// The evolving tentative commit timestamp T.ct. Owner-thread-only for
  /// the descriptor's whole lifetime: other threads must never read it
  /// (versions carry their own stamp copies; the CM sees only
  /// TxDescBase). finish_attempt moves the backing vector out into the
  /// slot's spare buffer before retiring the descriptor (see
  /// Runtime::spare_ct_), so it is NOT immutable after commit.
  timebase::VcStamp ct;
};

/// Per-version metadata on the shared substrate: the commit timestamp of
/// the writing transaction; written before the writer's commit CAS, read
/// by others only after observing kCommitted.
struct VersionMeta {
  timebase::VcStamp ct;
};

struct StoreTraits {
  using Desc = TxDesc;
  using VersionMeta = cs::VersionMeta;
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

/// Validation core (Algorithm 1 lines 20-26), over any store whose versions
/// carry a `ct` stamp: returns false if some read version (`reads` holds
/// {obj, version} entries) has a committed successor whose stamp ≼ `desc`'s
/// T.ct. CS-STM runs it at commit; S-STM, which extends CS-STM, runs it on
/// its merged stamp inside its commit lock.
template <typename S, typename Reads>
bool validate(S& store, const Reads& reads, const typename S::Desc* desc,
              util::StatsDomain& stats, int slot) {
  for (const auto& r : reads) {
    typename S::Version* cur =
        store.resolve(*r.obj, desc, OnCommitting::kFail, slot);
    if (cur == nullptr) return false;  // mid-commit writer: conservative
    if (cur == r.version) continue;
    // Locate the immediate successor v_{i+1} of the version we read.
    typename S::Version* succ = S::successor_of(cur, r.version);
    if (succ == nullptr) {
      // Pruned: conservative abort (paper's single-version semantics).
      stats.add(slot, util::Counter::kVersionPruned);
      return false;
    }
    // Successor timestamps grow along the chain, so checking the
    // immediate successor suffices: if succ.ct ⋠ T.ct then every later
    // successor (whose stamp dominates succ's) is ⋠ T.ct as well.
    // Note ≼, not the paper's ≺: a read-only transaction never advances
    // its own entry, so T.ct can *equal* the successor's stamp after
    // merging it through another object — the transaction has then seen
    // the successor's effects elsewhere and must not also read the past.
    const timebase::Order ord = succ->ct.compare(desc->ct);
    if (ord == timebase::Order::kBefore || ord == timebase::Order::kEqual) {
      return false;
    }
  }
  return true;
}

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

  const timebase::VcStamp& tentative_ct() const { return desc_->ct; }
  TxDesc* descriptor() const { return desc_; }

  const runtime::Payload& read_object(Object& o);
  runtime::Payload& write_object(Object& o);

 private:
  friend class ThreadCtx;
  friend class Runtime;
  explicit Tx(ThreadCtx& ctx) : ctx_(ctx) {}

  ThreadCtx& ctx_;
  TxDesc* desc_ = nullptr;
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  history::TxRecord rec_;
};

class ThreadCtx {
 public:
  ~ThreadCtx();
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  /// Start a transaction attempt. CS-STM has one transaction class; every
  /// kind runs it (read-only bodies simply never advance their own clock
  /// entry at commit).
  Tx& begin(TxKind kind = TxKind::kUpdate);
  void commit();
  void abort_attempt();

  bool in_transaction() const { return tx_.desc_ != nullptr; }
  int slot() const { return reg_.slot(); }
  /// VCp: the timestamp of this thread's last committed transaction.
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
  using Var = cs::Var<T>;

  /// r = Config::plausible_entries clock entries, clamped to
  /// [1, max_threads] so one Config works across thread counts.
  explicit Runtime(Config cfg = {});

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

  const timebase::RevDomain& domain() const { return domain_; }

 private:
  friend class ThreadCtx;
  friend class Tx;

  timebase::RevDomain domain_;
  /// Per-slot recycled stamp storage for TxDesc::ct. A descriptor's `ct`
  /// vector is moved back here when the transaction finishes — before the
  /// descriptor is retired through EBR, which is safe because `ct` is only
  /// ever accessed by the owning thread (versions carry their own stamp
  /// copies; the CM sees only TxDescBase) — and the next begin() on the
  /// slot moves it out again and copy-assigns VCp into the retained
  /// capacity. Steady state: zero heap allocations per transaction for
  /// descriptor clock storage. Slot-keyed, so the buffers survive thread
  /// churn like the NodePool's free lists.
  std::vector<util::Padded<timebase::VcStamp>> spare_ct_;
  Store store_;
};

}  // namespace zstm::cs
