// ObjectStore — ownership and protocol core of the versioned-object
// substrate (versioned.hpp), shared by all four runtimes.
//
// One store per runtime owns every transactional object for the runtime's
// lifetime, and centralizes the logic that used to be copy-pasted per
// runtime:
//
//   * allocate / make_var  — object + initial version, publishing the
//                            version's settled locator.
//   * resolve              — settle-on-open: find the logically current
//                            committed version, settling finished writers'
//                            locators along the way.
//   * acquire              — the open-for-write arbitration loop (Algorithm
//                            1 lines 10-13, Algorithm 2 Openlong lines
//                            8-11): settle finished writers, wait out
//                            committing ones and abort an active one, the
//                            one contention-management rule (DESIGN.md §1).
//   * open_for_write       — acquire, run the runtime's pre-write hook on
//                            the settled head, install the duplicate; the
//                            one write path of lsa, cs, sstm and zl.
//   * settle               — replace a finished writer's locator with the
//                            settled locator of the now-current version
//                            (CAS; a loser has nothing to free).
//   * install              — link and CAS the tentative version's owned
//                            locator in (encounter-time ownership
//                            acquisition), seq_cst because Z-STM's zone
//                            protocol needs it globally ordered (Dekker
//                            pair, DESIGN.md §5.1).
//   * prune                — bound the committed chain in O(1) per
//                            dropped version: advance the object's tail
//                            cursor, sever, retire through EBR.
//   * successor_of         — chain walking: the immediate successor of a
//                            read version (validation / snapshot-extension
//                            helper).
//
// The store is built on the runtime's runtime::Core. All version
// retirement flows through Core::retire, the one EBR integration point
// (DESIGN.md §3, substitutions table: EBR stands in for the paper's JVM
// garbage collector).
//
// Memory (DESIGN.md §7): every Version is carved from the core's NodePool,
// and retirement returns nodes to the pool's per-slot free lists instead
// of the global heap. Locators are embedded in the versions
// they name ("Embedded locators"), so they cost no allocation and no
// retire of their own. With the pool disabled (ZSTM_POOL=0) everything
// degrades to plain new/delete.
//
// Version retention (paper §4.4) is one fixed bound per store: every
// object keeps max(Config::versions_kept, 1) committed versions. A
// transaction that needs a pruned version aborts at its own call site
// (DESIGN.md §1.2).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "fault/failpoint.hpp"
#include "object/node_pool.hpp"
#include "object/versioned.hpp"
#include "runtime/core.hpp"
#include "runtime/payload.hpp"
#include "runtime/txdesc.hpp"
#include "util/backoff.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"

namespace zstm::object {

/// How to treat an object whose writer is mid-commit (kCommitting): reads
/// wait (the window is short and its stamp may already be drawn); commit
/// validation fails fast instead, which prevents two committing
/// transactions from waiting on each other.
enum class OnCommitting { kWait, kFail };

/// Traits must provide:
///   Desc        — the runtime's transaction descriptor (derives
///                 runtime::TxDescBase; its status is used here).
///   VersionMeta — per-version metadata (aggregate; brace-initialized from
///                 the trailing arguments of allocate/make_var).
///   ObjectMeta  — per-object metadata (default-constructed).
template <typename Traits>
class ObjectStore {
 public:
  using Desc = typename Traits::Desc;
  using Version = object::Version<typename Traits::VersionMeta, Desc>;
  using Locator = typename Version::Locator;
  using Object = object::Object<typename Traits::ObjectMeta, Locator>;
  template <typename T>
  using Var = object::Var<T, Object>;

  /// The runtime's store: the retention bound is the core's
  /// Config::versions_kept, clamped so at least one version is always kept
  /// (the unsigned bound arithmetic in prune relies on it).
  explicit ObjectStore(runtime::Core& core)
      : core_(core),
        pool_(core.node_pool()),
        stats_(core.stats_domain()),
        kept_(static_cast<std::uint32_t>(
            std::max(core.config().versions_kept, 1))) {}

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Single-threaded teardown: all worker threads must be detached. Retired
  /// versions are freed by the EpochManager's destructor (drain_all) —
  /// disjoint from the live structures destroyed here. The NodePool
  /// outlives both (runtime::Core declares it before the EpochManager, and
  /// the store lives in a class derived from the core), so returning nodes
  /// here is safe. `l` lives inside one of the versions freed here (the
  /// head's `settled` or a tentative's `owned`), so its fields are read
  /// before that version is destroyed.
  ~ObjectStore() {
    for (auto& obj : objects_) {
      Locator* l = obj->loc.load(std::memory_order_relaxed);
      Version* head = l->committed;
      if (l->writer != nullptr) {
        if (l->writer->status(std::memory_order_relaxed) ==
            runtime::TxStatus::kCommitted) {
          head = l->tentative;  // its prev is `committed`
        } else {
          pool_.destroy(-1, l->tentative);
        }
      }
      free_chain_now(head);
    }
  }

  /// Create an object whose initial version holds `initial` and whose
  /// version metadata is brace-initialized from `meta_args`. Callers are
  /// typically not attached to a slot, so the nodes are individually
  /// allocated (cold path) but still pool-tagged for uniform release.
  template <typename... MetaArgs>
  Object* allocate(runtime::Payload* initial, MetaArgs&&... meta_args) {
    // ts/ct = zero-state, vid = 0: the initial state.
    auto* version =
        pool_.create<Version>(-1, initial, std::forward<MetaArgs>(meta_args)...);
    auto obj = std::make_unique<Object>();
    obj->loc.store(&version->settled, std::memory_order_release);
    obj->oid = object_ids_.value.fetch_add(1, std::memory_order_relaxed) + 1;
    obj->tail.store(version, std::memory_order_relaxed);
    Object* raw = obj.get();
    {
      std::lock_guard<std::mutex> lk(objects_mutex_);
      objects_.push_back(std::move(obj));
    }
    return raw;
  }

  /// Visit every object ever allocated by this store (quiescence hooks:
  /// S-STM's descriptor trim settles all locators through here). Holds the
  /// allocation mutex for the duration — callers must be off the hot path.
  template <typename F>
  void for_each_object(F&& fn) {
    std::lock_guard<std::mutex> lk(objects_mutex_);
    for (auto& obj : objects_) fn(*obj);
  }

  template <typename T, typename... MetaArgs>
  Var<T> make_var(T initial, MetaArgs&&... meta_args) {
    Object* o = allocate(new runtime::TypedPayload<T>(std::move(initial)),
                         std::forward<MetaArgs>(meta_args)...);
    return Var<T>(o);
  }

  /// Resolve the logically current committed version of `o`, settling
  /// finished writers' locators along the way. Returns nullptr only in
  /// OnCommitting::kFail mode when a foreign writer is mid-commit.
  /// `self` (may be null) marks the caller's descriptor: an object whose
  /// locator the caller owns resolves to its pre-write committed version.
  Version* resolve(Object& o, const Desc* self, OnCommitting mode, int slot) {
    util::Backoff bo;
    for (;;) {
      Locator* l = o.loc.load(std::memory_order_acquire);
      if (l->writer == nullptr || l->writer == self) return l->committed;
      switch (l->writer->status()) {
        case runtime::TxStatus::kActive:
          // Tentative writes are invisible until the writer commits.
          return l->committed;
        case runtime::TxStatus::kCommitting:
          // Its commit stamp may already be drawn; the pending version
          // could be valid at our snapshot time, so we cannot just take
          // l->committed. Wait out the short commit window (reads) or
          // report the hazard (commit-time validation).
          if (mode == OnCommitting::kFail) return nullptr;
          bo.pause();
          continue;
        case runtime::TxStatus::kCommitted:
        case runtime::TxStatus::kAborted:
          settle(o, l, slot);
          continue;
      }
    }
  }

  /// Clone the current payload into a fresh pooled Version for slot's
  /// thread (the writer's private duplicate). Inline payload when it fits;
  /// type-erased heap clone as fallback.
  template <typename... MetaArgs>
  Version* clone_version(int slot, const runtime::Payload& src,
                         MetaArgs&&... meta_args) {
    return pool_.create<Version>(slot, runtime::ClonePayload{src},
                                 std::forward<MetaArgs>(meta_args)...);
  }

  /// Return a never-published version (failed install, aborted before
  /// install) straight to the pool — no grace period needed.
  void discard_version(int slot, Version* v) { pool_.destroy(slot, v); }

  /// Replace a finished (committed/aborted) writer's locator with the
  /// settled locator of the version that is now current: the tentative one
  /// on commit, the base again on abort. Safe to call concurrently; no-op
  /// if the locator moved on.
  void settle(Object& o, Locator* seen, int slot) {
    if (seen->writer == nullptr) return;
    const runtime::TxStatus st = seen->writer->status();
    if (st != runtime::TxStatus::kCommitted &&
        st != runtime::TxStatus::kAborted) {
      return;
    }
    Version* current = seen->committed;
    if (st == runtime::TxStatus::kCommitted) {
      current = seen->tentative;
      // Forward link for prune's cursor, stored before the CAS that makes
      // `current` the committed head. Every racing settler stores the same
      // value: one committed writer follows each committed version.
      seen->committed->newer.store(current, std::memory_order_relaxed);
    }
    if (fault::poke(fault::Site::kStoreSettleCas) ==
        fault::Effect::kCasFail) {
      return;  // behave exactly like a lost CAS
    }
    Locator* expected = seen;
    if (!o.loc.compare_exchange_strong(expected, &current->settled,
                                       std::memory_order_acq_rel)) {
      return;
    }
    if (st == runtime::TxStatus::kAborted) {
      // The tentative version (which holds `seen`) never became visible;
      // only the settling winner retires it, so it is retired exactly once.
      core_.retire(slot, seen->tentative);
    }
    prune(o, slot);
  }

  /// Release an ownership at transaction finish: settle until the locator
  /// no longer references `writer`. One settle() suffices against real
  /// races (a lost CAS means another thread already replaced the locator),
  /// but the settle-CAS failpoint fails the CAS with the locator left in
  /// place — and the finishing transaction's descriptor is retired (and
  /// pool-reused) right after release, so a locator still pointing at it
  /// would let a later settler read the *reused* descriptor's status and
  /// resurrect a superseded version. The loop, not any single CAS attempt,
  /// is the invariant the retirement relies on.
  void release(Object& o, const Desc* writer, int slot) {
    for (;;) {
      Locator* l = o.loc.load(std::memory_order_acquire);
      if (l->writer != writer) return;
      settle(o, l, slot);
    }
  }

  /// Open-for-write arbitration: loop until `o`'s locator has no foreign
  /// writer, settling finished writers, waiting out kCommitting ones (their
  /// outcome decides our base version; each wait counts kCmWaits) and
  /// aborting an active one (counted in kCmKills). That is DSTM's
  /// Aggressive contention manager, the one rule every object runtime
  /// uses (DESIGN.md §1). Returns the locator (writer null or `self`), or
  /// nullptr when failpoint `site` (the caller's own acquire site) injected
  /// an abort. Loads are seq_cst: Z-STM's long transactions pair them with
  /// their zone claims (DESIGN.md §5.1, §5.4). Always inlined: GCC 12
  /// otherwise calls one out-of-line copy from zl's long read and write,
  /// and zl's long transactions ran slower (DESIGN.md §1.2).
  [[gnu::always_inline]] Locator* acquire(Object& o, Desc* self, int slot,
                                          fault::Site site) {
    util::Backoff bo;
    for (;;) {
      if (fault::poke(site) == fault::Effect::kAbort) return nullptr;
      Locator* l = o.loc.load(std::memory_order_seq_cst);
      Desc* owner = l->writer;
      if (owner == nullptr || owner == self) return l;
      switch (owner->status(std::memory_order_seq_cst)) {
        case runtime::TxStatus::kActive:
          // A lost CAS means the owner began committing: look again.
          if (owner->abort_by_enemy()) {
            stats_.add(slot, util::Counter::kCmKills);
            settle(o, l, slot);
          }
          continue;
        case runtime::TxStatus::kCommitting:
          stats_.add(slot, util::Counter::kCmWaits);
          bo.pause();
          continue;
        case runtime::TxStatus::kCommitted:
        case runtime::TxStatus::kAborted:
          settle(o, l, slot);
          continue;
      }
    }
  }

  /// Open `o` for writing (DSTM-style, Algorithm 1 lines 10-14): acquire,
  /// then `clone(base)` — the runtime's pre-write hook on the settled head
  /// — returns the private duplicate to install, or nullptr to look again
  /// (lsa after a snapshot extension); it may also throw to abort. A lost
  /// install CAS discards the duplicate and retries. Returns the installed
  /// tentative version, counting kWrites, or nullptr when acquire said
  /// abort (nothing cloned).
  template <typename Clone>
  Version* open_for_write(Object& o, Desc* self, int slot, fault::Site site,
                          Clone&& clone) {
    for (;;) {
      Locator* l = acquire(o, self, slot, site);
      if (l == nullptr) return nullptr;
      Version* tentative = clone(l->committed);
      if (tentative == nullptr) continue;
      if (install(o, l, self, tentative)) {
        stats_.add(slot, util::Counter::kWrites);
        return tentative;
      }
      discard_version(slot, tentative);
    }
  }

  /// Take write ownership: link `tentative` after `seen->committed`,
  /// number it one past that base, write `{writer, tentative, base}` into
  /// its owned locator and CAS that over `seen`. Precondition: `seen` is a
  /// settled locator (writer null), i.e. the current head's own `settled` —
  /// open_for_write installs only over what acquire returned, so nothing is
  /// superseded that needs retiring. On failure the caller still owns
  /// `tentative`. seq_cst: the Dekker pair with Z-STM's zone claims
  /// (DESIGN.md §5.1).
  bool install(Object& o, Locator* seen, Desc* writer, Version* tentative) {
    Version* base = seen->committed;
    tentative->prev.store(base, std::memory_order_relaxed);
    tentative->seq = base->seq + 1;
    tentative->owned = Locator{writer, tentative, base};
    if (fault::poke(fault::Site::kStoreInstallCas) ==
        fault::Effect::kCasFail) {
      return false;  // behave exactly like a lost CAS
    }
    Locator* expected = seen;
    return o.loc.compare_exchange_strong(expected, &tentative->owned,
                                         std::memory_order_seq_cst);
  }

  /// Bound the committed chain at the store's retention bound: while the
  /// tail cursor is `kept_bound()` or more versions behind the head,
  /// advance it one version, sever the link to the old tail and retire it.
  /// The cursor CAS hands each old tail to exactly one pruner (DESIGN.md
  /// §7, "Pruning").
  void prune(Object& o, int slot) {
    const Version* head = o.loc.load(std::memory_order_acquire)->committed;
    Version* tail = o.tail.load(std::memory_order_acquire);
    while (tail->seq + kept_ <= head->seq) {
      Version* next = tail->newer.load(std::memory_order_acquire);
      if (!o.tail.compare_exchange_weak(tail, next,
                                        std::memory_order_acq_rel)) {
        continue;  // another pruner moved the cursor; `tail` is reloaded
      }
      // seq_cst: orders the sever before retire's epoch sample, so a reader
      // that pins in a later epoch cannot still step onto `tail`.
      next->prev.store(nullptr, std::memory_order_seq_cst);
      core_.retire(slot, tail);
      tail = next;
    }
  }

  /// Walk newest-first from `cur` to the immediate successor of `read`.
  /// Returns nullptr when `read` is no longer on the chain (pruned) — the
  /// caller cannot bound the read version's validity and must abort
  /// conservatively.
  static Version* successor_of(Version* cur, const Version* read) {
    Version* succ = cur;
    Version* below = succ->prev.load(std::memory_order_acquire);
    while (below != nullptr && below != read) {
      succ = below;
      below = succ->prev.load(std::memory_order_acquire);
    }
    return below == nullptr ? nullptr : succ;
  }

  /// Committed versions every object keeps: max(versions_kept, 1).
  std::uint32_t kept_bound() const { return kept_; }

 private:
  void free_chain_now(Version* v) {
    while (v != nullptr) {
      Version* p = v->prev.load(std::memory_order_relaxed);
      pool_.destroy(-1, v);
      v = p;
    }
  }

  runtime::Core& core_;
  NodePool& pool_;
  util::StatsDomain& stats_;
  const std::uint32_t kept_;
  util::PaddedCounter object_ids_;
  std::mutex objects_mutex_;
  std::deque<std::unique_ptr<Object>> objects_;
};

}  // namespace zstm::object
