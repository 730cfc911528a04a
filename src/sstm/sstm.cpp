#include "sstm/sstm.hpp"

#include <algorithm>
#include <cassert>
#include <thread>
#include <utility>

#include "cs/cs.hpp"
#include "fault/failpoint.hpp"
#include "util/backoff.hpp"

namespace zstm::sstm {

namespace {

/// Reopens a closed trim gate when it goes out of scope, also when the trim
/// throws (a failed allocation), so no begin waits at a gate nobody holds.
struct GateHold {
  std::atomic<bool>& closed;
  ~GateHold() { closed.store(false, std::memory_order_release); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg)
    : Core(cfg), domain_(cfg.max_threads, cfg.max_threads), store_(*this) {}

// The store tears down the live objects; runtime-retained descriptors are
// freed with descs_.
Runtime::~Runtime() = default;

void Runtime::enter(int slot, util::EpochManager::Guard& guard) {
  if (descriptor_count() >= gate_.next_trim.load(std::memory_order_relaxed) &&
      close_gate()) {
    // The one reclamation trigger (DESIGN.md §11.5). The closed gate keeps
    // every other begin out, so the attempts in flight drain. The wait is
    // bounded: this thread may hold an open attempt on another of its
    // contexts on this runtime. A drain that times out is retried a
    // watermark's worth of begins later.
    std::vector<TxDesc*> trimmed;
    {
      const GateHold hold{gate_.closed};
      for (int i = 0; i < util::EpochManager::kReclaimYields && !quiescent();
           ++i) {
        std::this_thread::yield();
      }
      trimmed = trim_closed();
      gate_.next_trim.store(descriptor_count() + kTrimWatermark,
                            std::memory_order_relaxed);
    }
    for (TxDesc* d : trimmed) pool_.destroy(slot, d);
  }
  // The beginner's half of a Dekker pair with close_gate: pin (a seq_cst
  // store), then load the gate (seq_cst). Either this load sees the gate
  // closed, or the trimmer's scan sees the pin.
  util::Backoff bo;
  for (;;) {
    guard = epochs_.pin_guard(slot);
    if (!gate_.closed.load(std::memory_order_seq_cst)) return;
    guard = util::EpochManager::Guard();
    while (gate_.closed.load(std::memory_order_acquire)) bo.pause();
  }
}

TxDesc* Runtime::register_desc(int slot) {
  TxDesc* d = pool_.create<TxDesc>(
      slot, next_tx_id(slot), slot,
      domain_.zero_in(pool_.enabled() ? &pool_ : nullptr, slot));
  try {
    descs_.retained[static_cast<std::size_t>(slot)].value.push_back(d);
  } catch (...) {
    pool_.destroy(slot, d);
    throw;
  }
  retained_count_.value.fetch_add(1, std::memory_order_relaxed);
  return d;
}

// The trimmer's half of the Dekker pair (see enter): the seq_cst exchange
// here, then quiescent()'s seq_cst loads of the pins.
bool Runtime::close_gate() {
  return !gate_.closed.exchange(true, std::memory_order_seq_cst);
}

std::size_t Runtime::trim_descriptors() {
  if (!close_gate()) return 0;
  std::vector<TxDesc*> trimmed;
  {
    const GateHold hold{gate_.closed};
    trimmed = trim_closed();
  }
  for (TxDesc* d : trimmed) pool_.destroy(-1, d);
  return trimmed.size();
}

bool Runtime::quiescent() const {
  for (int s = 0; s < cfg_.max_threads; ++s) {
    if (epochs_.pinned(s)) return false;
  }
  return true;
}

std::vector<TxDesc*> Runtime::trim_closed() {
  if (!quiescent()) return {};
  fault::poke(fault::Site::kSstmTrim);  // delay-only site

  // Fold every reader-list reference into per-version stamps. At
  // quiescence a committed reader's predecessor closure is all-final, so
  // its whole constraint reduces to a stamp merge (exactly
  // note_predecessor's committed case); aborted readers carry none.
  // Folding readers and past readers into one stamp is conservative for
  // future *readers* of the version (they inherit reader-vs-reader
  // constraints that never existed), which can only inflate timestamps and
  // cause false aborts — never admit a non-serializable history. No commit
  // runs meanwhile: every commit happens inside a pinned attempt.
  std::vector<TxDesc*> work;
  std::vector<TxDesc*> visited;
  auto fold_into = [&](timebase::VcStamp& folded, TxDesc* r) {
    work.clear();
    visited.clear();
    work.push_back(r);
    while (!work.empty()) {
      TxDesc* cur = work.back();
      work.pop_back();
      bool seen = false;
      for (TxDesc* q : visited) seen |= (q == cur);
      if (seen) continue;
      visited.push_back(cur);
      if (cur->status() != runtime::TxStatus::kCommitted) continue;
      if (folded.dimension() == 0) {
        folded = cur->ct;
      } else {
        folded.merge(cur->ct);
      }
      // No lock or copy: only a live transaction adds to its preds.
      for (TxDesc* q : cur->preds) work.push_back(q);
    }
  };
  store_.for_each_object([&](Object& o) {
    // No locator names a writer: each attempt's release settled its own
    // locators before finish_attempt unpinned it (DESIGN.md §11.5).
    const Locator* l = o.loc.load(std::memory_order_acquire);
    assert(l->writer == nullptr);
    for (Version* v = l->committed; v != nullptr;
         v = v->prev.load(std::memory_order_acquire)) {
      for (TxDesc* r : v->readers) fold_into(v->folded, r);
      for (TxDesc* pr : v->past_readers) fold_into(v->folded, pr);
      v->readers.clear();
      v->readers.shrink_to_fit();
      v->past_readers.clear();
      v->past_readers.shrink_to_fit();
    }
  });

  // Nothing reaches the descriptors now. Each slot keeps its list's
  // capacity; the caller frees the descriptors after it reopens the gate.
  std::vector<TxDesc*> trimmed;
  trimmed.reserve(descriptor_count());
  for (auto& list : descs_.retained) {
    trimmed.insert(trimmed.end(), list.value.begin(), list.value.end());
    list.value.clear();
  }
  retained_count_.value.store(0, std::memory_order_relaxed);
  return trimmed;
}

std::unique_ptr<ThreadCtx> Runtime::attach() {
  return std::unique_ptr<ThreadCtx>(new ThreadCtx(*this, registry_.attach()));
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

ThreadCtx::ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg)
    : rt_(rt), reg_(std::move(reg)), tx_(*this), vcp_(rt.domain_.zero()) {}

ThreadCtx::~ThreadCtx() {
  if (in_transaction()) abort_attempt();
}

Tx& ThreadCtx::begin(TxKind) {
  if (in_transaction()) abort_attempt();
  rt_.enter(slot(), epoch_guard_);
  try {
    tx_.desc_ = rt_.register_desc(slot());
  } catch (...) {
    epoch_guard_ = util::EpochManager::Guard();
    throw;
  }
  tx_.desc_->ct = vcp_;  // T.ct starts from the thread's last committed stamp
  tx_.read_set_.clear();
  tx_.write_set_.clear();
  if (rt_.recorder_.enabled()) {
    tx_.rec_ = history::TxRecord{};
    tx_.rec_.tx_id = tx_.desc_->id();
    tx_.rec_.thread_slot = slot();
    tx_.rec_.begin_seq = rt_.recorder_.tick();
  }
  return tx_;
}

void ThreadCtx::release_ownerships() {
  for (auto& w : tx_.write_set_) {
    rt_.store_.release(*w.obj, tx_.desc_, slot());
  }
}

void ThreadCtx::finish_attempt(bool committed) {
  if (rt_.recorder_.enabled()) {
    tx_.rec_.committed = committed;
    tx_.rec_.end_seq = rt_.recorder_.tick();
    if (committed) {
      tx_.rec_.stamp.assign(tx_.desc_->ct.begin(), tx_.desc_->ct.end());
    }
    rt_.recorder_.record(slot(), std::move(tx_.rec_));
  }
  tx_.desc_ = nullptr;  // retained until a quiescent trim, not freed here
  epoch_guard_ = util::EpochManager::Guard();
}

void ThreadCtx::abort_attempt() {
  tx_.desc_->finish_abort();
  release_ownerships();
  rt_.stats_.add(slot(), util::Counter::kAborts);
  finish_attempt(false);
}

void ThreadCtx::commit() {
  Tx& tx = tx_;
  TxDesc* d = tx.desc_;
  const int s = slot();

  if (!d->begin_commit()) {
    abort_attempt();
    throw TxAborted{};
  }

  {
    std::lock_guard<util::SpinLock> commit_lock(rt_.commit_lock_.value);

    // Anti-dependencies: scan the visible readers of every version we are
    // superseding. Committed readers order themselves before us via
    // timestamp merge; live readers become predecessor edges and are
    // carried on the new version as its past readers.
    for (auto& w : tx.write_set_) {
      Version* base = w.tentative->prev.load(std::memory_order_relaxed);
      {
        std::lock_guard<util::SpinLock> lk(base->readers_lock);
        auto& rs = base->readers;
        tx.readers_.assign(rs.begin(), rs.end());
        // Drop only *aborted* readers here. Committed readers must stay on
        // the list until a successor commit actually captures their stamp:
        // if we compacted them now and then failed validation, the next
        // writer of this version would never merge their timestamps and
        // could commit a non-serializable anti-dependency cycle.
        rs.erase(std::remove_if(rs.begin(), rs.end(),
                                [](TxDesc* r) {
                                  return r->status() ==
                                         runtime::TxStatus::kAborted;
                                }),
                 rs.end());
      }
      // Readers of the superseded version must precede us; the version's
      // carried past readers too (§4.2: "information about past readers is
      // carried along causal chains"). note_predecessor folds committed
      // ones (and their pending constraints, transitively) into our stamp
      // and records live ones as predecessor edges.
      for (TxDesc* r : tx.readers_) tx.note_predecessor(r);
      for (TxDesc* pr : base->past_readers) tx.note_predecessor(pr);
      // Readers freed by a quiescent trim live on as the version's folded
      // stamp (see absorb_past_readers for the dimension guard).
      if (base->folded.dimension() != 0) d->ct.merge(base->folded);
    }

    // Re-process predecessors recorded earlier (at open time): any that
    // committed meanwhile fold into the timestamp now.
    d->copy_preds_into(tx.preds_);
    for (TxDesc* p : tx.preds_) tx.note_predecessor(p);

    // CS-STM validation (Algorithm 1, lines 20-26) on the merged stamp.
    if (!cs::validate(rt_.store_, tx.read_set_, d, rt_.stats_, s)) {
      rt_.stats_.add(s, util::Counter::kValidationFails);
      abort_attempt();
      throw TxAborted{};
    }

    // Precedence-cycle check among live transactions: if any live
    // predecessor transitively requires *us* before *it*, the two orders
    // are contradictory — "a conflict occurs if we detect a cycle". The
    // first committer wins: kill the still-active cycle partner, falling
    // back to self-abort if it is already mid-commit.
    d->copy_preds_into(tx.preds_);
    for (TxDesc* p : tx.preds_) {
      const auto st = p->status();
      if (st != runtime::TxStatus::kActive &&
          st != runtime::TxStatus::kCommitting) {
        continue;
      }
      if (p != d && tx.reaches(p, d)) {
        if (p->abort_by_enemy()) {
          rt_.stats_.add(s, util::Counter::kCmKills);
          continue;  // the edge through p is now dead
        }
        rt_.stats_.add(s, util::Counter::kValidationFails);
        abort_attempt();
        throw TxAborted{};
      }
    }

    if (rt_.recorder_.enabled()) {
      tx.rec_.vstamp.assign(d->ct.begin(), d->ct.end());  // pre-advance stamp
    }
    if (!tx.write_set_.empty()) {
      rt_.domain_.advance(s, d->ct);
      // Every ordering obligation we still carry against live transactions
      // travels on the published versions as their past-readers list, so
      // later accessors inherit it (whether those transactions end up
      // committing before or after us).
      d->copy_preds_into(tx.preds_);
      std::erase_if(tx.preds_, [](TxDesc* p) {
        const auto st = p->status();
        return st != runtime::TxStatus::kActive &&
               st != runtime::TxStatus::kCommitting;
      });
      for (auto& w : tx.write_set_) {
        w.tentative->ct = d->ct;
        w.tentative->past_readers = tx.preds_;  // the live predecessors
        if (rt_.recorder_.enabled()) {
          const Version* base = w.tentative->prev.load(std::memory_order_relaxed);
          tx.rec_.writes.push_back({w.obj->oid, w.tentative->vid, base->vid});
        }
      }
      // The commit is now certain: every committed reader of the versions
      // we supersede has been folded into our stamp, so their list entries
      // are no longer needed (their constraint travels with the new
      // version's timestamp from here on).
      for (auto& w : tx.write_set_) {
        Version* base = w.tentative->prev.load(std::memory_order_relaxed);
        std::lock_guard<util::SpinLock> lk(base->readers_lock);
        auto& rs = base->readers;
        rs.erase(std::remove_if(rs.begin(), rs.end(),
                                [](TxDesc* r) {
                                  const auto st = r->status();
                                  return st == runtime::TxStatus::kCommitted ||
                                         st == runtime::TxStatus::kAborted;
                                }),
                 rs.end());
      }
    }
    d->finish_commit();
    for (auto& w : tx.write_set_) {
      rt_.store_.release(*w.obj, d, s);
    }
  }

  vcp_ = d->ct;
  rt_.stats_.add(s, util::Counter::kCommits);
  finish_attempt(true);
}

// ---------------------------------------------------------------------------
// Tx
// ---------------------------------------------------------------------------

void Tx::abort() {
  ctx_.abort_attempt();
  throw TxAborted{};
}

void Tx::note_predecessor(TxDesc* p) {
  if (p == desc_) return;
  // Worklist over committed transactions: absorbing a committed
  // predecessor means taking its stamp AND inheriting every ordering
  // constraint it was still carrying (predecessors that were live when it
  // committed). Without the transitive part, a chain
  //   R (live) ≺ W1 (committed) ≺ W2 (committed) ≺ us
  // would lose the "R before us" obligation and admit a cycle once R
  // commits.
  work_.assign(1, p);
  visited_.clear();
  while (!work_.empty()) {
    TxDesc* cur = work_.back();
    work_.pop_back();
    if (cur == desc_) continue;
    bool seen = false;
    for (TxDesc* q : visited_) seen |= (q == cur);
    if (seen) continue;
    visited_.push_back(cur);
    switch (cur->status()) {
      case runtime::TxStatus::kAborted:
        break;
      case runtime::TxStatus::kCommitted:
        // "Make sure that the new version ... has a timestamp strictly
        // greater than that of the committed reading transaction."
        desc_->ct.merge(cur->ct);
        cur->append_preds_to(work_);
        break;
      default:
        desc_->add_pred(cur);
        break;
    }
  }
}

bool Tx::reaches(TxDesc* from, const TxDesc* target) {
  // Iterative search with an explicit visited set: predecessor graphs can
  // contain cycles (that is exactly what this function detects), and a
  // depth-bounded DFS without memoization goes exponential on them — while
  // holding the commit lock. Linear-scan membership is fine: the live
  // transaction population is bounded by the thread count.
  work_.assign(1, from);
  visited_.clear();
  while (!work_.empty()) {
    TxDesc* cur = work_.back();
    work_.pop_back();
    if (cur == target) return true;
    bool seen = false;
    for (const TxDesc* q : visited_) seen |= (q == cur);
    if (seen) continue;
    visited_.push_back(cur);
    if (static_cast<int>(visited_.size()) > Runtime::kCycleSearchCap) {
      return true;
    }
    // Only live transactions are expanded: a committed predecessor's
    // ordering constraints were folded into timestamps by the merge rules.
    const runtime::TxStatus st = cur->status();
    if (st != runtime::TxStatus::kActive &&
        st != runtime::TxStatus::kCommitting) {
      continue;
    }
    cur->append_preds_to(work_);
  }
  return false;
}

void Tx::absorb_past_readers(Version* v) {
  // Stamps folded by a quiescent trim stand in for freed readers'
  // descriptors (dimension 0 = no trim has touched this version; merge
  // indexes `other` by our dimension, so the guard is load-bearing).
  if (v->folded.dimension() != 0) desc_->ct.merge(v->folded);
  for (TxDesc* pr : v->past_readers) note_predecessor(pr);
}

const runtime::Payload& Tx::read_object(Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return *w.tentative->data;
  }
  for (auto& r : read_set_) {
    if (r.obj == &o) return *r.version->data;  // repeat read: same version
  }
  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();
  rt.stats_.add(s, util::Counter::kReads);

  for (;;) {
    Version* v = rt.store_.resolve(o, desc_, OnCommitting::kWait, s);
    desc_->ct.merge(v->ct);
    absorb_past_readers(v);
    {
      std::lock_guard<util::SpinLock> lk(v->readers_lock);
      v->readers.push_back(desc_);
    }
    // Visibility handshake: a writer that scanned v's readers before our
    // insertion must have published a successor by now; re-checking the
    // current version guarantees either the writer saw us or we see its
    // version and retry.
    Version* recheck = rt.store_.resolve(o, desc_, OnCommitting::kWait, s);
    if (recheck == v) {
      read_set_.push_back({&o, v});
      if (rt.recorder_.enabled()) rec_.reads.push_back({o.oid, v->vid});
      return *v->data;
    }
    std::lock_guard<util::SpinLock> lk(v->readers_lock);
    auto& rs = v->readers;
    rs.erase(std::remove(rs.begin(), rs.end(), desc_), rs.end());
  }
}

runtime::Payload& Tx::write_object(Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return *w.tentative->data;
  }
  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();

  Version* tent = rt.store_.open_for_write(
      o, desc_, s, fault::Site::kSstmAcquire, [&](Version* base) {
        desc_->ct.merge(base->ct);
        absorb_past_readers(base);
        // Pool-backed stamp storage, mirroring cs.hpp: keeps the update
        // path free of hidden per-commit heap mallocs.
        return rt.store_.clone_version(
            s, *base->data,
            rt.domain_.zero_in(rt.pool_.enabled() ? &rt.pool_ : nullptr, s));
      });
  if (tent == nullptr) abort();
  if (rt.recorder_.enabled()) tent->vid = rt.recorder_.new_version_id();
  write_set_.push_back({&o, tent});
  return *tent->data;
}

}  // namespace zstm::sstm
