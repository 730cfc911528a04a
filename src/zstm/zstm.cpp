#include "zstm/zstm.hpp"

#include "fault/failpoint.hpp"

namespace zstm::zl {

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg)
    : lsa_(cfg), lzc_(static_cast<std::size_t>(cfg.max_threads)) {}

std::unique_ptr<ThreadCtx> Runtime::attach() {
  return std::unique_ptr<ThreadCtx>(new ThreadCtx(*this, lsa_.attach()));
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

ThreadCtx::ThreadCtx(Runtime& rt, std::unique_ptr<lsa::ThreadCtx> inner)
    : rt_(rt), inner_(std::move(inner)), short_tx_(*this), long_tx_(*this) {}

ThreadCtx::~ThreadCtx() {
  if (long_tx_.desc_ != nullptr) abort_long_attempt();
}

std::uint64_t ThreadCtx::last_zone_committed() const {
  return rt_.lzc(inner_->slot());
}

// --- short transactions ----------------------------------------------------

ShortTx& ThreadCtx::begin_short(bool read_only) {
  long_begun_ = false;
  short_tx_.inner_ =
      &inner_->begin(read_only ? TxKind::kReadOnly : TxKind::kUpdate);
  short_tx_.zc_ = 0;
  short_tx_.first_open_pending_ = true;  // Startshort: T.zc ← 0 (line 2)
  return short_tx_;
}

void ThreadCtx::commit_short() {
  // Record the zone before CommitLSA so the history carries it, and stamp
  // it onto published versions so long transactions can recognize commits
  // from their own zone (see LongTx::read_object).
  short_tx_.inner_->set_history_zone(short_tx_.zc_);
  short_tx_.inner_->set_publish_zone(short_tx_.zc_);
  inner_->commit(&short_tx_);  // throws TxAborted on validation failure
  // Commitshort lines 27-28: remember the zone we committed in.
  if (!short_tx_.first_open_pending_) {
    rt_.set_lzc(inner_->slot(), short_tx_.zc_);
  }
}

void ShortTx::check_zone(lsa::Object& o) {
  Runtime& rt = ctx_.rt_;
  lsa::Runtime& sub = rt.lsa_;
  const int s = ctx_.slot();

  const std::uint64_t ozc = o.zc.load(std::memory_order_acquire);
  if (first_open_pending_) {
    // Openshort lines 6-15: the first object determines the zone.
    const std::uint64_t lzc = rt.lzc(s);
    if (ozc < lzc) {
      // The object belongs to an older zone than the last one this thread
      // committed in.
      if (lzc > rt.commit_time()) {
        // That zone's long transaction may still be active: committing
        // here would cross it backwards (violates property 4) — abort.
        sub.stats_domain().add(s, util::Counter::kZoneConflicts);
        inner_->abort();
      }
      join_zone(rt.commit_time());  // line 11
    } else {
      join_zone(ozc);  // line 14
    }
    first_open_pending_ = false;
    return;
  }

  if (zc_ == ozc) return;  // same zone: proceed (line 16 false)

  // Lines 17-21: different zones. Both in the past: serialize at the
  // current commit time (line 20).
  if (try_slide(ozc, rt.commit_time())) return;
  // conflict(T, oi.zc): the paper's contention manager "would typically
  // abort T", and so do we.
  sub.stats_domain().add(s, util::Counter::kZoneConflicts);
  inner_->abort();
}

bool ShortTx::try_slide(std::uint64_t other, std::uint64_t ct) {
  if (zc_ > ct || other > ct) return false;
  // Already at CT, we pass no long transaction, so our reads need no check
  // (DESIGN.md §5.5).
  if (zc_ < ct && !inner_->reads_still_current()) return false;
  join_zone(ct);
  return true;
}

void ShortTx::join_zone(std::uint64_t z) {
  zc_ = z;
  if (z != 0) inner_->forbid_past_reads();
}

void ShortTx::verify_zone(lsa::Object& o) {
  // After a write: a seq_cst load after our seq_cst locator install
  // (ObjectStore::install), pairing with LongTx::claim_zone +
  // ObjectStore::acquire (DESIGN.md §5.1). After a read: a version written
  // in a long transaction's zone was published after that long one's
  // claim, so having read it we see the claim here (§5.5).
  if (!zone_holds(o)) inner_->abort();
}

bool ShortTx::admit(const std::vector<lsa::WriteEntry>& writes) {
  // We are kCommitting (seq_cst CAS) and nothing is published yet. A long
  // transaction stores o.zc and then loads its writer's status (seq_cst):
  // either it sees kCommitting and waits us out, so our writes serialize
  // before it, or we see its claim here (DESIGN.md §5.4).
  for (const auto& w : writes) {
    if (!zone_holds(*w.obj)) return false;
  }
  // A slide moved zc_: publish and record the zone we now commit in.
  inner_->set_history_zone(zc_);
  inner_->set_publish_zone(zc_);
  return true;
}

bool ShortTx::zone_holds(lsa::Object& o) {
  Runtime& rt = ctx_.rt_;
  const std::uint64_t ozc = o.zc.load(std::memory_order_seq_cst);
  if (ozc == zc_) return true;
  // A long transaction claimed this object after our zone check. If every
  // involved zone is already committed we can slide to the current commit
  // time (Algorithm 3 line 20 semantics); otherwise we must not keep a
  // write the long transaction may have already read past, nor a read of
  // its zone's writes.
  if (try_slide(ozc, rt.commit_time())) return true;
  rt.lsa_.stats_domain().add(ctx_.slot(), util::Counter::kZoneConflicts);
  return false;
}

// --- long transactions -------------------------------------------------------

LongTx& ThreadCtx::begin_long() {
  // A previous attempt abandoned mid-body (foreign exception escaping the
  // user code) must be aborted first, like every short-transaction begin()
  // does — otherwise its still-active descriptor and installed locators
  // leak (the run-entry-point contract in api/stm_api.hpp).
  if (long_tx_.desc_ != nullptr) abort_long_attempt();
  long_begun_ = true;
  LongTx& tx = long_tx_;
  lsa::Runtime& sub = rt_.lsa_;
  const int s = slot();
  const std::uint64_t id = sub.next_tx_id(s);
  tx.desc_ = sub.node_pool().create<lsa::TxDesc>(s, id, s,
                                                 runtime::TxClass::kLong);
  long_epoch_guard_ = sub.epochs().pin_guard(s);
  // Startlong line 3: T.zc ← ++ZC — a fresh, unique zone number.
  tx.zc_ = rt_.zc_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
  tx.zone_claimed_ = false;
  tx.write_set_.clear();
  if (sub.recorder().enabled()) {
    tx.rec_ = history::TxRecord{};
    tx.rec_.tx_id = tx.desc_->id();
    tx.rec_.thread_slot = s;
    tx.rec_.tx_class = runtime::TxClass::kLong;
    tx.rec_.zone = tx.zc_;
    tx.rec_.begin_seq = sub.recorder().tick();
  }
  return tx;
}

void ThreadCtx::release_long_ownerships() {
  for (auto& w : long_tx_.write_set_) {
    rt_.lsa_.store().release(*w.obj, long_tx_.desc_, slot());
  }
}

void ThreadCtx::finish_long_attempt(bool committed) {
  lsa::Runtime& sub = rt_.lsa_;
  if (sub.recorder().enabled()) {
    long_tx_.rec_.committed = committed;
    long_tx_.rec_.end_seq = sub.recorder().tick();
    sub.recorder().record(slot(), std::move(long_tx_.rec_));
  }
  sub.retire(slot(), long_tx_.desc_);
  long_tx_.desc_ = nullptr;
  long_epoch_guard_ = util::EpochManager::Guard();
}

void ThreadCtx::abort_long_attempt() {
  long_tx_.desc_->finish_abort();
  release_long_ownerships();
  if (long_tx_.zone_claimed_) {
    // Retire the claimed zone as a committed no-op. Objects we opened keep
    // o.zc = T.zc forever, and short transactions treat every zone in
    // (CT, ZC] as active — without this bump a dead long transaction's
    // zone stays active until some *other* long transaction commits past
    // it, livelocking any short transaction that crosses it. Aborting is
    // equivalent to committing the empty transaction at our slot in zone
    // order, and CT ← max(CT, T.zc) imposes on older in-flight long
    // transactions exactly the penalty an overtaking commit already does
    // (Commitlong's "the one whose zone number was overtaken aborts").
    std::uint64_t cur = rt_.ct_.value.load(std::memory_order_acquire);
    while (cur < long_tx_.zc_ &&
           !rt_.ct_.value.compare_exchange_weak(cur, long_tx_.zc_,
                                                std::memory_order_acq_rel)) {
    }
  }
  rt_.lsa_.stats_domain().add(slot(), util::Counter::kAborts);
  rt_.lsa_.stats_domain().add(slot(), util::Counter::kLongAborts);
  finish_long_attempt(false);
}

void ThreadCtx::commit_long() {
  LongTx& tx = long_tx_;
  lsa::TxDesc* d = tx.desc_;
  lsa::Runtime& sub = rt_.lsa_;
  const int s = slot();

  if (!d->begin_commit()) {  // an enemy aborted us (Commitlong line 24's state check)
    abort_long_attempt();
    throw TxAborted{};
  }

  // Commitlong lines 24-26: commit iff T.zc > CT, then CT ← T.zc. The
  // max-CAS makes check-and-set atomic, so two racing long transactions
  // resolve their order exactly once; the one whose zone number was
  // overtaken aborts ("long transactions need to commit in the order of
  // their unique timestamps").
  std::uint64_t cur = rt_.ct_.value.load(std::memory_order_acquire);
  for (;;) {
    if (cur >= tx.zc_) {
      rt_.lsa_.stats_domain().add(s, util::Counter::kZonePassed);
      abort_long_attempt();
      throw TxAborted{};
    }
    if (rt_.ct_.value.compare_exchange_weak(cur, tx.zc_,
                                            std::memory_order_acq_rel)) {
      break;
    }
  }

  // Give the published versions an LSA timestamp so short transactions'
  // snapshots order correctly against them. No validation happens here —
  // that is Z-STM's point: "long transactions can commit with a very
  // simple and efficient validation test".
  std::uint64_t floor = 0;
  for (const auto& w : tx.write_set_) {
    const lsa::Version* base = w.tentative->prev.load(std::memory_order_relaxed);
    if (base->ts > floor) floor = base->ts;
  }
  const std::uint64_t ct = sub.time_base().acquire_commit_stamp(s, floor);
  sub.time_base().wait_until_safe(s, ct);

  for (auto& w : tx.write_set_) {
    w.tentative->ts = ct;
    w.tentative->zone = tx.zc_;
    if (sub.recorder().enabled()) {
      const lsa::Version* base =
          w.tentative->prev.load(std::memory_order_relaxed);
      tx.rec_.writes.push_back({w.obj->oid, w.tentative->vid, base->vid});
    }
  }
  d->commit_ts = ct;
  d->finish_commit();  // the single CAS/store that publishes everything
  for (auto& w : tx.write_set_) {
    sub.store().release(*w.obj, d, s);
  }

  rt_.set_lzc(s, tx.zc_);  // line 27: LZCp ← T.zc
  sub.stats_domain().add(s, util::Counter::kCommits);
  sub.stats_domain().add(s, util::Counter::kLongCommits);
  finish_long_attempt(true);
}

// ---------------------------------------------------------------------------
// LongTx
// ---------------------------------------------------------------------------

void LongTx::abort() {
  ctx_.abort_long_attempt();
  throw TxAborted{};
}

void LongTx::claim_zone(lsa::Object& o) {
  // seq_cst: this store and the subsequent locator load in
  // ObjectStore::acquire form one half of a Dekker pair with short
  // transactions' locator-install + zone-re-check (ShortTx::
  // verify_zone). At least one side must observe the other or
  // a short could commit writes that straddle our snapshot frontier.
  std::uint64_t cur = o.zc.load(std::memory_order_seq_cst);
  for (;;) {
    if (cur == zc_) return;  // we already claimed this object
    if (cur > zc_) {
      // Openlong lines 19-20: a long transaction with a higher zone number
      // beat us to the object — we were passed and must abort.
      ctx_.rt_.lsa_.stats_domain().add(ctx_.slot(),
                                       util::Counter::kZonePassed);
      abort();
    }
    if (o.zc.compare_exchange_weak(cur, zc_, std::memory_order_seq_cst)) {
      zone_claimed_ = true;
      return;  // line 7: oi.zc ← T.zc
    }
  }
}

lsa::WriteEntry* LongTx::find_write(const lsa::Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return &w;
  }
  return nullptr;
}

const runtime::Payload& LongTx::read_object(lsa::Object& o) {
  if (lsa::WriteEntry* we = find_write(o)) return *we->tentative->data;
  lsa::Runtime& sub = ctx_.rt_.lsa_;
  const int s = ctx_.slot();
  sub.stats_domain().add(s, util::Counter::kReads);

  claim_zone(o);
  // Openlong lines 8-11: arbitrate away any current writer. A long
  // transaction must not leave active writers behind on objects it reads —
  // a short transaction that already owns the object could otherwise commit
  // writes serialized both before and after us. The store's seq_cst loads
  // are the second half of the Dekker pairs started in claim_zone, with a
  // short's install (DESIGN.md §5.1) and with its commit (§5.4).
  lsa::Locator* l = sub.store().acquire(o, desc_, s, fault::Site::kZlAcquire);
  if (l == nullptr) abort();
  // The paper's Openlong is one atomic step; in our implementation a short
  // transaction can adopt our zone (it read o.zc after our claim), commit
  // a write to o, and only then do we load the version — returning state
  // that is serialized *after* us. Versions carry their writer's zone, so
  // the pre-claim state is the newest version not from our own zone.
  lsa::Version* v = l->committed;
  while (v != nullptr && v->zone == zc_) {
    v = v->prev.load(std::memory_order_acquire);
  }
  if (v == nullptr || v->zone > zc_) {
    // Pruned underneath us, or a later long transaction's write is already
    // current: we cannot recover a consistent pre-claim state.
    sub.stats_domain().add(s, v == nullptr ? util::Counter::kVersionPruned
                                           : util::Counter::kZonePassed);
    abort();
  }
  if (sub.recorder().enabled()) rec_.reads.push_back({o.oid, v->vid});
  return *v->data;
}

runtime::Payload& LongTx::write_object(lsa::Object& o) {
  if (lsa::WriteEntry* we = find_write(o)) return *we->tentative->data;
  lsa::Runtime& sub = ctx_.rt_.lsa_;
  const int s = ctx_.slot();

  claim_zone(o);
  lsa::Version* tent = sub.store().open_for_write(
      o, desc_, s, fault::Site::kZlAcquire, [&](lsa::Version* base) {
        if (base->zone >= zc_) {
          // A commit from our own zone (serialized after us) or a later
          // long is already current: our write can no longer be inserted
          // before it.
          sub.stats_domain().add(s, util::Counter::kZoneConflicts);
          abort();
        }
        return sub.store().clone_version(s, *base->data);
      });
  if (tent == nullptr) abort();
  if (sub.recorder().enabled()) tent->vid = sub.recorder().new_version_id();
  write_set_.push_back({&o, tent});
  return *tent->data;
}

}  // namespace zstm::zl
