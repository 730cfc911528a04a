#include "lsa/lsa.hpp"

#include "fault/failpoint.hpp"

namespace zstm::lsa {

namespace {

timebase::ScalarTimeBase make_time_base(const Config& cfg) {
  if (cfg.time_base == timebase::TimeBaseKind::kSyncClock) {
    return timebase::ScalarTimeBase(cfg.max_threads, cfg.clock_deviation,
                                    cfg.seed);
  }
  return timebase::ScalarTimeBase();
}

}  // namespace

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg)
    : Core(cfg), timebase_(make_time_base(cfg)), store_(*this) {}

std::unique_ptr<ThreadCtx> Runtime::attach() {
  return std::unique_ptr<ThreadCtx>(new ThreadCtx(*this, registry_.attach()));
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

ThreadCtx::ThreadCtx(Runtime& rt, util::ThreadRegistry::Registration reg)
    : rt_(rt), reg_(std::move(reg)), tx_(*this) {}

ThreadCtx::~ThreadCtx() {
  if (in_transaction()) abort_attempt();
}

Tx& ThreadCtx::begin(TxKind kind) {
  const bool read_only = kind == TxKind::kReadOnly || kind == TxKind::kLong;
  if (in_transaction()) abort_attempt();  // defensive: drop a leaked attempt
  Tx& tx = tx_;
  const std::uint64_t id = rt_.next_tx_id(slot());
  tx.desc_ = rt_.pool_.create<TxDesc>(slot(), id, slot(),
                                      runtime::TxClass::kShort);
  epoch_guard_ = rt_.epochs_.pin_guard(slot());
  if (rt_.recorder_.enabled()) {
    // Ticked before the snapshot is taken: a commit the snapshot cannot see
    // must not look real-time-earlier than this transaction's begin.
    tx.rec_ = history::TxRecord{};
    tx.rec_.tx_id = id;
    tx.rec_.thread_slot = slot();
    tx.rec_.tx_class = runtime::TxClass::kShort;
    tx.rec_.begin_seq = rt_.recorder_.tick();
  }
  tx.lb_ = 0;
  tx.ub_ = rt_.timebase_.now_snapshot(slot());
  // Program order: never snapshot before this thread's last serialization
  // point (safe: both bounds are ones no future commit stamp can undercut).
  if (last_serialization_ > tx.ub_) tx.ub_ = last_serialization_;
  tx.publish_zone_ = 0;
  tx.past_reads_ok_ = true;
  tx.untracked_reads_ = false;
  tx.declared_read_only_ = read_only;
  tx.track_reads_ = rt_.cfg_.track_readonly_readsets || !read_only ||
                    force_track_reads_once_;
  force_track_reads_once_ = false;
  tx.read_set_.clear();
  tx.write_set_.clear();
  return tx;
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
    rt_.recorder_.record(slot(), std::move(tx_.rec_));
  }
  // Nothing references the descriptor through a live locator any more
  // (committed/aborted locators were settled above); stale readers may
  // still hold the pointer, so retire through EBR rather than free.
  rt_.retire(slot(), tx_.desc_);
  tx_.desc_ = nullptr;
  epoch_guard_ = util::EpochManager::Guard();
}

void ThreadCtx::abort_attempt() {
  tx_.desc_->finish_abort();
  release_ownerships();
  rt_.stats_.add(slot(), util::Counter::kAborts);
  rt_.stats_.add(slot(), util::Counter::kShortAborts);
  finish_attempt(false);
}

void ThreadCtx::commit(CommitCheck* check) {
  Tx& tx = tx_;
  TxDesc* d = tx.desc_;
  Runtime& rt = rt_;
  const int s = slot();

  if (!d->begin_commit()) {
    // An enemy aborted us between the last open and the commit.
    abort_attempt();
    throw TxAborted{};
  }

  if (!tx.write_set_.empty()) {
    if (check != nullptr && !check->admit(tx.write_set_)) {
      abort_attempt();
      throw TxAborted{};
    }
    // Commit stamp strictly above every version we are superseding, so the
    // per-object chains stay monotone even under clock skew.
    std::uint64_t floor = 0;
    for (const auto& w : tx.write_set_) {
      const Version* base = w.tentative->prev.load(std::memory_order_relaxed);
      if (base->ts > floor) floor = base->ts;
    }
    const std::uint64_t ct = rt.timebase_.acquire_commit_stamp(s, floor);
    // Sync-clock mode: wait out the deviation window so no later stamp
    // anywhere can undercut ct ("wait one clock tick", §2).
    rt.timebase_.wait_until_safe(s, ct);

    // Validate the read set: every version read must still be current.
    for (const auto& r : tx.read_set_) {
      if (r.valid_until != kOpenEnded) {
        // We read in the past; an update transaction serializes at ct and
        // its snapshot cannot be valid there any more.
        rt.stats_.add(s, util::Counter::kValidationFails);
        abort_attempt();
        throw TxAborted{};
      }
      Version* cur = rt.store_.resolve(*r.obj, d, OnCommitting::kFail, s);
      if (cur != r.version) {
        rt.stats_.add(s, util::Counter::kValidationFails);
        abort_attempt();
        throw TxAborted{};
      }
    }

    // Publish: stamp the tentative versions, then flip the status word —
    // the single CAS that makes every write visible at once.
    for (auto& w : tx.write_set_) {
      w.tentative->ts = ct;
      w.tentative->zone = tx.publish_zone_;
      if (rt.recorder_.enabled()) {
        const Version* base = w.tentative->prev.load(std::memory_order_relaxed);
        tx.rec_.writes.push_back({w.obj->oid, w.tentative->vid, base->vid});
      }
    }
    d->commit_ts = ct;
    d->finish_commit();
    // Eagerly settle our own locators to shorten other threads' waits.
    for (auto& w : tx.write_set_) {
      rt.store_.release(*w.obj, d, s);
    }
    if (ct > last_serialization_) last_serialization_ = ct;
  } else {
    // Read-only: the snapshot was kept consistent at every step (each read
    // version valid throughout [lb, ub]); commit in the past at ub.
    d->finish_commit();
    if (tx.ub_ > last_serialization_) last_serialization_ = tx.ub_;
  }

  rt.stats_.add(s, util::Counter::kCommits);
  rt.stats_.add(s, util::Counter::kShortCommits);
  finish_attempt(true);
}

// ---------------------------------------------------------------------------
// Tx
// ---------------------------------------------------------------------------

void Tx::abort() {
  ctx_.abort_attempt();
  throw TxAborted{};
}

void Tx::fail(util::Counter reason) {
  ctx_.rt_.stats_.add(ctx_.slot(), reason);
  ctx_.abort_attempt();
  throw TxAborted{};
}

WriteEntry* Tx::find_write(const Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return &w;
  }
  return nullptr;
}

const runtime::Payload& Tx::read_object(Object& o) {
  if (WriteEntry* we = find_write(o)) return *we->tentative->data;

  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();
  rt.stats_.add(s, util::Counter::kReads);

  Version* v = rt.store_.resolve(o, desc_, OnCommitting::kWait, s);
  if (v->ts > ub_ && track_reads_ && try_extend()) {
    v = rt.store_.resolve(o, desc_, OnCommitting::kWait, s);
  }
  std::uint64_t valid_until = kOpenEnded;
  if (v->ts > ub_) {
    // The newest version postdates our snapshot and the snapshot cannot be
    // extended over it: fall back to an older version valid at ub. Update
    // transactions cannot use the past (they serialize at commit time),
    // and neither can a zl short transaction in a claimed zone.
    if (!write_set_.empty() || !past_reads_ok_) {
      fail(util::Counter::kValidationFails);
    }
    while (v != nullptr && v->ts > ub_) {
      valid_until = v->ts;
      v = v->prev.load(std::memory_order_acquire);
    }
    if (v == nullptr) {
      // The version valid at ub was pruned (retention bound exceeded).
      rt.stats_.add(s, util::Counter::kVersionPruned);
      fail(util::Counter::kValidationFails);
    }
  }
  if (v->ts > lb_) lb_ = v->ts;
  if (track_reads_) read_set_.push_back({&o, v, valid_until});
  untracked_reads_ |= !track_reads_;
  if (rt.recorder_.enabled()) rec_.reads.push_back({o.oid, v->vid});
  return *v->data;
}

runtime::Payload& Tx::write_object(Object& o) {
  if (WriteEntry* we = find_write(o)) return *we->tentative->data;

  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();

  if (declared_read_only_ && !track_reads_) {
    // A declared read-only transaction took the no-readsets fast path but
    // turned out to write: retry once with read tracking enabled.
    ctx_.force_track_reads_once_ = true;
    abort();
  }

  Version* tent = rt.store_.open_for_write(
      o, desc_, s, fault::Site::kLsaAcquire, [&](Version* base) -> Version* {
        if (base->ts > ub_) {
          // The head postdates our snapshot: extend over it and look again.
          if (!(track_reads_ && try_extend())) {
            fail(util::Counter::kValidationFails);
          }
          return nullptr;
        }
        return rt.store_.clone_version(s, *base->data);
      });
  if (tent == nullptr) abort();
  if (rt.recorder_.enabled()) tent->vid = rt.recorder_.new_version_id();
  const Version* base = tent->prev.load(std::memory_order_relaxed);
  if (base->ts > lb_) lb_ = base->ts;
  write_set_.push_back({&o, tent});
  return *tent->data;
}

bool Tx::reads_still_current() {
  if (untracked_reads_) {
    // Unknown reads cannot be shown current. The caller aborts, so, as in
    // write_object, the thread's next attempt tracks its reads.
    ctx_.force_track_reads_once_ = true;
    return false;
  }
  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();
  // kFail, as in commit validation: the caller may itself be committing
  // (zl::ShortTx::admit), and two committing transactions must not wait on
  // each other.
  for (const auto& r : read_set_) {
    if (r.valid_until != kOpenEnded ||
        rt.store_.resolve(*r.obj, desc_, OnCommitting::kFail, s) != r.version) {
      return false;
    }
  }
  return true;
}

bool Tx::try_extend() {
  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();
  std::uint64_t new_ub = rt.timebase_.now_snapshot(s);
  for (const auto& r : read_set_) {
    if (r.valid_until != kOpenEnded && r.valid_until - 1 < new_ub) {
      new_ub = r.valid_until - 1;
    }
  }
  if (new_ub <= ub_) {
    rt.stats_.add(s, util::Counter::kExtensionFails);
    return false;
  }
  for (auto& r : read_set_) {
    if (r.valid_until != kOpenEnded) continue;
    Version* cur = rt.store_.resolve(*r.obj, desc_, OnCommitting::kWait, s);
    if (cur == r.version) continue;
    // Find the direct successor of the version we read to learn when its
    // validity ended.
    Version* succ = Store::successor_of(cur, r.version);
    if (succ == nullptr) {
      // Chain pruned past our version; cannot bound its validity.
      rt.stats_.add(s, util::Counter::kVersionPruned);
      rt.stats_.add(s, util::Counter::kExtensionFails);
      return false;
    }
    r.valid_until = succ->ts;
    if (succ->ts - 1 < new_ub) new_ub = succ->ts - 1;
    if (new_ub <= ub_) {
      rt.stats_.add(s, util::Counter::kExtensionFails);
      return false;
    }
  }
  ub_ = new_ub;
  rt.stats_.add(s, util::Counter::kExtensions);
  return true;
}

}  // namespace zstm::lsa
