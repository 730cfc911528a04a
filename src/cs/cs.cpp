#include "cs/cs.hpp"

#include <algorithm>
#include <utility>

#include "fault/failpoint.hpp"

namespace zstm::cs {

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg)
    : Core(cfg),
      domain_(std::max(1, std::min(cfg.plausible_entries, cfg.max_threads)),
              cfg.max_threads),
      spare_ct_(static_cast<std::size_t>(cfg.max_threads)),
      store_(*this) {}

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
  const std::uint64_t id = rt_.next_tx_id(slot());
  // T.ct starts from VCp, the last committed timestamp of this thread
  // (Algorithm 1 line 3). The stamp's backing vector is recycled through
  // the slot's spare buffer: the copy-assign below reuses its capacity, so
  // steady state performs no heap allocation here.
  timebase::VcStamp ct =
      std::move(rt_.spare_ct_[static_cast<std::size_t>(slot())].value);
  ct = vcp_;
  tx_.desc_ = rt_.pool_.create<TxDesc>(slot(), id, slot(), std::move(ct));
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

void ThreadCtx::release_ownerships() {
  for (auto& w : tx_.write_set_) {
    rt_.store_.release(*w.obj, tx_.desc_, slot());
  }
}

void ThreadCtx::finish_attempt(bool committed) {
  TxDesc* d = tx_.desc_;
  if (rt_.recorder_.enabled()) {
    tx_.rec_.committed = committed;
    tx_.rec_.end_seq = rt_.recorder_.tick();
    if (committed) tx_.rec_.stamp.assign(d->ct.begin(), d->ct.end());
    rt_.recorder_.record(slot(), std::move(tx_.rec_));
  }
  // Reclaim the descriptor's stamp storage before the descriptor goes
  // through EBR (only this thread ever reads desc->ct; see
  // Runtime::spare_ct_). The retired descriptor destructs an empty vector.
  rt_.spare_ct_[static_cast<std::size_t>(slot())].value = std::move(d->ct);
  rt_.retire(slot(), d);
  tx_.desc_ = nullptr;
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
  if (!validate(rt_.store_, tx.read_set_, d, rt_.stats_, s)) {
    rt_.stats_.add(s, util::Counter::kValidationFails);
    abort_attempt();
    throw TxAborted{};
  }
  if (rt_.recorder_.enabled()) {
    tx.rec_.vstamp.assign(d->ct.begin(), d->ct.end());  // pre-advance stamp
  }
  if (!tx.write_set_.empty()) {
    // Advance own entry (Algorithm 1 line 29); not needed for read-only
    // transactions.
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

void Tx::abort() {
  ctx_.abort_attempt();
  throw TxAborted{};
}

const runtime::Payload& Tx::read_object(Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return *w.tentative->data;
  }
  Runtime& rt = ctx_.rt_;
  const int s = ctx_.slot();
  rt.stats_.add(s, util::Counter::kReads);

  Version* v = rt.store_.resolve(o, desc_, OnCommitting::kWait, s);
  desc_->ct.merge(v->ct);  // line 8
  read_set_.push_back({&o, v});
  if (rt.recorder_.enabled()) rec_.reads.push_back({o.oid, v->vid});
  return *v->data;
}

runtime::Payload& Tx::write_object(Object& o) {
  for (auto& w : write_set_) {
    if (w.obj == &o) return *w.tentative->data;
  }
  Runtime& rt = ctx_.rt_;
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

}  // namespace zstm::cs
