// The attempt vocabulary every runtime shares (DESIGN.md §8): the one abort
// token, the transaction kinds, the single try/catch around an attempt, and
// the backoff retry loop behind every native `run` entry point (lsa/cs/sstm/
// tl2 `Runtime::run`, zl `run_short`/`run_long`/`run_auto`). The
// `zstm::api` façade runs the same `attempt` inside its escalation ladder.
//
// A `run` call executes its body inside a transaction attempt and retries
// with backoff on abort. Unbounded loops always return `committed == true`
// (they retry until the body commits); budgeted entry points (the façade's
// `run(kind, body, max_attempts)`) report `committed == false` when the
// attempt budget was exhausted — the caller decides whether the episode
// counts as failed (the bank benchmark's abandoned Compute-Total) or is
// retried later. `attempts` counts every attempt including the final one.
//
// The abort-exception contract itself (TxAborted must propagate out of the
// body) is documented once in api/stm_api.hpp.
#pragma once

#include <cstdint>

#include "util/backoff.hpp"

namespace zstm::runtime {

/// Thrown when a transaction attempt must be retried. Every runtime throws
/// this one token; user code inside a transaction body must let it
/// propagate.
struct TxAborted {};

/// Transaction kind, declared at start (the paper's §5.3 requirement that
/// the class be known up front). Each runtime's `ThreadCtx::begin(kind)`
/// applies its own column of DESIGN.md §8's table: long kinds select Z-STM's
/// Algorithm 2; read-only kinds select LSA's declared-read-only path.
enum class TxKind {
  kUpdate,      ///< ordinary (short) update transaction
  kReadOnly,    ///< ordinary (short) transaction, declared read-only
  kLong,        ///< long transaction, read-only body
  kLongUpdate,  ///< long transaction that also writes
};

struct RunResult {
  /// Attempts used, including the committing (or final failed) one.
  std::uint32_t attempts = 0;
  /// True iff the last attempt committed.
  bool committed = false;
};

/// One attempt of `body` on the freshly begun `tx`: run it and commit. An
/// abort (TxAborted from the body or from the commit, the attempt already
/// cleaned up) returns false. Any other exception out of the body,
/// fault::ThreadExit included, aborts the attempt, releasing every
/// locator and stripe it holds, before propagating.
template <typename Ctx, typename Tx, typename F>
bool attempt(Ctx& ctx, Tx& tx, F&& body) {
  try {
    body(tx);
    ctx.commit();
    return true;
  } catch (const TxAborted&) {
    return false;
  } catch (...) {
    if (ctx.in_transaction()) ctx.abort_attempt();
    throw;
  }
}

/// Retry `attempt(ctx, begin(), body)` with backoff until it commits.
template <typename Ctx, typename Begin, typename F>
RunResult retry(Ctx& ctx, Begin&& begin, F&& body) {
  util::Backoff bo;
  for (std::uint32_t n = 1;; ++n) {
    auto&& tx = begin();
    if (runtime::attempt(ctx, tx, body)) return {n, true};
    bo.pause();
  }
}

}  // namespace zstm::runtime
