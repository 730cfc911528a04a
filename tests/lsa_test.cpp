// Functional tests for LSA-STM: snapshots, extension, validation,
// first-committer-wins, multi-versioning, contention management, the
// no-readsets read-only mode, and history recording.
//
// Deterministic interleavings are produced by attaching several ThreadCtx
// to one OS thread and stepping them explicitly — the runtime only cares
// about contexts, not OS threads.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <string>

#include "history/checkers.hpp"
#include "lsa/lsa.hpp"

namespace zstm::lsa {
namespace {

using util::Counter;

Config quiet_config() {
  Config cfg;
  cfg.max_threads = 8;
  return cfg;
}

TEST(Lsa, ReadInitialValue) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(41);
  auto th = rt.attach();
  int seen = 0;
  rt.run(*th, [&](Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 41);
}

TEST(Lsa, WriteBecomesVisibleAfterCommit) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) { tx.write(x, 7); });
  int seen = 0;
  rt.run(*th, [&](Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 7);
}

TEST(Lsa, ReadYourOwnWrite) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(1);
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) {
    tx.write(x, 5);
    EXPECT_EQ(tx.read(x), 5);
    tx.write(x) += 1;
    EXPECT_EQ(tx.read(x), 6);
  });
  int seen = 0;
  rt.run(*th, [&](Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 6);
}

TEST(Lsa, RepeatedReadsReturnSameVersion) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(3);
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) {
    const int a = tx.read(x);
    const int b = tx.read(x);
    EXPECT_EQ(a, b);
  });
}

TEST(Lsa, NonTrivialPayloadTypes) {
  Runtime rt(quiet_config());
  auto s = rt.make_var<std::string>("hello");
  auto v = rt.make_var<std::vector<int>>({1, 2, 3});
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) {
    tx.write(s) += " world";
    tx.write(v).push_back(4);
  });
  rt.run(*th, [&](Tx& tx) {
    EXPECT_EQ(tx.read(s), "hello world");
    EXPECT_EQ(tx.read(v).size(), 4u);
  });
}

TEST(Lsa, AbortDiscardsTentativeWrites) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(10);
  auto th = rt.attach();
  bool first = true;
  rt.run(*th, [&](Tx& tx) {
    tx.write(x, 99);
    if (first) {
      first = false;
      tx.abort();  // retried; second attempt commits 99
    }
  });
  int seen = 0;
  rt.run(*th, [&](Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 99);
  EXPECT_GE(rt.stats()[Counter::kAborts], 1u);
}

TEST(Lsa, RunReportsAttempts) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  int tries = 0;
  const runtime::RunResult result = rt.run(*th, [&](Tx& tx) {
    tx.write(x, 1);
    if (++tries < 3) tx.abort();
  });
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_TRUE(result.committed);
}

TEST(Lsa, FirstCommitterWinsOnReadWriteConflict) {
  // A reads x; B writes x and commits; A then tries to write y and commit —
  // A's validation fails (the rule that dooms long transactions, §1).
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto y = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& ta = a->begin();
  (void)ta.read(x);
  rt.run(*b, [&](Tx& tx) { tx.write(x, 1); });
  ta.write(y, 1);
  EXPECT_THROW(a->commit(), TxAborted);
  EXPECT_GE(rt.stats()[Counter::kValidationFails], 1u);
}

TEST(Lsa, ReadOnlySnapshotSurvivesConcurrentCommit) {
  // A reads y, B overwrites x and y, A then reads x: extension fails (y was
  // superseded) and A falls back to the version of x valid at its snapshot
  // — A sees a consistent pair (old x, old y) and commits read-only.
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(1);
  auto y = rt.make_var<int>(1);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& ta = a->begin();
  const int y0 = ta.read(y);
  rt.run(*b, [&](Tx& tx) {
    tx.write(x, 2);
    tx.write(y, 2);
  });
  const int x0 = ta.read(x);
  a->commit();  // read-only commit in the past
  EXPECT_EQ(x0 + y0, 2);  // both old — never a mixed snapshot
}

TEST(Lsa, UpdateTransactionCannotUseThePast) {
  // Same shape, but A writes before the stale read: reading into the past
  // is forbidden for update transactions, so A aborts immediately.
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(1);
  auto y = rt.make_var<int>(1);
  auto z = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& ta = a->begin();
  (void)ta.read(y);
  ta.write(z, 1);
  rt.run(*b, [&](Tx& tx) {
    tx.write(x, 2);
    tx.write(y, 2);
  });
  EXPECT_THROW(ta.read(x), TxAborted);
}

TEST(Lsa, SnapshotExtensionAllowsFreshRead) {
  // A begins before B's commit but has an empty read set: reading x after
  // B's commit extends the snapshot instead of aborting.
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(1);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& ta = a->begin();
  rt.run(*b, [&](Tx& tx) { tx.write(x, 2); });
  EXPECT_EQ(ta.read(x), 2);
  a->commit();
  EXPECT_GE(rt.stats()[Counter::kExtensions], 1u);
}

TEST(Lsa, WriteWriteConflictGoesToContentionManager) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& ta = a->begin();
  ta.write(x, 1);
  // B kills the active owner A and takes the object.
  rt.run(*b, [&](Tx& tx) { tx.write(x, 2); });
  EXPECT_THROW(a->commit(), TxAborted);  // A discovers the enemy abort
  EXPECT_GE(rt.stats()[Counter::kCmKills], 1u);

  int seen = 0;
  rt.run(*a, [&](Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 2);
}

TEST(Lsa, SingleVersionModeForcesRetryOfStaleReader) {
  // versions_kept = 1: the past is never available; the read-only reader
  // retries with a fresh snapshot instead of reading old versions.
  Config cfg = quiet_config();
  cfg.versions_kept = 1;
  Runtime rt(cfg);
  auto x = rt.make_var<int>(1);
  auto y = rt.make_var<int>(1);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& ta = a->begin();
  (void)ta.read(y);
  rt.run(*b, [&](Tx& tx) {
    tx.write(x, 2);
    tx.write(y, 2);
  });
  rt.run(*b, [&](Tx& tx) {
    tx.write(x, 3);
    tx.write(y, 3);
  });  // second commit prunes the version A would need
  EXPECT_THROW(ta.read(x), TxAborted);
}

TEST(Lsa, MultiVersionKeepsThePastAvailable) {
  Config cfg = quiet_config();
  cfg.versions_kept = 8;
  Runtime rt(cfg);
  auto x = rt.make_var<int>(1);
  auto y = rt.make_var<int>(1);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& ta = a->begin();
  const int y0 = ta.read(y);
  for (int i = 2; i <= 5; ++i) {
    rt.run(*b, [&](Tx& tx) {
      tx.write(x, i);
      tx.write(y, i);
    });
  }
  const int x0 = ta.read(x);  // four versions back
  a->commit();
  EXPECT_EQ(x0, 1);
  EXPECT_EQ(y0, 1);
}

TEST(Lsa, NoReadsetsModeTracksNothing) {
  Config cfg = quiet_config();
  cfg.track_readonly_readsets = false;
  Runtime rt(cfg);
  auto x = rt.make_var<int>(1);
  auto y = rt.make_var<int>(2);
  auto th = rt.attach();

  Tx& tx = th->begin(TxKind::kReadOnly);
  (void)tx.read(x);
  (void)tx.read(y);
  EXPECT_EQ(tx.read_set_size(), 0u);
  th->commit();
}

TEST(Lsa, NoReadsetsReaderStillSeesConsistentSnapshot) {
  Config cfg = quiet_config();
  cfg.track_readonly_readsets = false;
  Runtime rt(cfg);
  auto x = rt.make_var<int>(1);
  auto y = rt.make_var<int>(1);
  auto a = rt.attach();
  auto b = rt.attach();

  Tx& ta = a->begin(TxKind::kReadOnly);
  const int y0 = ta.read(y);
  rt.run(*b, [&](Tx& tx) {
    tx.write(x, 2);
    tx.write(y, 2);
  });
  const int x0 = ta.read(x);  // must come from the fixed snapshot
  a->commit();
  EXPECT_EQ(x0 + y0, 2);
}

TEST(Lsa, DeclaredReadOnlyThatWritesIsPromoted) {
  Config cfg = quiet_config();
  cfg.track_readonly_readsets = false;
  Runtime rt(cfg);
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  const runtime::RunResult result = rt.run(
      *th, [&](Tx& tx) { tx.write(x, 1); }, /*read_only=*/true);
  EXPECT_EQ(result.attempts, 2u);  // one aborted fast-path attempt + one tracked
  int seen = 0;
  rt.run(*th, [&](Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 1);
}

TEST(Lsa, StatsCountCommitsAndOperations) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  for (int i = 0; i < 5; ++i) {
    rt.run(*th, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  auto s = rt.stats();
  EXPECT_EQ(s[Counter::kCommits], 5u);
  EXPECT_EQ(s[Counter::kShortCommits], 5u);
  EXPECT_GE(s[Counter::kReads], 5u);
  EXPECT_GE(s[Counter::kWrites], 5u);
  rt.reset_stats();
  EXPECT_EQ(rt.stats()[Counter::kCommits], 0u);
}

TEST(Lsa, HistoryRecordsCommittedAndAborted) {
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  bool first = true;
  rt.run(*th, [&](Tx& tx) {
    tx.write(x, 1);
    if (first) {
      first = false;
      tx.abort();
    }
  });
  auto h = rt.collect_history();
  EXPECT_EQ(h.txs.size(), 2u);
  EXPECT_EQ(h.committed_count(), 1u);
  bool found_write = false;
  for (const auto& t : h.txs) {
    if (t.committed) {
      ASSERT_EQ(t.writes.size(), 1u);
      EXPECT_EQ(t.writes[0].parent, 0u);
      found_write = true;
    }
  }
  EXPECT_TRUE(found_write);
}

TEST(Lsa, HistoryOfSequentialRunIsStrictlySerializable) {
  Config cfg = quiet_config();
  cfg.record_history = true;
  Runtime rt(cfg);
  auto x = rt.make_var<int>(0);
  auto y = rt.make_var<int>(0);
  auto th = rt.attach();
  for (int i = 0; i < 20; ++i) {
    rt.run(*th, [&](Tx& tx) {
      tx.write(x, tx.read(x) + 1);
      tx.write(y, tx.read(y) + 1);
    });
  }
  auto res = history::check_strictly_serializable(rt.collect_history());
  EXPECT_TRUE(res) << res.reason;
}

TEST(Lsa, SyncClockTimeBaseCommitsCorrectly) {
  Config cfg = quiet_config();
  cfg.time_base = timebase::TimeBaseKind::kSyncClock;
  cfg.clock_deviation = std::chrono::nanoseconds(2000);
  Runtime rt(cfg);
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  for (int i = 0; i < 50; ++i) {
    rt.run(*th, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
  }
  int seen = 0;
  rt.run(*th, [&](Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 50);
}

TEST(Lsa, ManyObjectsIndependentUpdates) {
  Runtime rt(quiet_config());
  std::vector<Var<int>> vars;
  for (int i = 0; i < 100; ++i) vars.push_back(rt.make_var<int>(i));
  auto th = rt.attach();
  rt.run(*th, [&](Tx& tx) {
    for (auto& v : vars) tx.write(v) *= 2;
  });
  rt.run(*th, [&](Tx& tx) {
    for (int i = 0; i < 100; ++i) EXPECT_EQ(tx.read(vars[(std::size_t)i]), 2 * i);
  });
}

TEST(Lsa, LeakedAttemptIsAbortedOnNextBegin) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  auto th = rt.attach();
  Tx& t1 = th->begin();
  t1.write(x, 42);  // never committed
  Tx& t2 = th->begin();  // implicitly aborts the leaked attempt
  EXPECT_EQ(t2.read(x), 0);
  th->commit();
}

TEST(Lsa, ContextDestructionAbortsOpenAttempt) {
  Runtime rt(quiet_config());
  auto x = rt.make_var<int>(0);
  {
    auto th = rt.attach();
    Tx& t = th->begin();
    t.write(x, 9);
  }  // context destroyed mid-transaction
  auto th2 = rt.attach();
  int seen = -1;
  rt.run(*th2, [&](Tx& tx) { seen = tx.read(x); });
  EXPECT_EQ(seen, 0);
}

}  // namespace
}  // namespace zstm::lsa
