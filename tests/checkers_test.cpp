// Self-tests for the offline consistency checkers on hand-built histories
// with known verdicts.
//
// CTest label: `smoke` — fast canary, gates CI before the stress suites
// (DESIGN.md §6).
#include <gtest/gtest.h>

#include "history/checkers.hpp"

namespace zstm::history {
namespace {

using runtime::TxClass;

struct Builder {
  History h;
  std::uint64_t next_seq = 1;

  Builder() { h.txs.reserve(64); }  // keep tx() references stable

  TxRecord& tx(std::uint64_t id, int slot, TxClass cls = TxClass::kShort) {
    TxRecord r;
    r.tx_id = id;
    r.thread_slot = slot;
    r.tx_class = cls;
    r.committed = true;
    r.begin_seq = next_seq++;
    r.end_seq = next_seq++;
    h.txs.push_back(r);
    return h.txs.back();
  }
};

TEST(Checkers, EmptyHistoryPassesEverything) {
  History h;
  EXPECT_TRUE(check_serializable(h));
  EXPECT_TRUE(check_strictly_serializable(h));
  EXPECT_TRUE(check_z_linearizable(h));
}

TEST(Checkers, SimpleReadsFromChainIsSerializable) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.writes.push_back({/*obj=*/1, /*version=*/10, /*parent=*/0});
  auto& t2 = b.tx(2, 1);
  t2.reads.push_back({1, 10});
  t2.writes.push_back({1, 20, 10});
  auto& t3 = b.tx(3, 2);
  t3.reads.push_back({1, 20});
  EXPECT_TRUE(check_serializable(b.h));
  EXPECT_TRUE(check_strictly_serializable(b.h));
}

TEST(Checkers, WriteSkewCycleIsNotSerializable) {
  // T1 reads x0 writes y1; T2 reads y0 writes x1 — rw edges both ways.
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.reads.push_back({/*x*/ 1, 0});
  t1.writes.push_back({/*y*/ 2, 21, 0});
  auto& t2 = b.tx(2, 1);
  t2.reads.push_back({2, 0});
  t2.writes.push_back({1, 11, 0});
  auto res = check_serializable(b.h);
  EXPECT_FALSE(res);
  EXPECT_NE(res.reason.find("cycle"), std::string::npos);
}

TEST(Checkers, AbortedTransactionsAreIgnored) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.reads.push_back({1, 0});
  t1.writes.push_back({2, 21, 0});
  auto& t2 = b.tx(2, 1);
  t2.reads.push_back({2, 0});
  t2.writes.push_back({1, 11, 0});
  t2.committed = false;  // the cycle partner never committed
  EXPECT_TRUE(check_serializable(b.h));
}

TEST(Checkers, DuplicateVersionIdsAreMalformed) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  t2.writes.push_back({2, 10, 0});  // same version id on another object
  EXPECT_FALSE(check_serializable(b.h));
}

TEST(Checkers, TwoCommittedChildrenOfOneVersionAreMalformed) {
  Builder b;
  auto& t0 = b.tx(1, 0);
  t0.writes.push_back({1, 10, 0});
  auto& t1 = b.tx(2, 1);
  t1.writes.push_back({1, 20, 10});
  auto& t2 = b.tx(3, 2);
  t2.writes.push_back({1, 30, 10});  // lost update: second child of v10
  EXPECT_FALSE(check_serializable(b.h));
}

TEST(Checkers, TwoInitialChildrenAreMalformed) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  t2.writes.push_back({1, 20, 0});  // also claims to supersede the initial
  EXPECT_FALSE(check_serializable(b.h));
}

TEST(Checkers, StaleReadIsSerializableButNotStrictly) {
  // T1 writes x1 and finishes; T2 starts strictly later yet reads x0:
  // admissible serialization T2 → T1 exists, but it violates real time.
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  t2.reads.push_back({1, 0});
  EXPECT_TRUE(check_serializable(b.h));
  auto res = check_strictly_serializable(b.h);
  EXPECT_FALSE(res);
}

TEST(Checkers, RealTimeRespectingHistoryIsStrictlySerializable) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  t2.reads.push_back({1, 10});
  EXPECT_TRUE(check_strictly_serializable(b.h));
}

TEST(Checkers, OverlappingTransactionsMayOrderEitherWay) {
  // T2 overlaps T1 in real time, so reading the initial version is fine.
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  t2.reads.push_back({1, 0});
  t2.begin_seq = t1.begin_seq;  // overlap
  EXPECT_TRUE(check_strictly_serializable(b.h));
}

TEST(Checkers, ProgramOrderCheckIgnoresCrossThreadRealTime) {
  // The stale-read history again: fails strictness, but passes
  // serializability + program order (different threads).
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  t2.reads.push_back({1, 0});
  EXPECT_FALSE(check_strictly_serializable(b.h));
  EXPECT_TRUE(check_serializable_with_program_order(b.h));
}

TEST(Checkers, ProgramOrderCheckEnforcesSameThreadOrder) {
  // Same shape but on ONE thread: t2 (later in program order) wrote the
  // version t1 read — no serialization can respect both.
  Builder b;
  auto& t1 = b.tx(1, 0);
  auto& t2 = b.tx(2, 0);
  t2.writes.push_back({1, 10, 0});
  t1.reads.push_back({1, 10});
  EXPECT_FALSE(check_serializable_with_program_order(b.h));
  EXPECT_TRUE(check_serializable(b.h));
}

// --- z-linearizability -------------------------------------------------------

TEST(Checkers, ZLongsMustRespectRealTime) {
  // Two long transactions, L1 ends before L2 begins, but L2's effects are
  // read by L1 — impossible to order both ways.
  Builder b;
  auto& l2 = b.tx(2, 1, TxClass::kLong);  // begins/ends first in ticks
  l2.zone = 2;
  auto& l1 = b.tx(1, 0, TxClass::kLong);
  l1.zone = 1;
  // l2 (earlier in real time) reads the version l1 writes.
  l1.writes.push_back({1, 10, 0});
  l2.reads.push_back({1, 10});
  auto res = check_z_linearizable(b.h);
  EXPECT_FALSE(res);
  // Plain serializability is fine (order l1 → l2).
  EXPECT_TRUE(check_serializable(b.h));
}

TEST(Checkers, ZShortsInSameZoneMustRespectRealTime) {
  Builder b;
  auto& s1 = b.tx(1, 0);
  s1.zone = 3;
  auto& s2 = b.tx(2, 1);
  s2.zone = 3;
  // s1 ends before s2 begins, but s1 reads s2's write.
  s2.writes.push_back({1, 10, 0});
  s1.reads.push_back({1, 10});
  EXPECT_FALSE(check_z_linearizable(b.h));
}

TEST(Checkers, ZShortsInDifferentZonesMayReorder) {
  // Identical shape, but the shorts are in different zones: allowed — this
  // is precisely the relaxation z-linearizability grants (§5).
  Builder b;
  auto& s1 = b.tx(1, 0);
  s1.zone = 3;
  auto& s2 = b.tx(2, 1);
  s2.zone = 4;
  s2.writes.push_back({1, 10, 0});
  s1.reads.push_back({1, 10});
  EXPECT_TRUE(check_z_linearizable(b.h));
}

TEST(Checkers, ZProgramOrderWithinThreadIsEnforced) {
  // Same thread slot commits t1 then t2 (program order), but t1 reads
  // t2's write: serialization would have to put t2 first — violates (4).
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.zone = 1;
  auto& t2 = b.tx(2, 0);
  t2.zone = 2;  // different zones so clause (2) does not fire
  t2.writes.push_back({1, 10, 0});
  t1.reads.push_back({1, 10});
  EXPECT_FALSE(check_z_linearizable(b.h));
}

TEST(Checkers, ZWellFormedMixPasses) {
  Builder b;
  auto& l1 = b.tx(1, 0, TxClass::kLong);
  l1.zone = 1;
  l1.writes.push_back({1, 10, 0});
  auto& s1 = b.tx(2, 1);
  s1.zone = 1;
  s1.reads.push_back({1, 10});
  s1.writes.push_back({2, 20, 0});
  auto& l2 = b.tx(3, 0, TxClass::kLong);
  l2.zone = 2;
  l2.reads.push_back({1, 10});
  l2.reads.push_back({2, 20});
  auto& s2 = b.tx(4, 1);
  s2.zone = 2;
  s2.reads.push_back({2, 20});
  EXPECT_TRUE(check_z_linearizable(b.h));
  EXPECT_TRUE(check_serializable(b.h));
}

// --- causal conditions ----------------------------------------------------------

TxRecord& with_stamp(TxRecord& r, std::vector<std::uint64_t> s) {
  r.stamp = std::move(s);
  return r;
}

TEST(Checkers, CausalRequiresStamps) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  t1.writes.push_back({1, 10, 0});
  EXPECT_FALSE(check_causal_conditions(b.h));
}

TEST(Checkers, CausalHappyPathPasses) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  with_stamp(t1, {1, 0});
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  with_stamp(t2, {1, 1});  // dominates t1's stamp
  t2.reads.push_back({1, 10});
  t2.writes.push_back({1, 20, 10});
  EXPECT_TRUE(check_causal_conditions(b.h));
}

TEST(Checkers, CausalReaderMustDominateWriterStamp) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  with_stamp(t1, {1, 0});
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  with_stamp(t2, {0, 1});  // concurrent with t1 although it read t1's write
  t2.reads.push_back({1, 10});
  t2.writes.push_back({2, 20, 0});
  auto res = check_causal_conditions(b.h);
  EXPECT_FALSE(res);
  EXPECT_NE(res.reason.find("causality"), std::string::npos);
}

TEST(Checkers, CausalReadOnlyMayEqualWriterStamp) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  with_stamp(t1, {1, 0});
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  with_stamp(t2, {1, 0});  // read-only: no own increment (Algorithm 1)
  t2.reads.push_back({1, 10});
  EXPECT_TRUE(check_causal_conditions(b.h));
}

TEST(Checkers, CausalWriteOrderMustMatchStampOrder) {
  Builder b;
  auto& t1 = b.tx(1, 0);
  with_stamp(t1, {2, 0});
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  with_stamp(t2, {0, 1});  // concurrent with the parent writer: illegal ww
  t2.writes.push_back({1, 20, 10});
  auto res = check_causal_conditions(b.h);
  EXPECT_FALSE(res);
  EXPECT_NE(res.reason.find("write order"), std::string::npos);
}

TEST(Checkers, CausalValidationInvariantViolationDetected) {
  // t3 read v10; v10's successor v20 was committed *before* t3 with a
  // stamp strictly preceding t3's — Algorithm 1 would have aborted t3.
  Builder b;
  auto& t1 = b.tx(1, 0);
  with_stamp(t1, {1, 0, 0});
  t1.writes.push_back({1, 10, 0});
  auto& t2 = b.tx(2, 1);
  with_stamp(t2, {1, 1, 0});
  t2.reads.push_back({1, 10});
  t2.writes.push_back({1, 20, 10});
  auto& t3 = b.tx(3, 2);
  with_stamp(t3, {1, 1, 1});  // t2.stamp ≺ t3.stamp and t2 ended before t3
  t3.reads.push_back({1, 10});
  t3.writes.push_back({2, 30, 0});
  auto res = check_causal_conditions(b.h);
  EXPECT_FALSE(res);
  EXPECT_NE(res.reason.find("validation"), std::string::npos);
}

TEST(Checkers, CausalSuccessorConcurrentWithReaderIsAllowed) {
  // The Figure 1 essence: the long transaction's read version gets a
  // successor committed earlier whose stamp is *concurrent* with the
  // reader's — causally serializable, so the checker must accept it.
  Builder b;
  auto& t0 = b.tx(1, 0);
  with_stamp(t0, {1, 0, 0});
  t0.writes.push_back({1, 5, 0});  // the version TL will read
  auto& t1 = b.tx(2, 0);
  with_stamp(t1, {2, 0, 0});
  t1.reads.push_back({1, 5});
  t1.writes.push_back({1, 10, 5});  // successor of TL's read version
  auto& tl = b.tx(3, 2);
  with_stamp(tl, {1, 1, 1});  // concurrent with t1's {2,0,0}
  tl.reads.push_back({1, 5});
  tl.writes.push_back({4, 40, 0});
  EXPECT_TRUE(check_causal_conditions(b.h));
}

}  // namespace
}  // namespace zstm::history
