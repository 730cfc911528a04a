#include "cm/contention_manager.hpp"

namespace zstm::cm {

namespace {

/// Always kill the owner. Maximum progress for the requester; can livelock
/// under symmetric contention (pair it with retry backoff).
class Aggressive final : public ContentionManager {
 public:
  Decision arbitrate(const runtime::TxDescBase&, const runtime::TxDescBase&,
                     std::uint32_t) override {
    return Decision::kAbortOther;
  }
  std::string name() const override { return "aggressive"; }
};

/// Always kill self. Never disturbs the owner; prone to starvation of the
/// requester (useful as a worst-case reference in zstm_bench's cm section).
class Suicide final : public ContentionManager {
 public:
  Decision arbitrate(const runtime::TxDescBase&, const runtime::TxDescBase&,
                     std::uint32_t) override {
    return Decision::kAbortSelf;
  }
  std::string name() const override { return "suicide"; }
};

/// Wait politely (caller backs off exponentially between attempts) for a
/// bounded number of episodes, then kill the owner.
class Polite final : public ContentionManager {
 public:
  static constexpr std::uint32_t kMaxEpisodes = 8;

  Decision arbitrate(const runtime::TxDescBase&, const runtime::TxDescBase&,
                     std::uint32_t attempt) override {
    return attempt < kMaxEpisodes ? Decision::kWait : Decision::kAbortOther;
  }
  std::string name() const override { return "polite"; }
};

/// Karma: the transaction that has invested more work (opens across
/// retries) wins; the loser waits, accumulating attempts until its
/// accumulated patience exceeds the work gap.
class Karma final : public ContentionManager {
 public:
  Decision arbitrate(const runtime::TxDescBase& me,
                     const runtime::TxDescBase& other,
                     std::uint32_t attempt) override {
    if (me.work() + attempt >= other.work()) return Decision::kAbortOther;
    return Decision::kWait;
  }
  std::string name() const override { return "karma"; }
};

/// Timestamp (greedy-style): the older transaction wins; a younger
/// requester waits briefly for the elder to finish and then aborts itself.
class Timestamp final : public ContentionManager {
 public:
  static constexpr std::uint32_t kMaxEpisodes = 16;

  Decision arbitrate(const runtime::TxDescBase& me,
                     const runtime::TxDescBase& other,
                     std::uint32_t attempt) override {
    if (me.start_ticks() < other.start_ticks()) return Decision::kAbortOther;
    return attempt < kMaxEpisodes ? Decision::kWait : Decision::kAbortSelf;
  }
  std::string name() const override { return "timestamp"; }
};

/// Greedy (Guerraoui, Herlihy, Pochon, DISC'05): priority = start time
/// (older is higher). The requester kills the owner when the owner has
/// lower priority *or* is itself waiting on somebody (the `waiting` flag
/// every runtime sets around its contention back-off); otherwise the
/// requester waits. Pending-commit owners are left alone — killing a
/// transaction that has reached kCommitting is impossible anyway, and the
/// decide-only framework lets the caller discover that.
class Greedy final : public ContentionManager {
 public:
  Decision arbitrate(const runtime::TxDescBase& me,
                     const runtime::TxDescBase& other,
                     std::uint32_t) override {
    if (me.start_ticks() < other.start_ticks() || other.waiting()) {
      return Decision::kAbortOther;
    }
    return Decision::kWait;
  }
  std::string name() const override { return "greedy"; }
};

/// Polka (Scherer & Scott): Karma's work-based priorities with Polite's
/// exponentially growing patience — the requester backs off attempt times
/// with exponentially increasing accumulated patience (2^attempt) and
/// kills the owner once that patience covers the work gap.
class Polka final : public ContentionManager {
 public:
  static constexpr std::uint32_t kMaxDoublings = 16;  // patience cap 2^16

  Decision arbitrate(const runtime::TxDescBase& me,
                     const runtime::TxDescBase& other,
                     std::uint32_t attempt) override {
    const std::uint64_t patience =
        std::uint64_t{1} << (attempt < kMaxDoublings ? attempt : kMaxDoublings);
    if (me.work() + patience > other.work()) return Decision::kAbortOther;
    return Decision::kWait;
  }
  std::string name() const override { return "polka"; }
};

}  // namespace

std::unique_ptr<ContentionManager> make_manager(Policy policy) {
  switch (policy) {
    case Policy::kAggressive: return std::make_unique<Aggressive>();
    case Policy::kSuicide: return std::make_unique<Suicide>();
    case Policy::kPolite: return std::make_unique<Polite>();
    case Policy::kKarma: return std::make_unique<Karma>();
    case Policy::kTimestamp: return std::make_unique<Timestamp>();
    case Policy::kGreedy: return std::make_unique<Greedy>();
    case Policy::kPolka: return std::make_unique<Polka>();
  }
  return std::make_unique<Polite>();
}

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kAggressive: return "aggressive";
    case Policy::kSuicide: return "suicide";
    case Policy::kPolite: return "polite";
    case Policy::kKarma: return "karma";
    case Policy::kTimestamp: return "timestamp";
    case Policy::kGreedy: return "greedy";
    case Policy::kPolka: return "polka";
  }
  return "?";
}

}  // namespace zstm::cm
