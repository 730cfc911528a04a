// Contention-manager framework.
//
// "Conflict arbitration is performed by a configurable module called
// contention manager, which is responsible for the liveness of the system"
// (§4.1, following DSTM [4]). Each object runtime's ObjectStore owns one
// and consults it when a transaction opening an object finds it
// write-owned by another live transaction (ObjectStore::acquire).
//
// The manager only *decides*; ObjectStore::acquire performs the decision
// (enemy abort via TxDescBase::abort_by_enemy, waiting via Backoff, or
// self-abort), so a policy can never corrupt protocol state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/config.hpp"
#include "runtime/txdesc.hpp"

namespace zstm::cm {

enum class Decision {
  kAbortOther,  // kill the current owner and take over
  kAbortSelf,   // abort the requesting transaction
  kWait,        // back off and re-examine the conflict
};

inline const char* to_string(Decision d) {
  switch (d) {
    case Decision::kAbortOther: return "abort-other";
    case Decision::kAbortSelf: return "abort-self";
    case Decision::kWait: return "wait";
  }
  return "?";
}

class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  /// Arbitrate a write/write (or open-time) conflict between `me` (the
  /// requester) and `other` (the current owner). `attempt` counts how many
  /// times this same conflict has already been re-examined after kWait
  /// decisions, letting politeness-style policies escalate.
  virtual Decision arbitrate(const runtime::TxDescBase& me,
                             const runtime::TxDescBase& other,
                             std::uint32_t attempt) = 0;

  virtual std::string name() const = 0;
};

// Policy (the Config::cm_policy values) is declared in runtime/config.hpp.

std::unique_ptr<ContentionManager> make_manager(Policy policy);

const char* policy_name(Policy policy);

}  // namespace zstm::cm
