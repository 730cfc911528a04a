// Transaction descriptors and the single-CAS commit discipline.
//
// Every STM in this repository publishes a transaction's writes atomically
// the DSTM way ([4], as prescribed by the paper's "atomicity is implemented
// with the help of compare-and-swap operations and indirect accesses to
// shared objects"): tentative versions become visible the instant the
// writer's status word changes to kCommitted. The status word is therefore
// the linearization point of every update transaction.
//
// Status protocol:
//   kActive     — executing; enemies may abort it (CAS kActive → kAborted).
//   kCommitting — commit in progress; immune to enemy aborts; observers
//                 treat its tentative versions as not-yet-visible.
//   kCommitted  — all tentative versions are logically current.
//   kAborted    — tentative versions are garbage.
#pragma once

#include <atomic>
#include <cstdint>

namespace zstm::runtime {

enum class TxStatus : std::uint32_t {
  kActive = 0,
  kCommitting,
  kCommitted,
  kAborted,
};

inline const char* to_string(TxStatus s) {
  switch (s) {
    case TxStatus::kActive: return "active";
    case TxStatus::kCommitting: return "committing";
    case TxStatus::kCommitted: return "committed";
    case TxStatus::kAborted: return "aborted";
  }
  return "?";
}

enum class TxClass : std::uint8_t { kShort = 0, kLong = 1 };

class TxDescBase {
 public:
  TxDescBase(std::uint64_t id, int slot, TxClass cls)
      : id_(id), slot_(slot), class_(cls) {}

  virtual ~TxDescBase() = default;

  std::uint64_t id() const { return id_; }
  int slot() const { return slot_; }
  TxClass tx_class() const { return class_; }

  TxStatus status(std::memory_order mo = std::memory_order_acquire) const {
    return status_.load(mo);
  }

  /// Enemy abort: only legal while the victim is still kActive.
  bool abort_by_enemy() {
    TxStatus expected = TxStatus::kActive;
    return status_.compare_exchange_strong(expected, TxStatus::kAborted,
                                           std::memory_order_acq_rel);
  }

  /// Self transition kActive → kCommitting; fails if an enemy won the race.
  /// seq_cst: Z-STM's commit-time zone re-check orders its zone-stamp loads
  /// after this CAS (Dekker pair, DESIGN.md §5.4).
  bool begin_commit() {
    TxStatus expected = TxStatus::kActive;
    return status_.compare_exchange_strong(expected, TxStatus::kCommitting,
                                           std::memory_order_seq_cst);
  }

  /// The linearization point: release-publishes every field written during
  /// kCommitting (commit stamps, tentative version timestamps).
  void finish_commit() {
    status_.store(TxStatus::kCommitted, std::memory_order_release);
  }

  /// Self abort from kActive or kCommitting.
  void finish_abort() {
    TxStatus cur = status_.load(std::memory_order_relaxed);
    while (cur == TxStatus::kActive || cur == TxStatus::kCommitting) {
      if (status_.compare_exchange_weak(cur, TxStatus::kAborted,
                                        std::memory_order_acq_rel)) {
        return;
      }
    }
  }

 private:
  std::atomic<TxStatus> status_{TxStatus::kActive};
  std::uint64_t id_;
  int slot_;
  TxClass class_;
};

}  // namespace zstm::runtime
