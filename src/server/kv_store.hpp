// KvStore — the KV service's storage engine (DESIGN.md §12.1): an
// adt::TMap over one api::Stm<R>, one transaction per service operation,
// with the TxKind chosen per operation class:
//
//   get                  TxKind::kReadOnly   (declared-read-only fast path)
//   put / del / transfer TxKind::kUpdate
//   multi_get (small k)  TxKind::kReadOnly
//   multi_get (k >= kLongThreshold) and scan
//                        TxKind::kLong       (Z-STM Algorithm 2; the
//                                             z-linearizability showcase)
//
// Transfer is the classic two-key invariant op (conservation of the value
// sum); multi_get reads k consecutive keys in ONE transaction, so the
// returned vector is a consistent snapshot; scan folds every element
// through a long read-only transaction, which under "zl" never validates a
// read set and can never be aborted by the short updates racing it.
//
// `KvStore` is the abstract store the service holds: the runtime picked by
// name is hidden once per operation (one virtual call), and every access
// inside the operation is the runtime's native call. `KvStoreT<S>`
// implements it over the `api::Stm<R>` it owns.
//
// Which invariants hold depends on the variant's criterion (DESIGN.md
// §12.1). On cs-vc and cs-r (causal serializability) two updates that write
// different nodes may commit together: an insert behind a node with that
// node's erase (the put is lost), or the erases of two adjacent nodes (one
// key stays). Every other variant is serializable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adt/tmap.hpp"
#include "api/stm_api.hpp"

namespace zstm::server {

using Key = std::uint64_t;
using Value = std::int64_t;

/// The store interface: one virtual call per operation.
class KvStore {
 public:
  struct ScanResult {
    std::uint64_t count = 0;
    Value sum = 0;
  };

  KvStore() = default;
  KvStore(const KvStore&) = delete;  // KvStoreT's map points at its stm
  KvStore& operator=(const KvStore&) = delete;
  virtual ~KvStore() = default;

  virtual std::optional<Value> get(Key key) = 0;
  /// True if the key was newly inserted (false = overwritten).
  virtual bool put(Key key, Value value) = 0;
  /// True if the key existed.
  virtual bool del(Key key) = 0;
  /// One consistent snapshot of keys [first, first + count). Missing keys
  /// yield no entry; `found` (the return) counts the present ones.
  virtual std::size_t multi_get(Key first, std::uint32_t count,
                                std::vector<Value>* out) = 0;
  /// Move `amount` from `from` to `to` atomically. False (no effect) if
  /// either key is absent or from == to.
  virtual bool transfer(Key from, Key to, Value amount) = 0;
  /// Full long read-only scan: element count and value sum (the
  /// conservation invariant the tests pin). One walk — the structural
  /// audit is a separate call.
  virtual ScanResult scan() = 0;
  /// Structural audit (size + intra-bucket sortedness), as one long
  /// read-only transaction.
  virtual adt::AuditResult audit() = 0;

  /// The owned façade's counters and starvation watchdog.
  virtual util::StatsSnapshot stats() const = 0;
  virtual util::ProgressTracker::Snapshot progress() const = 0;
};

/// KvStore over the façade S (an api::Stm<R>), which it owns.
template <typename S>
class KvStoreT final : public KvStore {
 public:
  using Map = adt::TMap<S, Key, Value>;

  /// multi_get switches from kReadOnly to kLong at this fanout.
  static constexpr std::uint32_t kLongThreshold = 8;

  KvStoreT(const api::CommonConfig& cfg, std::size_t buckets)
      : stm_(cfg), map_(stm_, buckets) {}

  std::optional<Value> get(Key key) override {
    std::optional<Value> out;
    stm_.run(api::TxKind::kReadOnly,
             [&](auto& tx) { out = map_.get(tx, key); });
    return out;
  }

  bool put(Key key, Value value) override {
    bool inserted = false;
    typename Map::Scratch scratch;  // one node across the retry ladder
    stm_.run(api::TxKind::kUpdate, [&](auto& tx) {
      inserted = map_.put(tx, key, value, &scratch);
    });
    return inserted;
  }

  bool del(Key key) override {
    bool erased = false;
    stm_.run(api::TxKind::kUpdate,
             [&](auto& tx) { erased = map_.erase(tx, key); });
    return erased;
  }

  std::size_t multi_get(Key first, std::uint32_t count,
                        std::vector<Value>* out) override {
    const api::TxKind kind = count >= kLongThreshold ? api::TxKind::kLong
                                                     : api::TxKind::kReadOnly;
    std::size_t found = 0;
    stm_.run(kind, [&](auto& tx) {
      found = 0;
      if (out != nullptr) out->clear();
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::optional<Value> v = map_.get(tx, first + i);
        if (v.has_value()) {
          ++found;
          if (out != nullptr) out->push_back(*v);
        }
      }
    });
    return found;
  }

  bool transfer(Key from, Key to, Value amount) override {
    if (from == to) return false;
    bool ok = false;
    stm_.run(api::TxKind::kUpdate, [&](auto& tx) {
      ok = false;
      const std::optional<Value> a = map_.get(tx, from);
      const std::optional<Value> b = map_.get(tx, to);
      if (!a.has_value() || !b.has_value()) return;
      map_.put(tx, from, *a - amount);
      map_.put(tx, to, *b + amount);
      ok = true;
    });
    return ok;
  }

  ScanResult scan() override {
    ScanResult r;
    stm_.run(api::TxKind::kLong, [&](auto& tx) {
      r = ScanResult{};
      map_.for_each(tx, [&](Key, Value v) {
        ++r.count;
        r.sum += v;
      });
    });
    return r;
  }

  adt::AuditResult audit() override {
    adt::AuditResult a;
    stm_.run(api::TxKind::kLong, [&](auto& tx) { a = map_.audit(tx); });
    return a;
  }

  util::StatsSnapshot stats() const override { return stm_.stats(); }
  util::ProgressTracker::Snapshot progress() const override {
    return stm_.progress();
  }

 private:
  S stm_;
  Map map_;
};

}  // namespace zstm::server
