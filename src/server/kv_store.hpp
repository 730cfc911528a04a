// KvStore — the KV service's storage engine (DESIGN.md §12.1): an
// adt::TMap over the api:: façade, one transaction per service operation,
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
// Generic over the façade type S: the service instantiates KvStore =
// KvStoreT<api::AnyStm> (variant picked by --runtime name); tests may use
// the zero-cost typed form.
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

template <typename S>
class KvStoreT {
 public:
  using Map = adt::TMap<S, Key, Value>;

  /// multi_get switches from kReadOnly to kLong at this fanout.
  static constexpr std::uint32_t kLongThreshold = 8;

  KvStoreT(S& stm, std::size_t buckets) : stm_(&stm), map_(stm, buckets) {}

  std::optional<Value> get(Key key) {
    std::optional<Value> out;
    stm_->run(api::TxKind::kReadOnly,
              [&](auto& tx) { out = map_.get(tx, key); });
    return out;
  }

  /// True if the key was newly inserted (false = overwritten).
  bool put(Key key, Value value) {
    bool inserted = false;
    typename Map::Scratch scratch;  // one node across the retry ladder
    stm_->run(api::TxKind::kUpdate, [&](auto& tx) {
      inserted = map_.put(tx, key, value, &scratch);
    });
    return inserted;
  }

  /// True if the key existed.
  bool del(Key key) {
    bool erased = false;
    stm_->run(api::TxKind::kUpdate,
              [&](auto& tx) { erased = map_.erase(tx, key); });
    return erased;
  }

  /// One consistent snapshot of keys [first, first + count). Missing keys
  /// yield no entry; `found` (the return) counts the present ones.
  std::size_t multi_get(Key first, std::uint32_t count,
                        std::vector<Value>* out) {
    const api::TxKind kind = count >= kLongThreshold ? api::TxKind::kLong
                                                     : api::TxKind::kReadOnly;
    std::size_t found = 0;
    stm_->run(kind, [&](auto& tx) {
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

  /// Move `amount` from `from` to `to` atomically. False (no effect) if
  /// either key is absent or from == to.
  bool transfer(Key from, Key to, Value amount) {
    if (from == to) return false;
    bool ok = false;
    stm_->run(api::TxKind::kUpdate, [&](auto& tx) {
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

  struct ScanResult {
    std::uint64_t count = 0;
    Value sum = 0;
  };

  /// Full long read-only scan: element count and value sum (the
  /// conservation invariant the tests pin). One walk — the structural
  /// audit is a separate call.
  ScanResult scan() {
    ScanResult r;
    stm_->run(api::TxKind::kLong, [&](auto& tx) {
      r = ScanResult{};
      map_.for_each(tx, [&](Key, Value v) {
        ++r.count;
        r.sum += v;
      });
    });
    return r;
  }

  /// Structural audit (size + intra-bucket sortedness), as one long
  /// read-only transaction.
  typename Map::AuditResult audit() {
    typename Map::AuditResult a;
    stm_->run(api::TxKind::kLong, [&](auto& tx) { a = map_.audit(tx); });
    return a;
  }

  S& stm() { return *stm_; }
  Map& map() { return map_; }

 private:
  S* stm_;
  Map map_;
};

using KvStore = KvStoreT<api::AnyStm>;

}  // namespace zstm::server
