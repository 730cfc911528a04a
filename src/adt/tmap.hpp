// adt::TMap / adt::TSet — transactional hash map and set built on the
// zstm::api façade (ROADMAP: "transactional data-structure library").
// Promoted from examples/tset.cpp's sorted linked list; the example is now
// a thin client of adt::TSet.
//
// Structure: a fixed array of bucket sentinels, each heading a key-sorted
// singly-linked list of nodes. Every node is one transactional object (a
// Var<Node>), so conflict granularity is per node: operations on different
// buckets never conflict, and operations in one bucket conflict only on
// the nodes they traverse. All methods take the caller's transaction
// handle, so several map operations (or several maps) compose into one
// atomic transaction — the KV service's multi_get/transfer do exactly
// that.
//
// `S` is an `api::Stm<R>` (a caller that picks the runtime by name goes
// through `api::visit_variant`). Requirements on S: `make_var<T>`,
// `template Var<T>` (a default-constructible, trivially-copyable handle),
// and a transaction handle with `read(var)` / `write(var)`. K and V must be
// trivially copyable (the word-granularity tl2 backend stores payloads by
// words).
//
// Memory: nodes are allocated with `make_var` inside the inserting
// transaction. A node unlinked by erase() stays owned by the runtime
// (concurrent readers may still traverse it) and is reclaimed only at
// runtime teardown — the same lifecycle the original example had. An
// insert aborted mid-attempt would leak its fresh node to teardown too;
// the `Scratch` parameter lets a retrying caller reuse one pre-allocated
// node across attempts instead (the façade's retry loop re-runs the whole
// body, so the scratch must live outside `run`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace zstm::adt {

/// What a structural walk found: element count and intra-bucket order.
struct AuditResult {
  std::uint64_t size = 0;
  bool sorted = true;  // strictly increasing keys within every bucket
};

template <typename S, typename K = std::uint64_t, typename V = std::int64_t,
          typename Hash = std::hash<K>>
class TMap {
 public:
  struct Node;
  using NodeVar = typename S::template Var<Node>;

  /// One transactional object per element. `has_next` stands in for a null
  /// handle (the façades' Var types have no uniform null test).
  struct Node {
    K key{};
    V value{};
    NodeVar next{};
    bool has_next = false;
  };

  /// Optional insert scratch: lets a caller whose body retries reuse one
  /// pre-allocated node across attempts (see header comment).
  struct Scratch {
    NodeVar node{};
    bool allocated = false;
  };

  TMap(S& stm, std::size_t buckets) : stm_(&stm) {
    if (buckets == 0) buckets = 1;
    heads_.reserve(buckets);
    for (std::size_t i = 0; i < buckets; ++i) {
      heads_.push_back(stm.template make_var<Node>(Node{}));
    }
  }

  std::size_t buckets() const { return heads_.size(); }

  template <typename Tx>
  std::optional<V> get(Tx& tx, const K& key) const {
    Node cur = tx.read(heads_[bucket_of(key)]);
    while (cur.has_next) {
      const Node nxt = tx.read(cur.next);
      if (nxt.key == key) return nxt.value;
      if (key < nxt.key) return std::nullopt;
      cur = nxt;
    }
    return std::nullopt;
  }

  template <typename Tx>
  bool contains(Tx& tx, const K& key) const {
    return get(tx, key).has_value();
  }

  /// Insert or update. Returns true if the key was inserted, false if an
  /// existing value was overwritten.
  template <typename Tx>
  bool put(Tx& tx, const K& key, const V& value, Scratch* scratch = nullptr) {
    NodeVar prev_var = heads_[bucket_of(key)];
    Node prev = tx.read(prev_var);
    while (prev.has_next) {
      const Node nxt = tx.read(prev.next);
      if (nxt.key == key) {
        tx.write(prev.next).value = value;
        return false;
      }
      if (key < nxt.key) break;
      prev_var = prev.next;
      prev = nxt;
    }
    Node fresh_node;
    fresh_node.key = key;
    fresh_node.value = value;
    fresh_node.next = prev.next;
    fresh_node.has_next = prev.has_next;
    NodeVar fresh;
    if (scratch != nullptr && scratch->allocated) {
      fresh = scratch->node;
      tx.write(fresh, fresh_node);
    } else {
      fresh = stm_->template make_var<Node>(fresh_node);
      if (scratch != nullptr) {
        scratch->node = fresh;
        scratch->allocated = true;
      }
    }
    Node& p = tx.write(prev_var);
    p.next = fresh;
    p.has_next = true;
    return true;
  }

  /// Remove `key`. Returns true if it was present. The unlinked node is
  /// retained by the runtime (see header comment).
  template <typename Tx>
  bool erase(Tx& tx, const K& key) {
    NodeVar prev_var = heads_[bucket_of(key)];
    Node prev = tx.read(prev_var);
    while (prev.has_next) {
      const Node nxt = tx.read(prev.next);
      if (nxt.key == key) {
        Node& p = tx.write(prev_var);
        p.next = nxt.next;
        p.has_next = nxt.has_next;
        return true;
      }
      if (key < nxt.key) return false;
      prev_var = prev.next;
      prev = nxt;
    }
    return false;
  }

  /// Visit every element (bucket-major, key-sorted within a bucket):
  /// fn(key, value). Run under TxKind::kLong this is the long read-only
  /// scan the paper's weaker criteria are about.
  template <typename Tx, typename Fn>
  void for_each(Tx& tx, Fn&& fn) const {
    for (const NodeVar& head : heads_) {
      Node cur = tx.read(head);
      while (cur.has_next) {
        const Node nxt = tx.read(cur.next);
        fn(nxt.key, nxt.value);
        cur = nxt;
      }
    }
  }

  /// Full structural walk: element count plus the intra-bucket sortedness
  /// invariant (the example's long-transaction consistency check).
  template <typename Tx>
  AuditResult audit(Tx& tx) const {
    AuditResult r;
    for (const NodeVar& head : heads_) {
      Node cur = tx.read(head);
      bool first = true;
      K last{};
      while (cur.has_next) {
        const Node nxt = tx.read(cur.next);
        if (!first && !(last < nxt.key)) r.sorted = false;
        last = nxt.key;
        first = false;
        ++r.size;
        cur = nxt;
      }
    }
    return r;
  }

 private:
  std::size_t bucket_of(const K& key) const {
    // std::hash is identity for integers on common stdlibs; remix so that
    // adjacent keys spread across buckets.
    std::uint64_t h = static_cast<std::uint64_t>(Hash{}(key));
    return util::splitmix64(h) % heads_.size();
  }

  S* stm_;
  std::vector<NodeVar> heads_;
};

/// Transactional set: TMap with a unit value.
template <typename S, typename K = std::uint64_t, typename Hash = std::hash<K>>
class TSet {
 public:
  using Map = TMap<S, K, unsigned char, Hash>;
  using Scratch = typename Map::Scratch;

  TSet(S& stm, std::size_t buckets) : map_(stm, buckets) {}

  std::size_t buckets() const { return map_.buckets(); }

  template <typename Tx>
  bool insert(Tx& tx, const K& key, Scratch* scratch = nullptr) {
    return map_.put(tx, key, 0, scratch);
  }
  template <typename Tx>
  bool erase(Tx& tx, const K& key) {
    return map_.erase(tx, key);
  }
  template <typename Tx>
  bool contains(Tx& tx, const K& key) const {
    return map_.contains(tx, key);
  }
  template <typename Tx, typename Fn>
  void for_each(Tx& tx, Fn&& fn) const {
    map_.for_each(tx, [&fn](const K& k, unsigned char) { fn(k); });
  }
  template <typename Tx>
  AuditResult audit(Tx& tx) const {
    return map_.audit(tx);
  }

 private:
  Map map_;
};

}  // namespace zstm::adt
