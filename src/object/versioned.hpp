// The versioned-object substrate shared by every runtime in this library.
//
// DESIGN.md §1 prescribes one object model for all four STMs (DSTM-style
// locators [4], as the paper requires): a transactional object points to an
// immutable Locator {writer, tentative, committed}; the logically current
// version is `tentative` iff the writer's status is kCommitted, and a
// transaction's whole write set becomes visible atomically when its status
// word flips — the single-CAS commit. Committed versions form a newest-first
// chain whose length the ObjectStore bounds (paper §4.4).
// Locators are not separate nodes: each version embeds the two that can
// point at it (DESIGN.md §7, "Embedded locators").
//
// The structures here are parameterized over per-runtime metadata instead of
// being re-declared per runtime:
//
//   * Version<Meta, Desc> — chain node; Meta carries the runtime's stamp
//                           (LSA scalar ts + Z-STM zone, CS-STM clock-domain
//                           ct, S-STM ct + reader lists). Embeds its settled
//                           and owned locators.
//   * Locator<Desc, Ver>  — the immutable DSTM locator triple.
//   * Object<Meta, Loc>   — one atomic locator pointer, the object id, the
//                           pruning cursor, and per-runtime object metadata
//                           (Z-STM's zone stamp `zc`).
//   * Var<T, Obj>         — the typed user-facing handle.
//
// ObjectStore (object_store.hpp) owns the objects and implements the
// acquire/open_for_write/install/settle/resolve/prune protocol over these
// types.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "runtime/payload.hpp"

namespace zstm::object {

/// Inline payload capacity of a Version: a vtable pointer plus one cache
/// line of value, so any trivially-copyable T up to 64 bytes is stored
/// inside the Version and the virtual clone() heap allocation is bypassed
/// entirely (DESIGN.md §7).
inline constexpr std::size_t kPayloadSboBytes = 64 + sizeof(void*);

/// Immutable locator (DSTM [4]). The logically current committed version is
/// `tentative` if `writer` is non-null and committed, otherwise `committed`.
template <typename Desc, typename Ver>
struct Locator {
  using Version = Ver;
  Desc* writer = nullptr;
  Ver* tentative = nullptr;
  Ver* committed = nullptr;
};

/// A committed (or tentative) object version. `vid` and the Meta fields are
/// written by the owning transaction before its commit CAS and read by
/// others only after they observe kCommitted (release/acquire through the
/// writer's status word).
template <typename Meta, typename Desc>
struct Version : Meta {
  using Locator = object::Locator<Desc, Version>;

  /// Adopt a heap payload (ownership transfers; freed with delete).
  template <typename... MetaArgs>
  explicit Version(runtime::Payload* payload, MetaArgs&&... meta_args)
      : Meta(std::forward<MetaArgs>(meta_args)...), data(payload) {}

  /// Clone `c.src`: into the inline buffer when it qualifies (trivially
  /// copyable, fits), else the type-erased heap fallback.
  template <typename... MetaArgs>
  explicit Version(runtime::ClonePayload c, MetaArgs&&... meta_args)
      : Meta(std::forward<MetaArgs>(meta_args)...) {
    data = c.src.clone_into(sbo_, sizeof sbo_);
    if (data == nullptr) data = c.src.clone();
  }

  ~Version() {
    if (payload_inline()) {
      data->~Payload();
    } else {
      delete data;
    }
  }

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  bool payload_inline() const {
    return static_cast<const void*>(data) == static_cast<const void*>(sbo_);
  }

  runtime::Payload* data;
  std::uint64_t vid = 0;  // history version id (0 when recording disabled)
  /// Position in the object's history: 0 for the initial version, and
  /// ObjectStore::install gives each tentative version its base's seq + 1,
  /// so seq is consecutive along `prev` (DESIGN.md §7, "Pruning").
  std::uint64_t seq = 0;
  /// Next-older committed version; severed when pruning.
  std::atomic<Version*> prev{nullptr};
  /// The locator an object holds while this version is its settled head.
  Locator settled{nullptr, nullptr, this};
  /// The locator an object holds while this tentative version's writer
  /// owns it; ObjectStore::install writes it before the CAS that
  /// publishes it. Both are immutable once published (DESIGN.md §7,
  /// "Embedded locators").
  Locator owned;

 private:
  alignas(runtime::Payload::kInlineAlign) unsigned char sbo_[kPayloadSboBytes];

 public:
  /// Next-newer committed version. ObjectStore::settle stores it before the
  /// CAS that publishes the successor; the pruning cursor follows it. It
  /// sits past the payload: it is the one field written after publication,
  /// and this keeps that store off the lines readers load.
  std::atomic<Version*> newer{nullptr};
};

/// Transactional object: one atomic locator pointer, the object id,
/// ObjectStore's pruning cursor, and whatever per-runtime metadata Meta
/// adds (e.g. Z-STM's zone stamp `zc`).
template <typename Meta, typename Loc>
struct Object : Meta {
  Object() = default;
  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  std::atomic<Loc*> loc{nullptr};
  std::uint64_t oid = 0;

  /// Oldest retained committed version (the chain's last node). Set by
  /// ObjectStore::allocate; ObjectStore::prune advances it by CAS.
  std::atomic<typename Loc::Version*> tail{nullptr};
};

/// Empty per-runtime metadata (runtimes that need nothing extra).
struct NoMeta {};

/// Typed handle to a transactional object. Cheap to copy; the object is
/// owned by the ObjectStore (and thus the Runtime) that created it.
template <typename T, typename Obj>
class Var {
 public:
  Var() = default;
  Obj* object() const { return obj_; }

 private:
  template <typename Traits>
  friend class ObjectStore;
  explicit Var(Obj* obj) : obj_(obj) {}
  Obj* obj_ = nullptr;
};

}  // namespace zstm::object
