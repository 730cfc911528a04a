// Vector timestamps (Fidge [3] / Mattern [6]) as an STM time base, per §4.
//
// A VcStamp is a value-type vector timestamp. Its components are the
// entries of the runtime's clock domain (timebase::RevDomain in
// plausible_clock.hpp): one per thread slot for an exact vector clock,
// r < n for §4.3's plausible clocks. Perceived time is merged (element-wise
// max) whenever a transaction accesses a shared object version, exactly as
// in Algorithm 1 line 8.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "object/pool_allocator.hpp"
#include "timebase/clock_order.hpp"

namespace zstm::timebase {

class VcStamp {
 public:
  using Alloc = object::PoolAllocator<std::uint64_t>;

  VcStamp() = default;
  explicit VcStamp(int dimension, const Alloc& alloc = Alloc())
      : components_(static_cast<std::size_t>(dimension), 0, alloc) {}

  int dimension() const { return static_cast<int>(components_.size()); }

  std::uint64_t operator[](int i) const {
    return components_[static_cast<std::size_t>(i)];
  }
  std::uint64_t& operator[](int i) {
    return components_[static_cast<std::size_t>(i)];
  }

  auto begin() const { return components_.begin(); }
  auto end() const { return components_.end(); }

  /// Element-wise maximum (the ⊔ of Algorithm 1, line 8: "dmax").
  void merge(const VcStamp& other);

  Order compare(const VcStamp& other) const;

  bool strictly_precedes(const VcStamp& other) const {
    return compare(other) == Order::kBefore;
  }
  bool concurrent_with(const VcStamp& other) const {
    return compare(other) == Order::kConcurrent;
  }
  bool operator==(const VcStamp& other) const {
    return components_ == other.components_;
  }

  std::string to_string() const;

 private:
  std::vector<std::uint64_t, Alloc> components_;
};

}  // namespace zstm::timebase
