#include "timebase/plausible_clock.hpp"

#include <stdexcept>

namespace zstm::timebase {

RevDomain::RevDomain(int entries, int dimension)
    : entries_(entries), shared_(static_cast<std::size_t>(entries)) {
  if (entries < 1) throw std::invalid_argument("REV needs at least 1 entry");
  if (dimension < entries) {
    // r ≤ n by definition; r == n is exactly a vector clock.
    throw std::invalid_argument("REV entries must not exceed dimension");
  }
}

void RevDomain::advance(int slot, VcStamp& stamp) {
  const int e = entry_of(slot);
  auto& counter = shared_[static_cast<std::size_t>(e)].value;
  std::uint64_t cur = counter.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    // Strictly above both the shared counter and anything this stamp already
    // observed for the entry: guarantees global uniqueness per entry and
    // that the commit timestamp dominates everything the transaction read.
    next = (cur > stamp[e] ? cur : stamp[e]) + 1;
  } while (!counter.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                          std::memory_order_relaxed));
  stamp[e] = next;
}

}  // namespace zstm::timebase
