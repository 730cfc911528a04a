// Bounded exponential backoff for retry loops and for waiting out a
// committing owner (ObjectStore::acquire). Spins with pause hints first, then yields, so that on
// oversubscribed machines (threads > cores, as in the paper's 32-thread runs
// on 8 cores) waiting transactions release the CPU instead of starving the
// transaction they are waiting for.
#pragma once

#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace zstm::util {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  // Fallback: a compiler barrier keeps the loop from being optimized into a
  // pure busy-load of the same cache line.
  asm volatile("" ::: "memory");
#endif
}

class Backoff {
 public:
  /// Default window, in cpu_relax spins: the first episode, and the
  /// doubling cap after which episodes become sched_yield.
  static constexpr std::uint32_t kMinSpins = 4;
  static constexpr std::uint32_t kMaxSpins = 1024;

  /// `jitter_seed != 0` randomizes each episode uniformly over
  /// (limit/2, limit] — randomized-exponential backoff, so two transactions
  /// aborting each other don't wake in lockstep and re-collide forever.
  /// The default (0) keeps the exact deterministic spin counts.
  explicit Backoff(std::uint32_t min_spins = kMinSpins,
                   std::uint32_t max_spins = kMaxSpins,
                   std::uint64_t jitter_seed = 0)
      : limit_(min_spins), min_(min_spins), max_(max_spins),
        rng_(jitter_seed) {}

  /// One backoff episode; doubles the next episode up to the cap.
  void pause() {
    if (limit_ >= max_) {
      // Past the spin budget: assume the other party needs our core.
      std::this_thread::yield();
      return;
    }
    std::uint32_t spins = limit_;
    if (rng_ != 0) {
      // xorshift64: cheap, and private state means no sharing between
      // backoff instances.
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      spins = limit_ / 2 + 1 +
              static_cast<std::uint32_t>(rng_ % (limit_ / 2 + 1));
    }
    for (std::uint32_t i = 0; i < spins; ++i) cpu_relax();
    limit_ *= 2;
  }

  void reset() { limit_ = min_; }

  std::uint32_t current_limit() const { return limit_; }

 private:
  std::uint32_t limit_;
  std::uint32_t min_;
  std::uint32_t max_;
  std::uint64_t rng_;
};

}  // namespace zstm::util
