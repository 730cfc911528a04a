// The one trial runner every zstm_bench section drives its workers
// through: start them, release them together, run an optional warm-up and
// then the measured window, stop and join them. Each worker keeps its own
// counts and stamps its own start and stop, so nothing shared is written on
// the hot path and the window is timed where the work runs; the runner sums
// the counts after the join.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <latch>
#include <thread>
#include <vector>

namespace zstm::bench {

/// Global operator-new calls made so far by the calling thread. zstm_bench's
/// replacement operator new bumps it; in any other binary it stays 0.
inline constinit thread_local std::uint64_t t_heap_allocs = 0;

/// How long a trial runs. A zero `measure` makes a fixed-work trial: each
/// worker runs its op once, and the window lasts from the first worker's
/// start until the last worker returns from its op.
struct Window {
  std::chrono::milliseconds warmup{0};
  std::chrono::milliseconds measure{0};
};

template <typename Counts>
struct Trial {
  double seconds = 0;             // first worker's start to last one's stop
  std::uint64_t heap_allocs = 0;  // the workers' operator-new calls in it
  Counts counts{};                // the workers' counts from it, summed
};

/// Runs one trial on `threads` workers. Worker t builds its op with
/// `make_op(t)` on its own thread, so per-worker state (an RNG, a stamp)
/// lives there, then calls `op(counts)` until the window closes; ops during
/// the warm-up count into scratch counts that are dropped. `on_open` runs
/// on the calling thread just before the measured window opens. The
/// trial's seconds run from the first worker's start of counted work to
/// the last worker's stop, so neither a late wake-up of the calling thread
/// nor the join is timed.
template <typename Counts, typename MakeOp>
Trial<Counts> run_trial(int threads, Window window, MakeOp make_op,
                        const std::function<void()>& on_open = {}) {
  using Clock = std::chrono::steady_clock;
  const bool warm = window.warmup.count() > 0;
  const bool fixed_work = window.measure.count() == 0;
  std::latch start(threads + 1);
  std::atomic<bool> measuring{!warm};
  std::atomic<bool> stop{false};
  std::vector<Counts> counts(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> allocs(counts.size());
  std::vector<Clock::time_point> began(counts.size());
  std::vector<Clock::time_point> ended(counts.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      auto op = make_op(t);
      Counts scratch{};
      Counts mine{};
      start.arrive_and_wait();
      while (!measuring.load(std::memory_order_acquire)) op(scratch);
      const std::uint64_t allocs_before = t_heap_allocs;
      began[i] = Clock::now();
      if (fixed_work) {
        op(mine);
      } else {
        while (!stop.load(std::memory_order_acquire)) op(mine);
      }
      ended[i] = Clock::now();
      allocs[i] = t_heap_allocs - allocs_before;
      counts[i] = mine;
    });
  }

  if (!warm && on_open) on_open();
  start.arrive_and_wait();
  if (warm) {
    std::this_thread::sleep_for(window.warmup);
    if (on_open) on_open();
    measuring.store(true, std::memory_order_release);
  }
  if (!fixed_work) {
    std::this_thread::sleep_for(window.measure);
    stop.store(true, std::memory_order_release);
  }
  for (auto& w : workers) w.join();

  Trial<Counts> trial;
  trial.seconds = std::chrono::duration<double>(
                      *std::max_element(ended.begin(), ended.end()) -
                      *std::min_element(began.begin(), began.end()))
                      .count();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    trial.counts += counts[i];
    trial.heap_allocs += allocs[i];
  }
  return trial;
}

}  // namespace zstm::bench
