// Unit tests for the shared workload utilities behind the KV service's
// load generator: util::Zipfian (determinism, range, skew shape),
// util::LatencyHistogram (bucket geometry, quantile correctness against a
// sorted reference, merge) and server::RequestGen, the op-mix draw both KV
// rails share (mix shares, transfer keys, multi-get windows, determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "server/load_gen.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"
#include "util/zipfian.hpp"

namespace {

using zstm::server::LoadGenConfig;
using zstm::server::Op;
using zstm::server::RequestGen;
using zstm::util::LatencyHistogram;
using zstm::util::Zipfian;

TEST(Zipfian, DeterministicUnderFixedSeed) {
  Zipfian a(1024, 0.99, 42);
  Zipfian b(1024, 0.99, 42);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at draw " << i;
  }
  // A different seed produces a different sequence (overwhelmingly).
  Zipfian c(1024, 0.99, 43);
  Zipfian d(1024, 0.99, 42);
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += (c.next() == d.next()) ? 1 : 0;
  EXPECT_LT(same, 1000);
}

TEST(Zipfian, StaysInRange) {
  for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 4096ULL}) {
    for (double theta : {0.0, 0.5, 0.99}) {
      Zipfian z(n, theta, 7);
      for (int i = 0; i < 5000; ++i) ASSERT_LT(z.next(), n);
    }
  }
}

TEST(Zipfian, SkewConcentratesMass) {
  // theta = 0.99 over 1000 keys: the most frequent key should take far
  // more than the uniform share (~0.1%), and the top decile of keys a
  // clear majority of draws. Bounds are loose — this pins the shape, not
  // the exact distribution.
  constexpr std::uint64_t kN = 1000;
  constexpr int kDraws = 200000;
  Zipfian z(kN, 0.99, 1);
  std::map<std::uint64_t, int> freq;
  for (int i = 0; i < kDraws; ++i) ++freq[z.next()];

  std::vector<int> counts;
  counts.reserve(freq.size());
  for (const auto& [k, c] : freq) counts.push_back(c);
  std::sort(counts.rbegin(), counts.rend());

  EXPECT_GT(counts[0], kDraws / 50);  // hottest key >= 2% of all draws
  long top_decile = 0;
  for (std::size_t i = 0; i < counts.size() && i < kN / 10; ++i) {
    top_decile += counts[i];
  }
  EXPECT_GT(top_decile, kDraws / 2);
}

TEST(Zipfian, ThetaZeroIsRoughlyUniform) {
  constexpr std::uint64_t kN = 100;
  constexpr int kDraws = 100000;
  Zipfian z(kN, 0.0, 5);
  std::vector<int> freq(kN, 0);
  for (int i = 0; i < kDraws; ++i) ++freq[z.next()];
  const int expect = kDraws / static_cast<int>(kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    EXPECT_GT(freq[k], expect / 2) << "key " << k;
    EXPECT_LT(freq[k], expect * 2) << "key " << k;
  }
}

TEST(Zipfian, ScrambleSpreadsHotKeys) {
  // Unscrambled, ranks 0 and 1 are the two hottest keys and are adjacent;
  // scrambled, the two hottest keys should not be neighbours (pinned for
  // the default seed mix — adjacency would put them in one map bucket).
  Zipfian z(4096, 0.99, 9, /*scramble=*/true);
  std::map<std::uint64_t, int> freq;
  for (int i = 0; i < 100000; ++i) ++freq[z.next()];
  std::uint64_t hot1 = 0, hot2 = 0;
  int c1 = -1, c2 = -1;
  for (const auto& [k, c] : freq) {
    if (c > c1) {
      hot2 = hot1;
      c2 = c1;
      hot1 = k;
      c1 = c;
    } else if (c > c2) {
      hot2 = k;
      c2 = c;
    }
  }
  const std::uint64_t gap = hot1 > hot2 ? hot1 - hot2 : hot2 - hot1;
  EXPECT_GT(gap, 1u);
}

TEST(LatencyHistogram, BucketGeometry) {
  // Exact below kSubCount.
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubCount; ++v) {
    EXPECT_EQ(LatencyHistogram::index_of(v), v);
    EXPECT_EQ(LatencyHistogram::upper_bound(v), v);
  }
  // Every value's bucket upper bound is >= the value and within 1/16.
  zstm::util::Xorshift rng(3);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.next() >> (i % 40);
    const std::size_t idx = LatencyHistogram::index_of(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    const std::uint64_t ub = LatencyHistogram::upper_bound(idx);
    ASSERT_GE(ub, v);
    ASSERT_LE(ub - v, v / LatencyHistogram::kSubCount + 1);
    // Monotone: the next bucket's upper bound is strictly larger.
    if (idx + 1 < LatencyHistogram::kBuckets) {
      ASSERT_GT(LatencyHistogram::upper_bound(idx + 1), ub);
    }
  }
}

TEST(LatencyHistogram, QuantilesMatchSortedReference) {
  LatencyHistogram h;
  zstm::util::Xorshift rng(11);
  std::vector<std::uint64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform-ish spread over ~9 decades, like real latencies.
    const std::uint64_t v = rng.next() >> rng.next_below(50);
    ref.push_back(v);
    h.record(v);
  }
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(h.count(), ref.size());
  EXPECT_EQ(h.max(), ref.back());
  EXPECT_EQ(h.min(), ref.front());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const std::uint64_t exact =
        ref[static_cast<std::size_t>(q * (ref.size() - 1))];
    const std::uint64_t approx = h.quantile(q);
    // Upper bucket bound: >= a nearby exact rank, <= exact * (1 + 1/16)
    // plus rank slop from rounding. Compare in doubles — samples reach the
    // top of the u64 range, where `exact + exact / 8` would wrap.
    EXPECT_GE(static_cast<double>(approx),
              static_cast<double>(exact) * 0.875 - 2.0)
        << "q=" << q;
    EXPECT_LE(static_cast<double>(approx),
              static_cast<double>(exact) * 1.125 + 2.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeEqualsCombinedRecording) {
  LatencyHistogram a, b, all;
  zstm::util::Xorshift rng(17);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.next() >> 20;
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q));
  }
}

TEST(LatencyHistogram, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
  h.record(123);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.quantile(0.5), 123u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(RequestGen, DefaultMixSharesAndTransferKeys) {
  const LoadGenConfig cfg;
  RequestGen gen(cfg);
  constexpr int kDraws = 100000;
  std::map<Op, int> count;
  for (int i = 0; i < kDraws; ++i) {
    const zstm::server::Request req = gen.next();
    ++count[req.op];
    if (req.op == Op::kTransfer) {
      ASSERT_NE(req.key, req.key2);
    }
  }
  const auto share = [&](Op op) {
    return static_cast<double>(count[op]) / kDraws;
  };
  const auto& mix = cfg.mix;
  EXPECT_NEAR(share(Op::kPut), mix.put, 0.01);
  EXPECT_NEAR(share(Op::kDel), mix.del, 0.01);
  EXPECT_NEAR(share(Op::kMultiGet), mix.multi_get, 0.01);
  EXPECT_NEAR(share(Op::kScan), mix.scan, 0.01);
  EXPECT_NEAR(share(Op::kTransfer), mix.transfer, 0.01);
  const double rest =
      1.0 - mix.put - mix.del - mix.multi_get - mix.scan - mix.transfer;
  EXPECT_NEAR(share(Op::kGet), rest, 0.01);
}

TEST(RequestGen, SameSeedSameSequence) {
  LoadGenConfig cfg;
  cfg.poisson = true;  // the gap draws share the request stream
  RequestGen a(cfg);
  RequestGen b(cfg);
  for (int i = 0; i < 10000; ++i) {
    const zstm::server::Request ra = a.next();
    const zstm::server::Request rb = b.next();
    ASSERT_EQ(ra.op, rb.op) << "diverged at draw " << i;
    ASSERT_EQ(ra.key, rb.key) << "diverged at draw " << i;
    ASSERT_EQ(ra.key2, rb.key2) << "diverged at draw " << i;
    ASSERT_EQ(a.gap_ns(500.0), b.gap_ns(500.0)) << "diverged at draw " << i;
  }
}

TEST(RequestGen, MultiGetWindowsReachTheLastKey) {
  // Window [key, key + fanout): with one key to spare there are exactly
  // two windows, starting at 0 and 1, and both must be drawn.
  LoadGenConfig cfg;
  cfg.mix = {.put = 0, .del = 0, .multi_get = 1.0, .scan = 0, .transfer = 0};
  cfg.multi_fanout = 16;
  cfg.keyspace = cfg.multi_fanout + 1;
  RequestGen gen(cfg);
  std::map<std::uint64_t, int> starts;
  for (int i = 0; i < 1000; ++i) {
    const zstm::server::Request req = gen.next();
    ASSERT_EQ(req.op, Op::kMultiGet);
    ASSERT_EQ(req.fanout, cfg.multi_fanout);
    ASSERT_LE(req.key + req.fanout, cfg.keyspace);
    ++starts[req.key];
  }
  EXPECT_EQ(starts.size(), 2u);
  EXPECT_GT(starts[0], 0);
  EXPECT_GT(starts[1], 0);
}

}  // namespace
