// obs::Registry and instrument semantics: exactness of the sharded-atomic
// counters and histograms under heavy concurrent recording (the test the
// `obs` ctest label runs under TSan via -DMMDB_SANITIZE=thread), plus the
// exposition formats.

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace mmdb::obs {
namespace {

TEST(RegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  Registry registry;
  Counter* a = registry.GetCounter("mmdb_test_total", "help");
  Counter* b = registry.GetCounter("mmdb_test_total", "help");
  EXPECT_EQ(a, b);
  Counter* labeled =
      registry.GetCounter("mmdb_test_total", "help", {{"method", "bwm"}});
  EXPECT_NE(a, labeled);
  // Label order must not matter: the registry canonicalizes by key.
  Counter* two = registry.GetCounter("mmdb_pair_total", "help",
                                     {{"a", "1"}, {"b", "2"}});
  Counter* two_swapped = registry.GetCounter("mmdb_pair_total", "help",
                                             {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(two, two_swapped);
}

TEST(RegistryTest, HistogramBucketsAreCumulativeInExposition) {
  Registry registry;
  Histogram* histogram = registry.GetHistogram(
      "mmdb_test_seconds", "help", {}, {0.1, 1.0, 10.0});
  histogram->Record(0.05);   // <= 0.1
  histogram->Record(0.5);    // <= 1.0
  histogram->Record(5.0);    // <= 10.0
  histogram->Record(50.0);   // overflow
  const Histogram::Snapshot snap = histogram->Snap();
  EXPECT_EQ(snap.count, 4);
  EXPECT_DOUBLE_EQ(snap.sum, 55.55);
  EXPECT_DOUBLE_EQ(snap.max, 50.0);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow.
  EXPECT_EQ(snap.counts[0], 1);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.counts[3], 1);

  std::ostringstream text;
  registry.WriteText(text);
  const std::string exposition = text.str();
  // Prometheus buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(exposition.find("# TYPE mmdb_test_seconds histogram"),
            std::string::npos);
  EXPECT_NE(exposition.find("mmdb_test_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("mmdb_test_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(exposition.find("mmdb_test_seconds_bucket{le=\"10\"} 3"),
            std::string::npos);
  EXPECT_NE(exposition.find("mmdb_test_seconds_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(exposition.find("mmdb_test_seconds_count 4"),
            std::string::npos);
}

TEST(RegistryTest, PercentileInterpolatesWithinBucket) {
  Histogram histogram({1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) histogram.Record(1.5);
  const Histogram::Snapshot snap = histogram.Snap();
  const double p50 = snap.Percentile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  // The overflow bucket reports the observed max, not infinity.
  histogram.Record(100.0);
  EXPECT_DOUBLE_EQ(histogram.Snap().Percentile(1.0), 100.0);
}

TEST(RegistryTest, PercentileNeverExceedsTheObservedMax) {
  // Every record lands in the (1, 100] bucket, far below its upper
  // bound; interpolation alone would put p95 near 95.
  Histogram histogram({1.0, 100.0});
  for (int i = 0; i < 20; ++i) histogram.Record(2.0 + 0.1 * i);
  const Histogram::Snapshot snap = histogram.Snap();
  EXPECT_DOUBLE_EQ(snap.max, 3.9);
  for (double q : {0.5, 0.95, 0.99, 1.0}) {
    const double estimate = snap.Percentile(q);
    EXPECT_GE(estimate, 0.0) << "q=" << q;
    EXPECT_LE(estimate, snap.max) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.Percentile(0.95), snap.max);
}

TEST(RegistryTest, ResetZeroesEveryInstrument) {
  Registry registry;
  Counter* counter = registry.GetCounter("mmdb_reset_total", "help");
  Gauge* gauge = registry.GetGauge("mmdb_reset_gauge", "help");
  Histogram* histogram = registry.GetHistogram("mmdb_reset_seconds", "help");
  counter->Increment(7);
  gauge->Set(3.5);
  histogram->Record(0.25);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(histogram->Snap().count, 0);
  // Registrations survive a reset: same pointers, still exposable.
  EXPECT_EQ(registry.GetCounter("mmdb_reset_total", "help"), counter);
}

TEST(RegistryTest, WriteJsonIsWellFormedEnoughToRoundTripCounts) {
  Registry registry;
  registry.GetCounter("mmdb_json_total", "help")->Increment(42);
  registry.GetHistogram("mmdb_json_seconds", "help")->Record(0.5);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"mmdb_json_total\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// The tentpole concurrency guarantee: many threads hammering the same
// histogram and counter never lose a record, and snapshots taken
// mid-flight are monotonic and never torn. Values are exactly
// representable doubles so the final sum check is equality, not
// tolerance. Run under TSan via -DMMDB_SANITIZE=thread + `ctest -L obs`.
TEST(RegistryConcurrencyTest, ConcurrentRecordsAreExactAndSnapshotsSafe) {
  Registry registry;
  Counter* counter = registry.GetCounter("mmdb_conc_total", "help");
  Histogram* histogram =
      registry.GetHistogram("mmdb_conc_seconds", "help", {},
                            {0.25, 1.0, 4.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  // 0.5 and 3.0 are dyadic rationals: kThreads * kPerThread * 3.5 is
  // exact in double arithmetic.
  constexpr double kLow = 0.5;
  constexpr double kHigh = 3.0;

  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    int64_t last_count = 0;
    double last_sum = 0.0;
    while (!done.load(std::memory_order_relaxed)) {
      const Histogram::Snapshot snap = histogram->Snap();
      // Monotonic: a later snapshot never shows less than an earlier one.
      EXPECT_GE(snap.count, last_count);
      EXPECT_GE(snap.sum, last_sum - 1e-9);
      // Never torn: bucket counts sum to the total count observed at the
      // moment each shard was read, so they can't exceed the final total.
      int64_t bucket_total = 0;
      for (int64_t c : snap.counts) bucket_total += c;
      EXPECT_LE(bucket_total,
                static_cast<int64_t>(kThreads) * 2 * kPerThread);
      last_count = snap.count;
      last_sum = snap.sum;
    }
  });

  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Record(kLow);
        histogram->Record(kHigh);
        counter->Increment();
      }
    });
  }
  for (std::thread& thread : recorders) thread.join();
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();

  EXPECT_EQ(counter->Value(),
            static_cast<int64_t>(kThreads) * kPerThread);
  const Histogram::Snapshot snap = histogram->Snap();
  EXPECT_EQ(snap.count, static_cast<int64_t>(kThreads) * 2 * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, kThreads * kPerThread * (kLow + kHigh));
  EXPECT_DOUBLE_EQ(snap.max, kHigh);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 0);                                // <= 0.25
  EXPECT_EQ(snap.counts[1],
            static_cast<int64_t>(kThreads) * kPerThread);      // 0.5
  EXPECT_EQ(snap.counts[2],
            static_cast<int64_t>(kThreads) * kPerThread);      // 3.0
  EXPECT_EQ(snap.counts[3], 0);                                // overflow
}

// Concurrent first-use registration of the same family must hand every
// thread the same instrument (the magic-statics pattern call sites use).
TEST(RegistryConcurrencyTest, ConcurrentRegistrationConverges) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[static_cast<size_t>(t)] = registry.GetCounter(
          "mmdb_race_total", "help", {{"method", "bwm"}});
      seen[static_cast<size_t>(t)]->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_EQ(seen[0]->Value(), kThreads);
}

}  // namespace
}  // namespace mmdb::obs
