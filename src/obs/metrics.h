#ifndef MMDB_OBS_METRICS_H_
#define MMDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mmdb::obs {

/// Compile-time observability switch. Building with -DMMDB_OBS_OFF (the
/// `MMDB_OBS_OFF` CMake option) turns every hot-path recording call —
/// `Counter::Increment`, `Gauge::Set`, `Histogram::Record`, `Span`
/// construction — into an inline no-op, for measuring the instrumentation
/// tax (bench_obs_overhead) or shaving the last percent off a production
/// build. Registration and exposition still work; they just report zeros.
#ifdef MMDB_OBS_OFF
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

/// Metric labels, e.g. {{"method", "bwm"}}. Order-insensitive: the
/// registry canonicalizes by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Shards per instrument. Concurrent recorders hash their thread onto a
/// shard so the fast path is one relaxed atomic RMW on a cache line that
/// is rarely contended — no lock, TSan-clean.
inline constexpr size_t kShardCount = 8;

namespace internal {

/// Stable per-thread shard index in [0, kShardCount).
size_t ShardIndex();

struct alignas(64) PaddedCount {
  std::atomic<int64_t> value{0};
};

/// Lock-free add on an atomic double (no fetch_add for doubles pre-C++20
/// on all toolchains; CAS loop is portable and contends only within one
/// shard).
inline void AtomicAdd(std::atomic<double>& target, double delta) {
  double observed = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(observed, observed + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Lock-free max on an atomic double.
inline void AtomicMax(std::atomic<double>& target, double candidate) {
  double observed = target.load(std::memory_order_relaxed);
  while (observed < candidate &&
         !target.compare_exchange_weak(observed, candidate,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// Monotonically increasing count. Name convention: `mmdb_*_total`.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
    if constexpr (kObsEnabled) {
      shards_[internal::ShardIndex()].value.fetch_add(
          delta, std::memory_order_relaxed);
    } else {
      (void)delta;
    }
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const internal::PaddedCount& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes the counter (tests and `Registry::Reset`).
  void Reset() {
    for (internal::PaddedCount& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  internal::PaddedCount shards_[kShardCount];
};

/// Last-write-wins instantaneous value (quarantine size, scrub results).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
    if constexpr (kObsEnabled) {
      value_.store(value, std::memory_order_relaxed);
    } else {
      (void)value;
    }
  }

  void Add(double delta) {
    if constexpr (kObsEnabled) {
      internal::AtomicAdd(value_, delta);
    } else {
      (void)delta;
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram. Buckets are cumulative upper bounds in
/// ascending order with an implicit +Inf bucket appended, exactly the
/// Prometheus histogram model. Recording is a bucket lookup plus four
/// relaxed atomic operations on the caller's shard — concurrent recorders
/// never block each other or a snapshot reader.
class Histogram {
 public:
  /// Buckets suiting query/IO latencies in seconds: 1µs .. 2.5s.
  static const std::vector<double>& DefaultLatencyBounds();

  /// `bounds` must be strictly ascending; empty selects the default
  /// latency bounds.
  explicit Histogram(std::vector<double> bounds = {});
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value) {
    if constexpr (kObsEnabled) {
      RecordImpl(value);
    } else {
      (void)value;
    }
  }

  /// A consistent-enough copy for reporting: each shard is read with
  /// relaxed loads, so a snapshot taken while recorders are running may
  /// be mid-update (count and sum can disagree by in-flight records), but
  /// it never tears a value and a quiescent snapshot is exact.
  struct Snapshot {
    std::vector<double> bounds;      ///< Upper bounds, ascending (no +Inf).
    std::vector<int64_t> counts;     ///< Per-bucket counts; size bounds+1.
    int64_t count = 0;               ///< Total records.
    double sum = 0.0;                ///< Sum of recorded values.
    double max = 0.0;                ///< Largest recorded value.

    double mean() const { return count > 0 ? sum / count : 0.0; }
    /// Prometheus-style quantile estimate (linear interpolation within
    /// the owning bucket; the overflow bucket reports `max`), clamped to
    /// [0, max] so it never exceeds the largest observed value.
    double Percentile(double q) const;
  };
  Snapshot Snap() const;

  const std::vector<double>& bounds() const { return bounds_; }

  void Reset();

 private:
  void RecordImpl(double value);

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<int64_t>[]> buckets;
    std::atomic<int64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };

  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

/// A process-wide, thread-safe named-instrument registry.
///
/// `Get*` registers on first use and returns the same pointer for the
/// same (name, labels) forever after — instruments are never deleted, so
/// call sites cache the pointer and record lock-free. Instruments sharing
/// a name form one family (same help text and type) and are exposed
/// together. Names must not be reused across instrument types.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The default registry every built-in instrument lives in. Never
  /// destroyed (spans can finish during static teardown).
  static Registry& Default();

  Counter* GetCounter(std::string_view name, std::string_view help,
                      Labels labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  Labels labels = {});
  /// Empty `bounds` selects `Histogram::DefaultLatencyBounds()`.
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          Labels labels = {},
                          std::vector<double> bounds = {});

  /// Prometheus text exposition format 0.0.4 (`# HELP` / `# TYPE` plus
  /// samples; histograms expose `_bucket`/`_sum`/`_count` series).
  void WriteText(std::ostream& os) const;

  /// The same data as one JSON document:
  /// {"counters":[...],"gauges":[...],"histograms":[...]}.
  void WriteJson(std::ostream& os) const;

  /// Zeroes every registered instrument (registrations survive).
  void Reset();

 private:
  template <typename T>
  struct Family {
    std::string help;
    /// Keyed by canonical label string; values never move (unique_ptr).
    std::map<std::string, std::unique_ptr<T>> instruments;
    /// Original labels per canonical key, for structured exposition.
    std::map<std::string, Labels> labels;
  };

  mutable std::mutex mu_;
  std::map<std::string, Family<Counter>, std::less<>> counters_;
  std::map<std::string, Family<Gauge>, std::less<>> gauges_;
  std::map<std::string, Family<Histogram>, std::less<>> histograms_;
};

}  // namespace mmdb::obs

#endif  // MMDB_OBS_METRICS_H_
