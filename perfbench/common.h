#ifndef MMDB_PERFBENCH_COMMON_H_
#define MMDB_PERFBENCH_COMMON_H_

// Shared pieces of the end-to-end benchmark: run options, latency
// samples, the benchmark-side span recorder, and the report that becomes
// the final JSON line.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time used so far by every thread of this process, in seconds.
double ProcessCpuSeconds();

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the disk store and the span dump.
  std::string out_dir = ".bench_build/perfbench-out";
};

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);

/// Set-up is repeated this many times per run; `setup_s` is the median.
inline constexpr int kSetupRepeats = 3;

/// One recorded span: a layer's public call as seen from the benchmark.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same recorder, or -1.
  int32_t parent = -1;
  /// Operation the span belongs to (spans of one request share it).
  int64_t op_id = 0;
};

/// Span recorder owned by one thread. Spans stay in memory until the run
/// ends; `Merge` folds several recorders into one for the report.
class SpanRecorder {
 public:
  /// Times `body` as a span named `name`, nested under the innermost span
  /// still open on this recorder.
  void Record(const std::string& name, int64_t op_id,
              const std::function<void()>& body);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  void Merge(const SpanRecorder& other);

  /// Self time (span duration minus its children's) summed per name,
  /// in seconds, and the number of spans per name.
  std::map<std::string, double> SelfSeconds() const;
  std::map<std::string, int64_t> Counts() const;
  /// Durations in seconds of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes the spans as a JSON array to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// Wall-clock and process-CPU time of one operation, in milliseconds.
struct OpTime {
  double ms = 0.0;
  double cpu_ms = 0.0;
};

/// Runs `body` and times it on both clocks. The CPU clock counts every
/// thread of the process, so with one operation in flight it holds the
/// work that operation caused on client, server and worker threads.
template <typename Body>
OpTime TimeOp(Body&& body) {
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  body();
  const Clock::time_point end = Clock::now();
  return {SecondsBetween(start, end) * 1e3,
          (ProcessCpuSeconds() - cpu_start) * 1e3};
}

/// Latency samples per operation class, in milliseconds, on both clocks.
class ClassLatencies {
 public:
  void Add(const std::string& op_class, const OpTime& time) {
    samples_[op_class].push_back(time.ms);
    cpu_samples_[op_class].push_back(time.cpu_ms);
  }
  void Merge(const ClassLatencies& other);
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }
  const std::map<std::string, std::vector<double>>& cpu_samples() const {
    return cpu_samples_;
  }
  double MedianOf(const std::string& op_class) const;
  /// The highest of p99 / p90 / p50 that leaves at least ten samples
  /// beyond it; 0 when the class has fewer than forty samples.
  double TailOf(const std::string& op_class, std::string* label) const;
  /// Geometric mean over classes of each class's median wall time.
  double GeoMeanOfMedians() const;
  /// The same over the CPU-time samples.
  double GeoMeanOfCpuMedians() const;
  int64_t Total() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<double>> cpu_samples_;
};

/// Collects metrics and check outcomes and prints the result.
class Report {
 public:
  /// Records a correctness check; a false `ok` marks the run incorrect
  /// and prints `what` to stderr.
  void Check(bool ok, const std::string& what);
  bool correct() const { return correct_; }

  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  /// A per-class figure printed for reading, not part of the JSON line.
  void Detail(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value);

  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void AddOps(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Prints every detail line, then the JSON line with the end-to-end
  /// metrics (untraced run) or the per-layer metrics (traced run).
  void Print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> details_;
  std::map<std::string, double> layers_;
};

/// Every per-layer metric the traced run reports, with its unit, in
/// report order. A layer a workload leaves idle reports 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Records the closed-loop figures every workload reports: `p50_ms` and
/// `cpu_p50_ms` as the geometric mean of the class medians on each
/// clock, plus per-class median and tail detail lines and `ops_per_s`
/// (`ops`, default every sample, over `wall_seconds`).
void ReportLoop(const ClassLatencies& latencies, double wall_seconds,
                Report* report, int64_t ops = -1);

int RunEmbeddedHelmet(const Options& options, Report* report);
int RunServedSharded(const Options& options, Report* report);
int RunDiskFlag(const Options& options, Report* report);

}  // namespace perfbench

#endif  // MMDB_PERFBENCH_COMMON_H_
