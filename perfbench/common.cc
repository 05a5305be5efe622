#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void SpanRecorder::Record(const std::string& name, int64_t op_id,
                          const std::function<void()>& body) {
  const int32_t index = static_cast<int32_t>(spans_.size());
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op_id = op_id;
  spans_.push_back(span);
  open_.push_back(index);
  const Clock::time_point start = Clock::now();
  body();
  const Clock::time_point end = Clock::now();
  open_.pop_back();
  spans_[index].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count();
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             end.time_since_epoch())
                             .count();
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int32_t offset = static_cast<int32_t>(spans_.size());
  for (SpanRecord span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t self = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    out[spans_[i].name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

std::map<std::string, int64_t> SpanRecorder::Counts() const {
  std::map<std::string, int64_t> out;
  for (const SpanRecord& span : spans_) ++out[span.name];
  return out;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op_id << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void ClassLatencies::Merge(const ClassLatencies& other) {
  for (const auto& [op_class, values] : other.samples_) {
    std::vector<double>& mine = samples_[op_class];
    mine.insert(mine.end(), values.begin(), values.end());
  }
  for (const auto& [op_class, values] : other.cpu_samples_) {
    std::vector<double>& mine = cpu_samples_[op_class];
    mine.insert(mine.end(), values.begin(), values.end());
  }
}

double ClassLatencies::MedianOf(const std::string& op_class) const {
  auto it = samples_.find(op_class);
  return it == samples_.end() ? 0.0 : Median(it->second);
}

double ClassLatencies::TailOf(const std::string& op_class,
                              std::string* label) const {
  auto it = samples_.find(op_class);
  const size_t n = it == samples_.end() ? 0 : it->second.size();
  for (const auto& [q, name] : {std::pair{0.99, "p99"}, {0.90, "p90"}}) {
    if (n >= 40 && static_cast<double>(n) * (1.0 - q) >= 10.0) {
      *label = name;
      return Quantile(it->second, q);
    }
  }
  *label = "none";
  return 0.0;
}

namespace {

double GeoMeanOfClassMedians(
    const std::map<std::string, std::vector<double>>& samples) {
  std::vector<double> medians;
  for (const auto& [op_class, values] : samples) {
    medians.push_back(Median(values));
  }
  return GeoMean(medians);
}

}  // namespace

double ClassLatencies::GeoMeanOfMedians() const {
  return GeoMeanOfClassMedians(samples_);
}

double ClassLatencies::GeoMeanOfCpuMedians() const {
  return GeoMeanOfClassMedians(cpu_samples_);
}

int64_t ClassLatencies::Total() const {
  int64_t total = 0;
  for (const auto& [op_class, values] : samples_) {
    total += static_cast<int64_t>(values.size());
  }
  return total;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value) {
  layers_[name] = value;
}

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Report::Print(bool trace) const {
  for (const Metric& metric : details_) {
    std::cout << "detail " << metric.name << " " << FormatNumber(metric.value)
              << " " << metric.unit << "\n";
  }
  std::vector<Metric> out;
  if (trace) {
    for (const auto& [name, unit] : LayerMetrics()) {
      auto it = layers_.find(name);
      out.push_back({name, it == layers_.end() ? 0.0 : it->second, unit});
    }
  } else {
    out = end_to_end_;
  }
  for (const Metric& metric : out) {
    std::cout << (trace ? "layer " : "metric ") << metric.name << " "
              << FormatNumber(metric.value) << " " << metric.unit << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    json << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
         << FormatNumber(out[i].value) << ", \"unit\": \"" << out[i].unit
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.bounds.images_bounded_per_query", "count"},
      {"core.bounds.rules_applied_per_query", "count"},
      {"core.bounds.us_per_image", "us"},
      {"core.bwm.main_accepts_per_query", "count"},
      {"core.bwm.accept_share", "ratio"},
      {"core.plan.plan_us", "us"},
      {"core.plan.stats_build_ms", "ms"},
      {"core.plan.examined_per_result", "ratio"},
      {"index.histogram_index.search_us", "us"},
      {"core.similarity.bounds_us_per_image", "us"},
      {"core.similarity.candidates_per_k", "ratio"},
      {"core.query_service.overhead_us", "us"},
      {"core.executor.queue_wait_us", "us"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.bytes_per_query", "bytes"},
      {"net.roundtrip_overhead_us", "us"},
      {"shard.fanout_us", "us"},
      {"shard.slowest_shard_us", "us"},
      {"shard.merge_us", "us"},
      {"shard.hedges_per_query", "count"},
      {"shard.imbalance", "ratio"},
      {"storage.insert_binary_us", "us"},
      {"storage.insert_edited_us", "us"},
      {"storage.fsyncs_per_insert", "count"},
      {"storage.pages_written_per_insert", "count"},
      {"storage.write_amplification", "ratio"},
      {"storage.flush_ms", "ms"},
      {"storage.reopen_ms", "ms"},
      {"storage.pool_hit_rate", "ratio"},
      {"storage.pages_read_per_fetch", "count"},
      {"image.editor.instantiate_us", "us"},
      {"editops.script_bytes", "bytes"},
      {"image.raster_bytes", "bytes"},
      {"self_us.bench", "us"},
      {"self_us.core.query_service", "us"},
      {"self_us.net.client", "us"},
      {"self_us.storage", "us"},
      {"trace.untraced_p50_ms", "ms"},
      {"trace.traced_p50_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void ReportLoop(const ClassLatencies& latencies, double wall_seconds,
                Report* report, int64_t ops) {
  if (ops < 0) ops = latencies.Total();
  report->EndToEnd("p50_ms", latencies.GeoMeanOfMedians(), "ms");
  report->EndToEnd("cpu_p50_ms", latencies.GeoMeanOfCpuMedians(), "ms");
  report->Detail("ops_per_s",
                 wall_seconds > 0 ? static_cast<double>(ops) / wall_seconds
                                  : 0.0,
                 "1/s");
  for (const auto& [op_class, values] : latencies.samples()) {
    report->Detail(op_class + "_p50_ms", Median(values), "ms");
    report->Detail(op_class + "_cpu_p50_ms",
                   Median(latencies.cpu_samples().at(op_class)), "ms");
    std::string label;
    const double tail = latencies.TailOf(op_class, &label);
    if (label != "none") report->Detail(op_class + "_" + label + "_ms", tail, "ms");
    report->Detail(op_class + "_samples", static_cast<double>(values.size()),
                   "count");
  }
}

}  // namespace perfbench
