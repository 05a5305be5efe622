#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

namespace mmdb::obs {

namespace internal {

size_t ShardIndex() {
  // Hash the thread id once per thread; consecutive thread ids hash to
  // spread shards even when ids are sequential.
  thread_local const size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShardCount;
  return index;
}

}  // namespace internal

namespace {

/// Canonical label key: sorted `k="escaped v"` pairs joined by commas.
/// Doubles as the exposition body between the braces.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string CanonicalLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ',';
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += '"';
  }
  return out;
}

/// Formats a double the way Prometheus clients do: shortest round-trip
/// representation, integral values without a useless mantissa.
std::string FormatValue(double value) {
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      value > -1e15 && value < 1e15) {
    return std::to_string(static_cast<int64_t>(value));
  }
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteJsonLabels(std::ostream& os, const Labels& labels) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) os << ',';
    first = false;
    os << '"' << EscapeJson(key) << "\":\"" << EscapeJson(value) << '"';
  }
  os << '}';
}

/// JSON numbers must be finite; histogram bounds never are +Inf here but
/// sums of garbage could be — clamp to strings prometheus-style? Keep it
/// simple: non-finite values are serialized as 0 (they cannot occur from
/// the recording API, which only ever adds finite durations).
double Finite(double v) { return v == v && v < 1e300 && v > -1e300 ? v : 0.0; }

}  // namespace

const std::vector<double>& Histogram::DefaultLatencyBounds() {
  static const std::vector<double>* const kBounds = new std::vector<double>{
      1e-6,   2.5e-6, 5e-6,  1e-5,   2.5e-5, 5e-5,  1e-4,
      2.5e-4, 5e-4,   1e-3,  2.5e-3, 5e-3,   1e-2,  2.5e-2,
      5e-2,   1e-1,   2.5e-1, 5e-1,  1.0,    2.5};
  return *kBounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBounds() : std::move(bounds)),
      shards_(kShardCount) {
  const size_t buckets = bounds_.size() + 1;  // +Inf overflow bucket.
  for (Shard& shard : shards_) {
    shard.buckets = std::make_unique<std::atomic<int64_t>[]>(buckets);
    for (size_t b = 0; b < buckets; ++b) {
      shard.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::RecordImpl(double value) {
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Shard& shard = shards_[internal::ShardIndex()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAdd(shard.sum, value);
  internal::AtomicMax(shard.max, value);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, shard.max.load(std::memory_order_relaxed));
  }
  return snap;
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const int64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (b >= bounds.size()) return max;  // Overflow bucket.
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      const double upper = bounds[b];
      const double within =
          (rank - static_cast<double>(cumulative)) / in_bucket;
      // Interpolation assumes the bucket is filled up to its upper bound;
      // no estimate may exceed what was actually observed.
      return std::clamp(
          lower + (upper - lower) * std::clamp(within, 0.0, 1.0), 0.0, max);
    }
    cumulative += in_bucket;
  }
  return max;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (size_t b = 0; b < bounds_.size() + 1; ++b) {
      shard.buckets[b].store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.max.store(0.0, std::memory_order_relaxed);
  }
}

Registry& Registry::Default() {
  static Registry* const registry = new Registry();  // Never destroyed.
  return *registry;
}

Counter* Registry::GetCounter(std::string_view name, std::string_view help,
                              Labels labels) {
  const std::string key = CanonicalLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  Family<Counter>& family = counters_[std::string(name)];
  if (family.help.empty()) family.help = std::string(help);
  auto [it, inserted] = family.instruments.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Counter>();
    family.labels[key] = std::move(labels);
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help,
                          Labels labels) {
  const std::string key = CanonicalLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  Family<Gauge>& family = gauges_[std::string(name)];
  if (family.help.empty()) family.help = std::string(help);
  auto [it, inserted] = family.instruments.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Gauge>();
    family.labels[key] = std::move(labels);
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::string_view help, Labels labels,
                                  std::vector<double> bounds) {
  const std::string key = CanonicalLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  Family<Histogram>& family = histograms_[std::string(name)];
  if (family.help.empty()) family.help = std::string(help);
  auto [it, inserted] = family.instruments.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Histogram>(std::move(bounds));
    family.labels[key] = std::move(labels);
  }
  return it->second.get();
}

void Registry::WriteText(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : counters_) {
    os << "# HELP " << name << ' ' << family.help << '\n';
    os << "# TYPE " << name << " counter\n";
    for (const auto& [key, counter] : family.instruments) {
      os << name;
      if (!key.empty()) os << '{' << key << '}';
      os << ' ' << counter->Value() << '\n';
    }
  }
  for (const auto& [name, family] : gauges_) {
    os << "# HELP " << name << ' ' << family.help << '\n';
    os << "# TYPE " << name << " gauge\n";
    for (const auto& [key, gauge] : family.instruments) {
      os << name;
      if (!key.empty()) os << '{' << key << '}';
      os << ' ' << FormatValue(gauge->Value()) << '\n';
    }
  }
  for (const auto& [name, family] : histograms_) {
    os << "# HELP " << name << ' ' << family.help << '\n';
    os << "# TYPE " << name << " histogram\n";
    for (const auto& [key, histogram] : family.instruments) {
      const Histogram::Snapshot snap = histogram->Snap();
      int64_t cumulative = 0;
      for (size_t b = 0; b <= snap.bounds.size(); ++b) {
        cumulative += snap.counts[b];
        os << name << "_bucket{";
        if (!key.empty()) os << key << ',';
        os << "le=\"";
        if (b == snap.bounds.size()) {
          os << "+Inf";
        } else {
          os << FormatValue(snap.bounds[b]);
        }
        os << "\"} " << cumulative << '\n';
      }
      os << name << "_sum";
      if (!key.empty()) os << '{' << key << '}';
      os << ' ' << FormatValue(snap.sum) << '\n';
      os << name << "_count";
      if (!key.empty()) os << '{' << key << '}';
      os << ' ' << snap.count << '\n';
    }
  }
}

void Registry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << '{';
  os << "\"counters\":[";
  bool first = true;
  for (const auto& [name, family] : counters_) {
    for (const auto& [key, counter] : family.instruments) {
      if (!first) os << ',';
      first = false;
      os << "{\"name\":\"" << EscapeJson(name) << "\",\"labels\":";
      WriteJsonLabels(os, family.labels.at(key));
      os << ",\"value\":" << counter->Value() << '}';
    }
  }
  os << "],\"gauges\":[";
  first = true;
  for (const auto& [name, family] : gauges_) {
    for (const auto& [key, gauge] : family.instruments) {
      if (!first) os << ',';
      first = false;
      os << "{\"name\":\"" << EscapeJson(name) << "\",\"labels\":";
      WriteJsonLabels(os, family.labels.at(key));
      os << ",\"value\":" << FormatValue(Finite(gauge->Value())) << '}';
    }
  }
  os << "],\"histograms\":[";
  first = true;
  for (const auto& [name, family] : histograms_) {
    for (const auto& [key, histogram] : family.instruments) {
      if (!first) os << ',';
      first = false;
      const Histogram::Snapshot snap = histogram->Snap();
      os << "{\"name\":\"" << EscapeJson(name) << "\",\"labels\":";
      WriteJsonLabels(os, family.labels.at(key));
      os << ",\"count\":" << snap.count
         << ",\"sum\":" << FormatValue(Finite(snap.sum))
         << ",\"max\":" << FormatValue(Finite(snap.max))
         << ",\"p50\":" << FormatValue(Finite(snap.Percentile(0.5)))
         << ",\"p95\":" << FormatValue(Finite(snap.Percentile(0.95)))
         << ",\"buckets\":[";
      for (size_t b = 0; b <= snap.bounds.size(); ++b) {
        if (b > 0) os << ',';
        os << "{\"le\":";
        if (b == snap.bounds.size()) {
          os << "\"+Inf\"";
        } else {
          os << FormatValue(snap.bounds[b]);
        }
        os << ",\"count\":" << snap.counts[b] << '}';
      }
      os << "]}";
    }
  }
  os << "]}";
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : counters_) {
    for (auto& [key, counter] : family.instruments) counter->Reset();
  }
  for (auto& [name, family] : gauges_) {
    for (auto& [key, gauge] : family.instruments) gauge->Reset();
  }
  for (auto& [name, family] : histograms_) {
    for (auto& [key, histogram] : family.instruments) histogram->Reset();
  }
}

}  // namespace mmdb::obs
