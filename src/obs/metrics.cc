#include "obs/metrics.h"

#include <cstdio>
#include <sstream>

namespace cspdb::obs {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Timer& MetricsRegistry::GetTimer(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), std::make_unique<Timer>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  util::ReaderLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, timer] : timers_) {
    snap.timers[name] = {timer->count(), timer->total_ns()};
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  return snap;
}

namespace {

// Metric names are identifier-and-dot strings by convention, but escape
// defensively so the snapshot is valid JSON for any name.
void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out << "\\\"";
        break;
      case '\\':
        *out << "\\\\";
        break;
      default:
        // Escape DEL alongside the control range, and format via unsigned
        // char: a negative signed char sign-extends through %x into
        // eight hex digits, corrupting the JSON instead of escaping it.
        if (static_cast<unsigned char>(c) < 0x20 ||
            static_cast<unsigned char>(c) == 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out << buf;
        } else {
          *out << c;
        }
    }
  }
  *out << '"';
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  MetricsSnapshot snap = Snapshot();
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "\n    " : ",\n    ");
    AppendJsonString(&out, name);
    out << ": " << value;
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "\n    " : ",\n    ");
    AppendJsonString(&out, name);
    out << ": " << value;
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"timers\": {";
  first = true;
  for (const auto& [name, value] : snap.timers) {
    out << (first ? "\n    " : ",\n    ");
    AppendJsonString(&out, name);
    out << ": {\"count\": " << value.count
        << ", \"total_ns\": " << value.total_ns << "}";
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out << (first ? "\n    " : ",\n    ");
    AppendJsonString(&out, name);
    out << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"min\": " << h.min << ", \"max\": " << h.max
        << ", \"p50\": " << h.ValueAtQuantile(0.50)
        << ", \"p90\": " << h.ValueAtQuantile(0.90)
        << ", \"p99\": " << h.ValueAtQuantile(0.99)
        << ", \"p999\": " << h.ValueAtQuantile(0.999) << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      out << (first_bucket ? "" : ", ") << "["
          << Histogram::BucketLowerBound(static_cast<int>(i)) << ", "
          << Histogram::BucketUpperBound(static_cast<int>(i)) << ", "
          << h.buckets[i] << "]";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
  return out.str();
}

void MetricsRegistry::ResetAll() {
  // Reader lock is enough: the maps are only read, and the metric
  // objects reset through their own atomics.
  util::ReaderLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, timer] : timers_) timer->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace cspdb::obs
