// Span recorder, per-layer metric accumulator and the span fold that
// checks per-operation accounting.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace bench {

int Tracer::Begin(std::string name, int64_t op) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end = Clock::now();
  // Spans close in LIFO order (they are RAII scopes).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %lld, "
                  "\"id\": %zu, \"parent\": %d}}%s\n",
                  s.name.c_str(), MicrosBetween(origin_, s.start),
                  MicrosBetween(s.start, s.end), static_cast<long long>(s.op),
                  i, s.parent, i + 1 < spans_.size() ? "," : "");
    os << line;
  }
  os << "], \"displayTimeUnit\": \"ms\"}\n";
}

double LayerMetrics::Mean(const std::string& name) const {
  auto it = acc_.find(name);
  if (it == acc_.end() || it->second.count == 0) return 0;
  return it->second.sum / static_cast<double>(it->second.count);
}

size_t LayerMetrics::Count(const std::string& name) const {
  auto it = acc_.find(name);
  return it == acc_.end() ? 0 : it->second.count;
}

std::vector<std::string> LayerMetrics::Names() const {
  std::vector<std::string> names;
  for (const auto& [name, acc] : acc_) names.push_back(name);
  return names;
}

namespace {

// Engine-side layers are reported in milliseconds, compile-side layers in
// microseconds.
std::string MetricName(const std::string& span) {
  return span.rfind("engine.", 0) == 0 ? span + "_ms" : span + "_us";
}

// An operation's children must account for its wall time within this
// tolerance; anything left is reported, never folded into a layer.
constexpr double kToleranceShare = 0.02;
constexpr double kToleranceFloorUs = 25.0;

}  // namespace

Accounting FoldSpans(const Tracer& tracer, const std::string& excluded,
                     LayerMetrics* layers, std::ostream& os) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> children_us(spans.size(), 0);
  std::vector<double> excluded_us(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    double d = MicrosBetween(s.start, s.end);
    size_t p = static_cast<size_t>(s.parent);
    if (s.name == excluded) {
      excluded_us[p] += d;
    } else {
      children_us[p] += d;
    }
  }

  struct Row {
    size_t calls = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Row> rows;
  Accounting acc;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double d = MicrosBetween(s.start, s.end);
    if (s.parent < 0) {
      double wall = d - excluded_us[i];
      double unaccounted = wall - children_us[i];
      acc.op_wall_ms += wall / 1000.0;
      acc.unaccounted_ms += unaccounted / 1000.0;
      ++acc.ops;
      if (std::abs(unaccounted) >
          std::max(kToleranceFloorUs, kToleranceShare * wall)) {
        ++acc.ops_over_tolerance;
      }
      continue;
    }
    if (s.name == excluded) continue;
    Row& r = rows[s.name];
    ++r.calls;
    r.total_us += d;
    r.self_us += d - children_us[i] - excluded_us[i];
    bool ms = s.name.rfind("engine.", 0) == 0;
    layers->Add(MetricName(s.name), ms ? d / 1000.0 : d);
  }

  char line[256];
  os << "per-layer spans (benchmark side, traced rounds only)\n";
  std::snprintf(line, sizeof(line), "  %-34s %8s %12s %12s %12s\n", "layer",
                "calls", "total_ms", "mean_us", "self_mean_us");
  os << line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "  %-34s %8zu %12.3f %12.2f %12.2f\n",
                  name.c_str(), r.calls, r.total_us / 1000.0,
                  r.total_us / static_cast<double>(r.calls),
                  r.self_us / static_cast<double>(r.calls));
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "  %-34s %8zu %12.3f   (%.3f%% of %.1f ms operation wall "
                "time; %zu ops outside %.0f%%/%.0fus)\n",
                "unaccounted", acc.ops, acc.unaccounted_ms,
                acc.op_wall_ms > 0
                    ? 100.0 * acc.unaccounted_ms / acc.op_wall_ms
                    : 0.0,
                acc.op_wall_ms, acc.ops_over_tolerance,
                100 * kToleranceShare, kToleranceFloorUs);
  os << line;
  return acc;
}

}  // namespace bench
