#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace qp::obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Splits a series name `base{labels}` into its base and the brace-wrapped
/// label block ("" when the name carries no labels).
void SplitSeries(const std::string& name, std::string* base,
                 std::string* labels) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
  } else {
    *base = name.substr(0, brace);
    *labels = name.substr(brace);
  }
}

/// Re-wraps a series' label block with an extra label appended (used for
/// histogram `le` buckets): `{a="b"}` + `le="0.1"` -> `{a="b",le="0.1"}`.
std::string WithLabel(const std::string& labels, const std::string& extra) {
  if (labels.empty()) return "{" + extra + "}";
  return labels.substr(0, labels.size() - 1) + "," + extra + "}";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      count_(0),
      sum_bits_(0) {}

size_t Histogram::BucketFor(double value) const {
  return static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

void Histogram::Observe(double value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
  while (true) {
    double old_sum;
    static_assert(sizeof(old_sum) == sizeof(old_bits));
    __builtin_memcpy(&old_sum, &old_bits, sizeof(old_sum));
    double new_sum = old_sum + value;
    uint64_t new_bits;
    __builtin_memcpy(&new_bits, &new_sum, sizeof(new_bits));
    if (sum_bits_.compare_exchange_weak(old_bits, new_bits,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.buckets.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    snap.buckets.push_back(b.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  __builtin_memcpy(&snap.sum, &bits, sizeof(snap.sum));
  return snap;
}

double Histogram::QuantileOf(const Snapshot& snap,
                             const std::vector<double>& bounds, double p) {
  if (snap.count == 0 || bounds.empty()) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const double rank = p * static_cast<double>(snap.count);
  double cumulative = 0.0;
  // Walk the FINITE buckets only; interpolation needs both edges.
  const size_t finite = std::min(bounds.size(), snap.buckets.size());
  for (size_t i = 0; i < finite; ++i) {
    const double next = cumulative + static_cast<double>(snap.buckets[i]);
    if (next >= rank && snap.buckets[i] > 0) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double within =
          (rank - cumulative) / static_cast<double>(snap.buckets[i]);
      return lo + (hi - lo) * within;
    }
    cumulative = next;
  }
  // The rank lands in the implicit +Inf overflow bucket: there is no finite
  // upper edge to interpolate toward, so clamp to the highest finite bound.
  // This makes the estimate a LOWER bound on the true quantile — explicit
  // and documented rather than an accident of loop structure (see header).
  return bounds.back();
}

double Histogram::Quantile(double p) const {
  return QuantileOf(snapshot(), bounds_, p);
}

std::vector<double> DefaultLatencyBuckets() {
  // 1e-5s .. 10s, x10 per decade with 1/2.5/5 sub-steps.
  std::vector<double> bounds;
  for (double decade = 1e-5; decade < 10.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.5);
    bounds.push_back(decade * 5.0);
  }
  bounds.push_back(10.0);
  return bounds;
}

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

std::string LabeledName(const std::string& base,
                        const std::vector<MetricLabel>& labels) {
  if (labels.empty()) return base;
  std::string out = base + "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].key + "=\"" + EscapeLabelValue(labels[i].value) + "\"";
  }
  out += "}";
  return out;
}

namespace {

/// The cardinality-overflow spelling of a labeled series: same keys, every
/// value replaced by __other__. Parses the escaped label block (the only
/// unescaped '"' characters are the value delimiters).
std::string OverflowName(const std::string& name) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) return name;
  std::string out = name.substr(0, brace + 1);
  size_t i = brace + 1;
  while (i < name.size() && name[i] != '}') {
    const size_t eq = name.find('=', i);
    if (eq == std::string::npos || name.size() <= eq + 1 ||
        name[eq + 1] != '"') {
      return name;  // not a label block we built; leave the name alone
    }
    out += name.substr(i, eq - i) + "=\"__other__\"";
    size_t v = eq + 2;  // skip past the opening quote
    while (v < name.size() &&
           !(name[v] == '"' && name[v - 1] != '\\')) {
      ++v;
    }
    i = v + 1;
    if (i < name.size() && name[i] == ',') {
      out += ",";
      ++i;
    }
  }
  out += "}";
  return out;
}

}  // namespace

size_t MetricsRegistry::LabeledCountLocked(const std::string& base) const {
  const std::string prefix = base + "{";
  size_t n = 0;
  for (const auto& entry : counters_) {
    if (entry.name.compare(0, prefix.size(), prefix) == 0 &&
        entry.name != OverflowName(entry.name)) {
      ++n;
    }
  }
  for (const auto& entry : gauges_) {
    if (entry.name.compare(0, prefix.size(), prefix) == 0 &&
        entry.name != OverflowName(entry.name)) {
      ++n;
    }
  }
  for (const auto& entry : histograms_) {
    if (entry.name.compare(0, prefix.size(), prefix) == 0 &&
        entry.name != OverflowName(entry.name)) {
      ++n;
    }
  }
  return n;
}

std::string MetricsRegistry::CappedName(const std::string& name,
                                        bool exists) const {
  if (exists) return name;
  const size_t brace = name.find('{');
  if (brace == std::string::npos) return name;  // unlabeled: never capped
  const std::string overflow = OverflowName(name);
  if (overflow == name) return name;  // already the overflow series
  if (LabeledCountLocked(name.substr(0, brace)) < kLabelCardinalityLimit) {
    return name;
  }
  return overflow;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) {
    if (entry.name == name) return entry.counter.get();
  }
  const std::string capped = CappedName(name, /*exists=*/false);
  if (capped != name) {
    for (auto& entry : counters_) {
      if (entry.name == capped) return entry.counter.get();
    }
  }
  counters_.push_back({capped, help, std::make_unique<Counter>()});
  return counters_.back().counter.get();
}

const std::vector<Counter*>* MetricsRegistry::FindTable(
    const void* table) const {
  for (const ResolvedTable* t = resolved_.load(std::memory_order_acquire);
       t != nullptr; t = t->next) {
    if (t->table == table) return &t->counters;
  }
  return nullptr;
}

const std::vector<Counter*>& MetricsRegistry::AddTable(
    const void* table, std::vector<Counter*> counters) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const std::vector<Counter*>* cached = FindTable(table)) return *cached;
  auto node = std::make_unique<ResolvedTable>();
  node->table = table;
  node->counters = std::move(counters);
  node->next = resolved_.load(std::memory_order_relaxed);
  resolved_.store(node.get(), std::memory_order_release);
  resolved_tables_.push_back(std::move(node));
  return resolved_tables_.back()->counters;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : histograms_) {
    if (entry.name == name) return entry.histogram.get();
  }
  const std::string capped = CappedName(name, /*exists=*/false);
  if (capped != name) {
    for (auto& entry : histograms_) {
      if (entry.name == capped) return entry.histogram.get();
    }
  }
  histograms_.push_back(
      {capped, help, std::make_unique<Histogram>(std::move(bounds))});
  return histograms_.back().histogram.get();
}

Gauge* MetricsRegistry::GetGaugeImpl(const std::string& name,
                                     const std::string& help,
                                     bool as_counter) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : gauges_) {
    if (entry.name == name) return entry.gauge.get();
  }
  const std::string capped = CappedName(name, /*exists=*/false);
  if (capped != name) {
    for (auto& entry : gauges_) {
      if (entry.name == capped) return entry.gauge.get();
    }
  }
  gauges_.push_back({capped, help, std::make_unique<Gauge>(), as_counter});
  return gauges_.back().gauge.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return GetGaugeImpl(name, help, /*as_counter=*/false);
}

Gauge* MetricsRegistry::GetCounterGauge(const std::string& name,
                                        const std::string& help) {
  return GetGaugeImpl(name, help, /*as_counter=*/true);
}

Counter* MetricsRegistry::GetCounter(const std::string& base,
                                     const std::vector<MetricLabel>& labels,
                                     const std::string& help) {
  return GetCounter(LabeledName(base, labels), help);
}

Gauge* MetricsRegistry::GetGauge(const std::string& base,
                                 const std::vector<MetricLabel>& labels,
                                 const std::string& help) {
  return GetGauge(LabeledName(base, labels), help);
}

size_t MetricsRegistry::AddCollectionHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hooks_mu_);
  const size_t id = next_hook_id_++;
  hooks_.emplace_back(id, std::move(hook));
  return id;
}

void MetricsRegistry::RemoveCollectionHook(size_t id) {
  std::lock_guard<std::mutex> lock(hooks_mu_);
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->first == id) {
      hooks_.erase(it);
      return;
    }
  }
}

void MetricsRegistry::RunCollectionHooks() const {
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(hooks_mu_);
    hooks.reserve(hooks_.size());
    for (const auto& [id, hook] : hooks_) hooks.push_back(hook);
  }
  for (const auto& hook : hooks) hook();
}

Histogram* MetricsRegistry::GetHistogram(
    const std::string& base, const std::vector<MetricLabel>& labels,
    std::vector<double> bounds, const std::string& help) {
  return GetHistogram(LabeledName(base, labels), std::move(bounds), help);
}

namespace {

/// Indices of `entries` grouped by metric base name in first-seen order, so
/// every series of a family lands in ONE exposition block with ONE
/// "# TYPE" line even when registrations of different bases interleaved
/// (e.g. the per-window SLO gauges register attainment/burn/p50/p99 for
/// "1m" and then again for "5m"). The Prometheus text format requires
/// this: parsers reject a family that appears in two blocks.
template <typename Entry>
std::vector<std::pair<std::string, std::vector<size_t>>> GroupByBase(
    const std::vector<Entry>& entries) {
  std::vector<std::pair<std::string, std::vector<size_t>>> groups;
  std::string base, labels;
  for (size_t i = 0; i < entries.size(); ++i) {
    SplitSeries(entries[i].name, &base, &labels);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == base; });
    if (it == groups.end()) {
      groups.emplace_back(base, std::vector<size_t>{i});
    } else {
      it->second.push_back(i);
    }
  }
  return groups;
}

}  // namespace

std::string MetricsRegistry::RenderText() const {
  RunCollectionHooks();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string base, labels;
  for (const auto& [family, indices] : GroupByBase(counters_)) {
    if (!counters_[indices.front()].help.empty()) {
      out += "# HELP " + family + " " + counters_[indices.front()].help + "\n";
    }
    out += "# TYPE " + family + " counter\n";
    for (size_t i : indices) {
      SplitSeries(counters_[i].name, &base, &labels);
      out +=
          base + labels + " " + std::to_string(counters_[i].counter->Value()) +
          "\n";
    }
  }
  for (const auto& [family, indices] : GroupByBase(gauges_)) {
    if (!gauges_[indices.front()].help.empty()) {
      out += "# HELP " + family + " " + gauges_[indices.front()].help + "\n";
    }
    // Counter-rendered gauges (GetCounterGauge) declare their family as a
    // counter; the first entry decides for the whole family.
    out += "# TYPE " + family +
           (gauges_[indices.front()].as_counter ? " counter\n" : " gauge\n");
    for (size_t i : indices) {
      SplitSeries(gauges_[i].name, &base, &labels);
      out += base + labels + " " + FormatDouble(gauges_[i].gauge->Value()) +
             "\n";
    }
  }
  for (const auto& [family, indices] : GroupByBase(histograms_)) {
    if (!histograms_[indices.front()].help.empty()) {
      out +=
          "# HELP " + family + " " + histograms_[indices.front()].help + "\n";
    }
    out += "# TYPE " + family + " histogram\n";
    for (size_t i : indices) {
      SplitSeries(histograms_[i].name, &base, &labels);
      Histogram::Snapshot snap = histograms_[i].histogram->snapshot();
      const std::vector<double>& bounds = histograms_[i].histogram->bounds();
      uint64_t cumulative = 0;
      for (size_t b = 0; b < snap.buckets.size(); ++b) {
        cumulative += snap.buckets[b];
        std::string le =
            b < bounds.size() ? FormatDouble(bounds[b]) : std::string("+Inf");
        out += base + "_bucket" + WithLabel(labels, "le=\"" + le + "\"") +
               " " + std::to_string(cumulative) + "\n";
      }
      out += base + "_sum" + labels + " " + FormatDouble(snap.sum) + "\n";
      out += base + "_count" + labels + " " + std::to_string(snap.count) +
             "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  RunCollectionHooks();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(counters_[i].name);
    out += ":";
    out += std::to_string(counters_[i].counter->Value());
  }
  // Counter-rendered gauges belong with the counters in JSON too.
  for (size_t i = 0; i < gauges_.size(); ++i) {
    if (!gauges_[i].as_counter) continue;
    if (!first) out += ",";
    first = false;
    out += JsonQuote(gauges_[i].name);
    out += ":";
    out += FormatDouble(gauges_[i].gauge->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (size_t i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i].as_counter) continue;
    if (!first) out += ",";
    first = false;
    out += JsonQuote(gauges_[i].name);
    out += ":";
    out += FormatDouble(gauges_[i].gauge->Value());
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonQuote(histograms_[i].name);
    Histogram::Snapshot snap = histograms_[i].histogram->snapshot();
    out += ":{\"count\":";
    out += std::to_string(snap.count);
    out += ",\"sum\":";
    out += FormatDouble(snap.sum);
    out += ",\"bounds\":[";
    const std::vector<double>& bounds = histograms_[i].histogram->bounds();
    for (size_t j = 0; j < bounds.size(); ++j) {
      if (j > 0) out += ",";
      out += FormatDouble(bounds[j]);
    }
    out += "],\"buckets\":[";
    for (size_t j = 0; j < snap.buckets.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(snap.buckets[j]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string RenderText(const MetricsRegistry& registry) {
  return registry.RenderText();
}

std::string RenderJson(const MetricsRegistry& registry) {
  return registry.RenderJson();
}

}  // namespace qp::obs
