#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace qp::obs {

namespace {

/// Microseconds with sub-microsecond precision; Chrome accepts fractional
/// ts/dur.
std::string FormatMicros(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

class Exporter {
 public:
  explicit Exporter(const ChromeTraceOptions& options) : options_(options) {}

  /// Lays out `span` starting at `ts` (us) on `tid`, emits its event and
  /// recursively its children's, and returns the span's effective duration
  /// (its own recorded time, stretched to cover its children's extent).
  double Layout(const TraceSpan& span, double ts, int tid) {
    UseTid(tid, tid == 0 ? "main" : "");
    double cursor = ts;
    size_t i = 0;
    while (i < span.num_children()) {
      const TraceSpan& child = span.child(i);
      if (child.track() == 0) {
        cursor += Layout(child, cursor, tid);
        ++i;
        continue;
      }
      // A maximal consecutive run of parallel slots: all start at the
      // fan-out point, each on a fresh synthetic thread; the run's extent
      // is the slowest slot.
      double run_extent = 0.0;
      while (i < span.num_children() && span.child(i).track() > 0) {
        const TraceSpan& slot = span.child(i);
        const int slot_tid = next_tid_++;
        UseTid(slot_tid, "slot " + std::to_string(slot.track()));
        run_extent = std::max(run_extent, Layout(slot, cursor, slot_tid));
        ++i;
      }
      cursor += run_extent;
    }
    const double duration = std::max(span.seconds() * 1e6, cursor - ts);
    EmitComplete(span, ts, duration, tid);
    return duration;
  }

  std::string Finish() {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    // Metadata first: process name, then one thread_name per tid used.
    std::string meta = "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                       "\"name\":\"process_name\",\"args\":{\"name\":";
    meta += JsonQuote(options_.process_name);
    meta += "}}";
    Append(std::move(meta), &first, &out);
    for (const auto& [tid, name] : tids_) {
      std::string event = "{\"ph\":\"M\",\"pid\":1,\"tid\":" +
                          std::to_string(tid) +
                          ",\"name\":\"thread_name\",\"args\":{\"name\":";
      event += JsonQuote(name.empty() ? "track " + std::to_string(tid) : name);
      event += "}}";
      Append(std::move(event), &first, &out);
    }
    for (auto& event : events_) Append(std::move(event), &first, &out);
    out += "]}";
    return out;
  }

 private:
  void UseTid(int tid, const std::string& name) {
    for (auto& entry : tids_) {
      if (entry.first == tid) return;
    }
    tids_.emplace_back(tid, name);
  }

  void EmitComplete(const TraceSpan& span, double ts, double dur, int tid) {
    std::string event = "{\"ph\":\"X\",\"pid\":1,\"tid\":" +
                        std::to_string(tid) + ",\"ts\":" + FormatMicros(ts) +
                        ",\"dur\":" + FormatMicros(dur) + ",\"name\":";
    event += JsonQuote(span.name());
    if (!span.attrs().empty()) {
      event += ",\"args\":{";
      for (size_t i = 0; i < span.attrs().size(); ++i) {
        if (i > 0) event += ",";
        event += JsonQuote(span.attrs()[i].first);
        event += ":";
        event += JsonQuote(span.attrs()[i].second);
      }
      event += "}";
    }
    event += "}";
    events_.push_back(std::move(event));
  }

  static void Append(std::string event, bool* first, std::string* out) {
    if (!*first) out->push_back(',');
    *first = false;
    out->append(event);
  }

  const ChromeTraceOptions& options_;
  int next_tid_ = 1;
  std::vector<std::pair<int, std::string>> tids_;  ///< tid -> display name
  std::vector<std::string> events_;
};

}  // namespace

std::string TraceToChromeJson(const TraceSpan& root,
                              const ChromeTraceOptions& options) {
  Exporter exporter(options);
  exporter.Layout(root, 0.0, 0);
  return exporter.Finish();
}

}  // namespace qp::obs
