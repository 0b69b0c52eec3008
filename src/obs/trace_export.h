// Chrome trace-event / Perfetto export for TraceSpan trees.
//
// TraceToChromeJson renders any span tree as the JSON object form of the
// Chrome trace-event format ({"traceEvents": [...], "displayTimeUnit":
// "ms"}), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// span becomes one complete ("ph":"X") event with microsecond ts/dur;
// process and thread names are emitted as "M" metadata events, and span
// attributes as each event's "args" object.
//
// TraceSpans record only durations, not absolute timestamps (by design —
// wall-clock starts would break the cross-thread-count determinism
// contract), so the exporter SYNTHESIZES a timeline: children of a span
// are laid out sequentially from the parent's start, except that a
// consecutive run of parallel-slot children (track() > 0, as tagged by
// MakeSlots fan-out sites) all start together at the fan-out point, each
// on its own synthetic thread (tid) so Perfetto renders them as
// overlapping tracks. Slot tids are allocated in tree-walk order, which
// makes the whole export a deterministic function of the span tree shape
// plus its recorded durations.

#pragma once

#include <string>

#include "obs/trace.h"

namespace qp::obs {

struct ChromeTraceOptions {
  /// Value of the process_name metadata event.
  std::string process_name = "qp";
};

/// Renders `root` as Chrome trace-event JSON (object form). Always valid
/// JSON, even for an empty tree.
std::string TraceToChromeJson(const TraceSpan& root,
                              const ChromeTraceOptions& options = {});

}  // namespace qp::obs
