#include "obs/flight_recorder.h"

#include <cstdio>

namespace qp::obs {

namespace {

/// The recorder currently wired to the Status listener hook. The listener
/// must be a plain function pointer (qp::common knows nothing about obs),
/// so the target recorder is a file-local atomic this trampoline reads.
std::atomic<FlightRecorder*> g_status_target{nullptr};

void StatusTrampoline(StatusCode code, const std::string& message) {
  FlightRecorder* target = g_status_target.load(std::memory_order_acquire);
  if (target == nullptr) return;
  target->Record(FlightEventKind::kError, "status",
                 std::string(StatusCodeName(code)) + ": " + message);
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kSpan:
      return "span";
    case FlightEventKind::kError:
      return "error";
    case FlightEventKind::kNote:
      return "note";
  }
  return "unknown";
}

std::string FlightEvent::ToString() const {
  std::string out = FlightEventKindName(kind);
  out += " ";
  out += source;
  out += ": ";
  out += detail;
  if (kind == FlightEventKind::kSpan) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " [%.3f ms]", seconds * 1e3);
    out += buf;
  }
  return out;
}

FlightRecorder::FlightRecorder() : ring_(kCapacity) {}

FlightRecorder::~FlightRecorder() { CaptureStatusErrors(false); }

void FlightRecorder::Record(FlightEventKind kind, std::string source,
                            std::string detail, double seconds) {
  FlightEvent event;
  event.kind = kind;
  event.source = std::move(source);
  event.detail = std::move(detail);
  event.seconds = seconds;
  ring_.Append(std::move(event));
}

void FlightRecorder::RecordSpan(const TraceSpan& span, std::string source) {
  Record(FlightEventKind::kSpan, std::move(source), span.name(),
         span.seconds());
}

void FlightRecorder::CaptureStatusErrors(bool enable) {
  if (enable == capturing_) return;
  capturing_ = enable;
  if (enable) {
    g_status_target.store(this, std::memory_order_release);
    SetStatusListener(&StatusTrampoline);
  } else {
    FlightRecorder* expected = this;
    if (g_status_target.compare_exchange_strong(
            expected, nullptr, std::memory_order_acq_rel)) {
      SetStatusListener(nullptr);
    }
  }
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  return ring_.Snapshot();
}

std::string FlightRecorder::Dump() const {
  const std::vector<FlightEvent> events = Snapshot();
  std::string out = "flight recorder: seen=" + std::to_string(seen()) +
                    " capacity=" + std::to_string(capacity()) +
                    " showing=" + std::to_string(events.size()) + "\n";
  for (const auto& event : events) {
    out += event.ToString();
    out += "\n";
  }
  return out;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

}  // namespace qp::obs
