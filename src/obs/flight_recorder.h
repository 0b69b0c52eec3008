// Flight recorder: a bounded MPSC-style event ring capturing the most
// recent notable events system-wide — completed top-level spans, error
// Statuses at their origination point, and free-form notes — so that when
// something goes wrong the last N events are dumpable on demand (the SQL
// shell's \flight command) or from a Status failure path, without having
// had verbose logging enabled beforehand.
//
// Error capture uses the qp::SetStatusListener hook (dependency inversion:
// qp::common cannot depend on qp::obs, so the Status constructor notifies
// an installed function pointer and CaptureStatusErrors points it here).
// The listener fires at ERROR ORIGINATION — every non-OK Status built from
// code+message — which deliberately includes errors that a caller later
// handles; the recorder answers "what happened recently", not "what
// escaped".

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace qp::obs {

enum class FlightEventKind {
  kSpan,   ///< a completed top-level span (name + wall time)
  kError,  ///< a non-OK Status origination (code name + message)
  kNote,   ///< free-form annotation from a subsystem
};

const char* FlightEventKindName(FlightEventKind kind);

/// \brief One entry of the flight recorder ring.
struct FlightEvent {
  FlightEventKind kind = FlightEventKind::kNote;
  std::string source;  ///< subsystem that recorded it ("serve", "exec", ...)
  std::string detail;  ///< span name, status string, or note text
  double seconds = 0.0;  ///< span wall time; 0 for errors/notes

  /// "kind source: detail [x.xxx ms]" (the bracket only for spans).
  std::string ToString() const;
};

/// \brief Bounded ring of recent FlightEvents.
///
/// Thread safety: Record and Snapshot are safe from any thread (see
/// OverwriteRing). CaptureStatusErrors installs/removes a process-global
/// hook and should be toggled from one place (typically main or the
/// serving context owner).
class FlightRecorder {
 public:
  /// Events the ring keeps; older ones are overwritten.
  static constexpr size_t kCapacity = 256;

  FlightRecorder();
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(FlightEventKind kind, std::string source, std::string detail,
              double seconds = 0.0);
  /// Records a completed span (name + seconds) under `source`.
  void RecordSpan(const TraceSpan& span, std::string source);

  /// Starts/stops mirroring every non-OK Status origination into this
  /// recorder via qp::SetStatusListener. Only one recorder can capture at
  /// a time: enabling steals the hook, disabling releases it only if this
  /// recorder still owns it. The destructor auto-disables.
  void CaptureStatusErrors(bool enable);

  /// Retained events, oldest first.
  std::vector<FlightEvent> Snapshot() const;

  /// Header line (seen/retained) plus one ToString line per event.
  std::string Dump() const;

  uint64_t seen() const { return ring_.seen(); }
  size_t capacity() const { return ring_.capacity(); }

  /// Process-wide default instance, used by the SQL shell and anything
  /// that wants a recorder without plumbing one through.
  static FlightRecorder& Global();

 private:
  OverwriteRing<FlightEvent> ring_;
  bool capturing_ = false;
};

}  // namespace qp::obs
