#include "common/status.h"

#include <atomic>

namespace qp {

namespace {
std::atomic<StatusListener> g_status_listener{nullptr};
}  // namespace

StatusListener SetStatusListener(StatusListener listener) {
  return g_status_listener.exchange(listener, std::memory_order_acq_rel);
}

void NotifyStatusListener(StatusCode code, const std::string& message) {
  StatusListener listener =
      g_status_listener.load(std::memory_order_acquire);
  if (listener != nullptr) listener(code, message);
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kInvalidQuery:
      return "InvalidQuery";
    case StatusCode::kProfileValidation:
      return "ProfileValidation";
    case StatusCode::kExecution:
      return "Execution";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kOverloaded:
      return "Overloaded";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

bool IsCancellation(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace qp
