// Status / Result error-handling primitives, following the RocksDB/Arrow
// idiom: library code reports recoverable failures through return values
// rather than exceptions.

#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace qp {

/// Machine-readable classification of a failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kParseError,
  /// The query (or its combination with the personalization options) is not
  /// a valid personalization target: not a single SELECT, projects reserved
  /// columns, L exceeds the selected preferences, ...
  kInvalidQuery,
  /// A stored profile failed validation against the database schema.
  kProfileValidation,
  /// The engine failed while executing a (sub)query — data-dependent
  /// runtime failures, as opposed to statically invalid plans.
  kExecution,
  /// The request is valid but outside the supported subset (e.g. PPA over a
  /// relation without a single-column primary key).
  kUnsupported,
  /// The serving layer refused admission: every queue slot for the target
  /// shard is taken. Back off and resubmit; the scheduler itself never
  /// retries admission (that would amplify the overload).
  kOverloaded,
  /// The request's deadline passed before (or while) it executed. PPA
  /// converts an expiring deadline into a partial answer instead whenever a
  /// progressive prefix exists; this code surfaces when it cannot.
  kDeadlineExceeded,
  /// The caller cooperatively cancelled the request (CancelToken): the
  /// caller asked for the work to stop.
  kCancelled,
};

/// Returns a stable human-readable name for a StatusCode.
const char* StatusCodeName(StatusCode code);

/// True for the two cooperative-interruption codes (kDeadlineExceeded,
/// kCancelled): "the work was stopped", as opposed to "the work failed".
/// PPA uses this to convert a mid-round interruption into a partial answer
/// instead of an error.
bool IsCancellation(StatusCode code);

/// Process-wide hook invoked every time a non-OK Status is ORIGINATED (the
/// code+message constructor; copies and moves do not re-fire). This is the
/// dependency-inversion seam that lets obs::FlightRecorder capture every
/// error in the system without common depending on obs. The listener must
/// be cheap, reentrancy-safe and must not construct error Statuses itself.
/// Installation is atomic; pass nullptr to uninstall. Returns the previous
/// listener so wrappers can chain or restore it.
using StatusListener = void (*)(StatusCode code, const std::string& message);
StatusListener SetStatusListener(StatusListener listener);
/// Invokes the installed listener, if any, for a non-OK origination.
/// Called by the Status constructor; exposed for tests.
void NotifyStatusListener(StatusCode code, const std::string& message);

/// \brief Outcome of an operation that can fail without a payload.
///
/// A Status is cheap to copy in the OK case (no message allocation) and
/// carries a code plus a free-form message otherwise.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    if (code_ != StatusCode::kOk) NotifyStatusListener(code_, message_);
  }

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status InvalidQuery(std::string msg) {
    return Status(StatusCode::kInvalidQuery, std::move(msg));
  }
  static Status ProfileValidation(std::string msg) {
    return Status(StatusCode::kProfileValidation, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecution, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// \brief Outcome of an operation producing a value of type T on success.
///
/// Result<T> holds either a T or a non-OK Status. Accessing the value of a
/// failed Result is a programming error (asserted in debug builds).
template <typename T>
class Result {
 public:
  /// Implicit conversion from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit conversion from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }

  /// The failure status; Status::OK() when the result holds a value.
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` if this Result failed.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace qp

/// Propagates a non-OK Status from the current function.
#define QP_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::qp::Status _qp_status = (expr);            \
    if (!_qp_status.ok()) return _qp_status;     \
  } while (0)

#define QP_CONCAT_IMPL(a, b) a##b
#define QP_CONCAT(a, b) QP_CONCAT_IMPL(a, b)

/// Evaluates a Result<T> expression; on success binds the value to `lhs`,
/// on failure returns the error Status from the current function.
#define QP_ASSIGN_OR_RETURN(lhs, expr)                       \
  auto QP_CONCAT(_qp_result_, __LINE__) = (expr);            \
  if (!QP_CONCAT(_qp_result_, __LINE__).ok())                \
    return QP_CONCAT(_qp_result_, __LINE__).status();        \
  lhs = std::move(QP_CONCAT(_qp_result_, __LINE__)).value()
