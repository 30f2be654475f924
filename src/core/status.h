#ifndef SDTW_CORE_STATUS_H_
#define SDTW_CORE_STATUS_H_

/// \file status.h
/// \brief Error propagation without exceptions: Status and StatusOr<T>.
///
/// The retrieval service promises that one misbehaving request never
/// tears down the process — a worker fault, an expired deadline, or a
/// shed admission must fail exactly the affected request's future and
/// nothing else. That needs an error value that crosses thread and
/// future boundaries without throwing: Status carries a machine-checkable
/// code plus a human-readable message, and StatusOr<T> is the
/// std::expected-style sum of "a T" and "why there is no T" (the repo
/// targets C++20, so std::expected itself is out of reach).
///
/// Conventions, matching the absl/gRPC vocabulary the codes are named
/// after:
///  * Status::Ok() (code kOk) means success and carries no message;
///  * a StatusOr<T> holds either a value (ok() == true) or a non-OK
///    Status — constructing one from an OK status is a contract
///    violation and degrades to kUnknown so the invariant
///    "!ok() implies a real error code" always holds;
///  * value() on an error (or status() has no precondition) is guarded
///    by assert in debug builds; callers are expected to branch on ok()
///    first, exactly like std::expected::has_value().

#include <cassert>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace sdtw {
namespace core {

/// \brief Machine-checkable failure classification.
enum class StatusCode {
  kOk = 0,
  /// Caller error: malformed configuration or arguments (e.g. a
  /// QueryService constructed with queue_capacity == 0, or a query that
  /// is empty or holds a non-finite sample).
  kInvalidArgument,
  /// The request's deadline passed before it was served; it was shed
  /// without any DP evaluation.
  kDeadlineExceeded,
  /// Admission refused: queue at capacity under kReject, a kBlock
  /// submitter's bounded park timed out, or an injected admission fault.
  kResourceExhausted,
  /// The service is shut down (or never became serviceable).
  kUnavailable,
  /// A worker faulted while executing the request and the bounded
  /// retries were exhausted — the repeat offender is failed permanently.
  kWorkerFault,
  /// Fallback for unclassifiable failures (e.g. an unknown exception
  /// type escaping a worker).
  kUnknown,
};

/// Stable lowercase name of a code ("ok", "deadline_exceeded", ...).
inline std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kWorkerFault:
      return "worker_fault";
    case StatusCode::kUnknown:
      return "unknown";
  }
  return "unknown";
}

/// \brief A result code plus a diagnostic message. Cheap to copy when OK
/// (empty message), move-friendly otherwise.
class Status {
 public:
  /// Default is success, so `Status s; ... return s;` reads naturally.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "deadline_exceeded: queued past its deadline" — for logs and tests.
  std::string ToString() const {
    std::string out(StatusCodeName(code_));
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// \brief std::expected-style value-or-error (value_type T, error Status).
///
/// Implicitly constructible from both T and Status so `return hits;` and
/// `return Status(kWorkerFault, ...);` both work from a
/// StatusOr-returning function.
template <typename T>
class StatusOr {
 public:
  using value_type = T;

  /// Error state. An OK status here would break the "!ok() is a real
  /// error" invariant, so it is coerced to kUnknown (asserted in debug).
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : rep_(std::move(status)) {
    assert(!std::get<Status>(rep_).ok() &&
           "StatusOr constructed from an OK status");
    if (std::get<Status>(rep_).ok()) {
      rep_ = Status(StatusCode::kUnknown,
                    "StatusOr constructed from an OK status");
    }
  }
  /// Value state.
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : rep_(std::move(value)) {}

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// The error, or Status::Ok() when a value is held (mirrors
  /// absl::StatusOr::status()).
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    assert(ok() && "StatusOr::value() on an error");
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok() && "StatusOr::value() on an error");
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok() && "StatusOr::value() on an error");
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// The value, or `fallback` on error (by copy; convenience for tests).
  T value_or(T fallback) const& { return ok() ? value() : fallback; }

 private:
  std::variant<Status, T> rep_;
};

}  // namespace core
}  // namespace sdtw

#endif  // SDTW_CORE_STATUS_H_
