// Recoverable-error types for the experiment-orchestration layer.
//
// The simulation engine itself keeps CCSIM_CHECK semantics — an internal
// inconsistency aborts (or, inside a ScopedCheckTrap, throws) because a
// corrupted model must never produce numbers. The *orchestration* layer
// above it (run one point, sweep many points, parse a config) deals in
// expected failures: a poisoned configuration, a tripped invariant, a point
// that blew its event budget. Those travel as Status/StatusOr so a sweep
// can record the failure and keep running its remaining points
// (docs/EXECUTION.md, "Failure semantics").
#ifndef CCSIM_UTIL_STATUS_H_
#define CCSIM_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace ccsim {

/// Failure classes the orchestration layer distinguishes. Deliberately
/// small: callers branch on "retryable budget trip vs. hard failure", not on
/// a fine-grained taxonomy.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Rejected before running (bad config, bad flag).
  kDeadlineExceeded,  ///< Event-budget trip (CCSIM_MAX_EVENTS).
  kInternal,          ///< CCSIM_CHECK trip or audit violation inside a run.
};

/// Stable display name for a status code ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value: either OK, or a code plus a human-readable
/// message carrying the diagnostics (check text, event-budget census, ...
class Status {
 public:
  /// Default is OK.
  Status() = default;

  /// An error status. `code` must not be kOk; use the default constructor
  /// (or Status::Ok()) for success.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    CCSIM_CHECK(code != StatusCode::kOk)
        << "error Status constructed with kOk; message: " << message_;
  }

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK", or "DEADLINE_EXCEEDED: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a T or the Status explaining why there is no T.
template <typename T>
class StatusOr {
 public:
  /// From an error status; `status.ok()` is a usage error.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    CCSIM_CHECK(!status_.ok())
        << "StatusOr constructed from an OK status with no value";
  }

  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// The contained value; aborts (check failure) if !ok().
  const T& value() const& {
    CCSIM_CHECK(ok()) << "StatusOr::value() on error: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    CCSIM_CHECK(ok()) << "StatusOr::value() on error: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    CCSIM_CHECK(ok()) << "StatusOr::value() on error: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value.
  std::optional<T> value_;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_STATUS_H_
