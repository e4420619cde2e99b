// sssj::Status / StatusOr<T> — the error vocabulary of the public API.
//
// Every fallible entry point of the library (engine construction, Push,
// checkpointing, stream loaders, JoinService calls) returns a Status — a
// typed code plus a human-readable message — instead of bool / nullptr /
// string out-params. The codes follow the familiar canonical-status
// vocabulary so call sites can branch on *why* something failed:
//
//   kInvalidArgument     the given value can never be valid (bad theta,
//                        empty vector, malformed file contents)
//   kFailedPrecondition  the value could be valid, but not in the current
//                        state (timestamp regression, non-unit input when
//                        normalization is disabled)
//   kNotFound            a named thing does not exist (file, session)
//   kAlreadyExists       a named thing exists and must not (session name)
//   kOutOfRange          a numeric parameter is outside its domain
//                        (theta outside (0, 1], negative lambda)
//   kUnimplemented       the combination is deliberately unsupported
//                        (STR-AP)
//   kResourceExhausted   a bounded resource is at capacity right now
//                        (async ingest queue at its high-water mark);
//                        retrying after a drain can succeed
//   kDataLoss            a file exists but is corrupt or truncated
//   kIoError             the OS failed us mid-read/write
//   kInternal            a bug in this library
//
// StatusOr<T> carries either a value or a non-OK Status, for factories
// (SssjEngine::Make) and lookups (JoinService::FindSession).
#ifndef SSSJ_CORE_STATUS_H_
#define SSSJ_CORE_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace sssj {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kResourceExhausted,
  kDataLoss,
  kIoError,
  kInternal,
};

// "OK", "INVALID_ARGUMENT", ...
const char* ToString(StatusCode code);

class Status {
 public:
  // Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(code == StatusCode::kOk ? std::string()
                                                      : std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
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
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "INVALID_ARGUMENT: theta must be in (0, 1]; got 1.5".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) { return !(a == b); }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Either a T or a non-OK Status. Access to value() with !ok() is a
// programming error (asserted in debug builds; undefined in release, like
// dereferencing an empty optional).
template <typename T>
class StatusOr {
 public:
  // Implicit from a non-OK Status (an OK status without a value is a bug
  // and is coerced to kInternal so it can never masquerade as success).
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(status.ok() ? Status::Internal(
                                  "StatusOr constructed from OK status "
                                  "without a value")
                            : std::move(status)) {}

  // Implicit from a value.
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : has_value_(true), value_(std::move(value)) {}

  StatusOr(StatusOr&&) = default;
  StatusOr& operator=(StatusOr&&) = default;
  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(has_value_);
    return *value_;
  }
  T& value() & {
    assert(has_value_);
    return *value_;
  }
  T&& value() && {
    assert(has_value_);
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff has_value_
  bool has_value_ = false;
  std::optional<T> value_;
};

}  // namespace sssj

#endif  // SSSJ_CORE_STATUS_H_
