#ifndef HISTWALK_UTIL_STATUS_H_
#define HISTWALK_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

// Status / Result<T> error handling for the histwalk library.
//
// The library does not use exceptions (per the project style). Fallible
// operations return a Status, or a Result<T> when they also produce a value.
// Programmer errors (broken invariants) abort through the HW_CHECK macros in
// util/check.h instead.

namespace histwalk::util {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,  // e.g. a query budget has been spent
  kBudgetExhausted,    // a shared (group-level) fetch budget refused the call
  kDataLoss,           // a durable file is corrupt or unrecoverably truncated
  kUnavailable,        // a service refused admission (capacity, memory, ...)
  kInternal,
  kDeadlineExceeded,   // an operation gave up after its caller-set deadline
  kParked,             // not an error: the call parked on a pending fetch
};

// Returns a stable lower-case name for `code` ("ok", "invalid_argument", ...).
std::string_view StatusCodeName(StatusCode code);

// A cheap value type carrying an error code and a human-readable message.
// The OK status carries no message and allocates nothing.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status BudgetExhausted(std::string msg) {
    return Status(StatusCode::kBudgetExhausted, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  // Carries no message, so it allocates nothing: it is returned on the hot
  // path of every parked walker step.
  static Status Parked() { return Status(StatusCode::kParked, std::string()); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "ok" or "<code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// True when a walk was cut by a spent query budget — either the access's
// own (kResourceExhausted) or a shared group quota (kBudgetExhausted).
// Budget stops are expected run terminations, not setup errors.
inline bool IsBudgetStop(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kBudgetExhausted;
}

// True when a durable store file (snapshot, WAL) failed validation — bad
// magic, checksum mismatch, or a truncation the reader cannot repair. The
// store layer guarantees corruption surfaces as this code rather than as
// silently wrong cache contents.
inline bool IsDataLoss(const Status& status) {
  return status.code() == StatusCode::kDataLoss;
}

// True when a long-lived service refused to take the work on at all — an
// admission-control rejection (concurrent-session cap, memory limit), not a
// budget cut mid-run and not a setup error. Callers are expected to retry
// later or against another instance; nothing was started or charged.
inline bool IsUnavailable(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

// True when an operation with a caller-set deadline ran out of time before
// completing — an RPC reply that never arrived, an admission wait that
// expired. Distinct from kUnavailable: the far side may still be working;
// nothing is known about whether the work happened.
inline bool IsDeadlineExceeded(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded;
}

// True when a neighbor query did not fail but PARKED on a pending fetch
// (access::AsyncFetcher::FetchOrPark): the step that made it unwinds with
// nothing changed and is re-run once the fetch lands (see core::Walker::
// Step). Only a step scheduler ever sees it; it never crosses the wire.
inline bool IsParked(const Status& status) {
  return status.code() == StatusCode::kParked;
}

// Result<T> is either a value or a non-OK Status (never both).
//
//   Result<Graph> g = builder.Build();
//   if (!g.ok()) return g.status();
//   Use(*g);
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    // A Result constructed from a status must carry an error; an OK status
    // with no value would be unusable.
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  T&& operator*() && { return *std::move(value_); }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  // The value, or `fallback` when this Result holds an error — for call
  // sites where a default is genuinely fine (optional config lookups);
  // error-propagating code uses HW_ASSIGN_OR_RETURN instead.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }
  T value_or(T fallback) && {
    return ok() ? *std::move(value_) : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value
};

}  // namespace histwalk::util

// Propagates a non-OK status from an expression producing a Status.
#define HW_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::histwalk::util::Status hw_status_ = (expr); \
    if (!hw_status_.ok()) return hw_status_;      \
  } while (false)

// Evaluates a Result<T> expression, propagating the error or binding the
// value: HW_ASSIGN_OR_RETURN(auto g, builder.Build());
#define HW_ASSIGN_OR_RETURN(lhs, expr)             \
  HW_ASSIGN_OR_RETURN_IMPL_(                       \
      HW_STATUS_CONCAT_(hw_result_, __LINE__), lhs, expr)
#define HW_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()
#define HW_STATUS_CONCAT_(a, b) HW_STATUS_CONCAT_IMPL_(a, b)
#define HW_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // HISTWALK_UTIL_STATUS_H_
