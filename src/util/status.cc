#include "util/status.h"

namespace histwalk::util {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kBudgetExhausted:
      return "budget_exhausted";
    case StatusCode::kDataLoss:
      return "data_loss";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kParked:
      return "parked";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out(StatusCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace histwalk::util
