#include "util/status.h"

namespace ccsim {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string text = StatusCodeName(code_);
  if (!message_.empty()) {
    text += ": ";
    text += message_;
  }
  return text;
}

}  // namespace ccsim
