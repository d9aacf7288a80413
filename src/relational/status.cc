#include "relational/status.h"

#ifdef EID_COVERAGE
// gcov's runtime (libgcov): writes the process's counters now.
extern "C" void __gcov_dump(void);
#endif

namespace eid {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kConstraintViolation: return "ConstraintViolation";
    case StatusCode::kUnsound: return "Unsound";
    case StatusCode::kInternal: return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {
[[noreturn]] void Abort() {
#ifdef EID_COVERAGE
  __gcov_dump();
#endif
  std::abort();
}

[[noreturn]] void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "eid: CHECK failed at %s:%d: %s\n", file, line, expr);
  Abort();
}
}  // namespace internal

}  // namespace eid
