// Lightweight Status / Result error-handling primitives.
//
// The library reports recoverable errors (bad user input, constraint
// violations, malformed rule text) through Status and Result<T> rather than
// exceptions, following the convention of production database codebases.
// Programming errors (violated preconditions) abort via EID_CHECK.

#ifndef EID_RELATIONAL_STATUS_H_
#define EID_RELATIONAL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace eid {

/// Machine-readable category of a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // malformed input: bad rule text, unknown attribute...
  kNotFound,          // lookup miss: attribute, relation, tuple id
  kAlreadyExists,     // duplicate insertion where uniqueness is required
  kFailedPrecondition,// operation not applicable in the current state
  kConstraintViolation, // key / uniqueness / consistency constraint broken
  kUnsound,           // an entity-identification result violates soundness
  kInternal,          // invariant broken inside the library
};

/// Human-readable name of a StatusCode ("OK", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// Success-or-error outcome of an operation. Cheap to copy on success.
///
/// [[nodiscard]] at class level: any call returning a Status by value
/// must consume it (propagate, check, or explicitly (void)-cast with a
/// comment saying why dropping it is sound). A silently dropped Status
/// is how constraint violations and corrupt inputs turn into wrong
/// answers instead of errors — the compiler rejects it build-wide.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
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
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status Unsound(std::string msg) {
    return Status(StatusCode::kUnsound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

namespace internal {
/// std::abort(), first flushing gcov's counters in coverage builds (the
/// `coverage` preset defines EID_COVERAGE), so the abort paths death
/// tests run count as executed.
[[noreturn]] void Abort();
}  // namespace internal

/// A value of type T or an error Status. Mirrors absl::StatusOr.
/// [[nodiscard]] like Status: a discarded Result drops both the value
/// and the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value (success).
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status; must not be OK.
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    if (std::get<Status>(data_).ok()) {
      std::fprintf(stderr, "eid: Result constructed from OK status\n");
      ::eid::internal::Abort();
    }
  }

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(data_); }

  /// Error status; OK when the Result holds a value.
  [[nodiscard]] Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(data_);
  }

  /// Precondition: ok().
  const T& value() const& {
    CheckOk();
    return std::get<T>(data_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(data_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::fprintf(stderr, "eid: Result::value() on error: %s\n",
                   std::get<Status>(data_).ToString().c_str());
      ::eid::internal::Abort();
    }
  }

  std::variant<T, Status> data_;
};

namespace internal {
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr);
}  // namespace internal

/// Aborts with a diagnostic when `cond` is false. For invariants, not for
/// recoverable errors.
#define EID_CHECK(cond)                                       \
  do {                                                        \
    if (!(cond)) {                                            \
      ::eid::internal::CheckFailed(__FILE__, __LINE__, #cond); \
    }                                                         \
  } while (0)

/// Propagates a non-OK Status out of the enclosing function.
#define EID_RETURN_IF_ERROR(expr)          \
  do {                                     \
    ::eid::Status _eid_st = (expr);        \
    if (!_eid_st.ok()) return _eid_st;     \
  } while (0)

/// Evaluates a Result<T> expression, assigns its value to `lhs` or
/// propagates its error.
#define EID_ASSIGN_OR_RETURN(lhs, rexpr)              \
  auto EID_CONCAT_(_eid_res, __LINE__) = (rexpr);     \
  if (!EID_CONCAT_(_eid_res, __LINE__).ok())          \
    return EID_CONCAT_(_eid_res, __LINE__).status();  \
  lhs = std::move(EID_CONCAT_(_eid_res, __LINE__)).value()

#define EID_CONCAT_INNER_(a, b) a##b
#define EID_CONCAT_(a, b) EID_CONCAT_INNER_(a, b)

}  // namespace eid

#endif  // EID_RELATIONAL_STATUS_H_
