#ifndef ASEQ_COMMON_STATUS_H_
#define ASEQ_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace aseq {

/// \brief Error category of a Status.
///
/// The library does not throw exceptions from its public API; fallible
/// operations return Status or Result<T> (Arrow / RocksDB idiom).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnsupported,
  kIoError,
  kInternal,
  kResourceExhausted,
};

/// \brief Returns a human-readable name of the status code ("InvalidArgument"...).
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: either OK or a code plus message.
///
/// Cheap to copy in the OK case (no allocation); error construction allocates
/// only for the message string.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory for an OK status; reads better at call sites than `Status()`.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
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
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// \brief Either a value of type T or an error Status.
///
/// Accessing the value of an errored Result is a programming error and
/// asserts in debug builds.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value: `return 42;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status: `return Status::...;`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
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

  /// Moves the value out of the Result.
  T MoveValue() {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the current function.
#define ASEQ_RETURN_NOT_OK(expr)              \
  do {                                        \
    ::aseq::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (false)

/// Evaluates a Result-producing expression, assigning the value on success
/// and returning the error Status otherwise.
#define ASEQ_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value();

#define ASEQ_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define ASEQ_ASSIGN_OR_RETURN_NAME(x, y) ASEQ_ASSIGN_OR_RETURN_CONCAT(x, y)

#define ASEQ_ASSIGN_OR_RETURN(lhs, expr) \
  ASEQ_ASSIGN_OR_RETURN_IMPL(            \
      ASEQ_ASSIGN_OR_RETURN_NAME(_aseq_result_, __LINE__), lhs, expr)

}  // namespace aseq

#endif  // ASEQ_COMMON_STATUS_H_
