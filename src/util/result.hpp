#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "util/check.hpp"

/// \file result.hpp
/// `Result<T>`: the non-throwing error channel of the batch service
/// (`rota::svc`) and of the parsers it and the fault layer share (request
/// lines, fault grammars, objectives, checkpoints, cache entries). The
/// library surface reports contract violations by throwing
/// util::precondition_error; a long-lived service cannot let a malformed
/// request unwind the process, so those entry points return a Result<T>
/// carrying either the value or a structured {code, message} error
/// instead.
///
/// Accessor misuse (value() on a failed Result, error() on a success) is a
/// caller bug, not a data error, and still trips ROTA_REQUIRE — the
/// non-throwing guarantee covers the *data path*, not broken call sites.

namespace rota::util {

/// Stable error taxonomy of the svc request protocol.
/// Values are part of the wire format (rendered by to_string into JSON
/// replies), so entries are append-only.
enum class ErrorCode {
  kInvalidArgument,    ///< malformed input (bad flag, bad JSON, bad field)
  kNotFound,           ///< named entity (workload, policy run) absent
  kDeadlineExceeded,   ///< request expired before execution started
  kCancelled,          ///< cancellation token fired before execution
  kResourceExhausted,  ///< request larger than a configured limit
  kUnavailable,        ///< engine shutting down / not accepting work
  kIo,                 ///< artifact or cache file could not be written/read
  kInternal,           ///< invariant failure (a library bug)
  kOverloaded,         ///< engine queue full; shed — retry after backoff
};

[[nodiscard]] std::string_view to_string(ErrorCode code);

/// One structured error: a stable code plus a human-readable message.
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Value-or-Error sum type. Construction from T or Error is implicit so
/// `return some_value;` and `return Error{...};` both read naturally.
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}              // NOLINT
  Result(Error error) : state_(std::move(error)) {}          // NOLINT
  Result(ErrorCode code, std::string message)
      : state_(Error{code, std::move(message)}) {}

  [[nodiscard]] bool ok() const { return state_.index() == 0; }
  explicit operator bool() const { return ok(); }

  /// The held value. \pre ok()
  [[nodiscard]] const T& value() const& {
    ROTA_REQUIRE(ok(), "Result::value() on an error: " + error().message);
    return std::get<0>(state_);
  }
  [[nodiscard]] T& value() & {
    ROTA_REQUIRE(ok(), "Result::value() on an error: " + error().message);
    return std::get<0>(state_);
  }
  /// Move the value out. \pre ok()
  [[nodiscard]] T&& take() && {
    ROTA_REQUIRE(ok(), "Result::take() on an error: " + error().message);
    return std::get<0>(std::move(state_));
  }

  /// The held error. \pre !ok()
  [[nodiscard]] const Error& error() const {
    ROTA_REQUIRE(!ok(), "Result::error() on a success value");
    return std::get<1>(state_);
  }

 private:
  std::variant<T, Error> state_;
};

/// Result<> for operations with no payload.
struct Unit {};
using Status = Result<Unit>;

inline std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument:
      return "invalid_argument";
    case ErrorCode::kNotFound:
      return "not_found";
    case ErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kResourceExhausted:
      return "resource_exhausted";
    case ErrorCode::kUnavailable:
      return "unavailable";
    case ErrorCode::kIo:
      return "io_error";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kOverloaded:
      return "overloaded";
  }
  ROTA_UNREACHABLE("unhandled ErrorCode");
}

}  // namespace rota::util
