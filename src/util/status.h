// Structured error handling for recoverable failures.
//
// The framework distinguishes three failure classes:
//  * internal invariant violations — FAV_CHECK (fatal, see util/check.h),
//  * input/config validation       — FAV_ENSURE (throws EnsureError),
//  * recoverable runtime failures  — Status / StatusError with an ErrorCode
//    from the taxonomy below, so callers (the sample-isolation layer, the
//    journal, the CLI) can classify and react instead of aborting.
// Result<T> carries either a value or a Status for APIs that report failure
// as a value rather than by throwing (e.g. journal reads, journaled runs).
#pragma once

#include <string>
#include <utility>

#include "util/check.h"

namespace fav {

/// Failure taxonomy. Codes are stable (journal frames serialize them); add
/// new codes at the end only.
enum class ErrorCode : int {
  kOk = 0,
  kInvalidArgument = 1,    // bad user input / config
  kFailedPrecondition = 2, // operation not valid in the current state
  kCycleBudgetExceeded = 3,// per-sample RTL cycle budget exhausted
  kDeadlineExceeded = 4,   // per-sample wall-clock deadline exhausted
  kSampleEvalFailed = 5,   // evaluation raised an unexpected error
  kSamplerFailed = 6,      // sampler raised while drawing a batch
  kJournalCorrupt = 7,     // journal integrity violation (checksum/meta)
  kJournalIoError = 8,     // journal file could not be opened/written
  kInternal = 9,           // invariant violation escaping as an error value
  kWorkerCrashed = 10,     // supervised worker process died evaluating a shard
  kSubprocessFailed = 11,  // worker spawn / pipe protocol failure
  kArtifactCorrupt = 12,   // pre-characterization artifact failed validation
  kArtifactStale = 13,     // artifact fingerprint/version does not match
  kStorageFull = 14,       // ENOSPC/EDQUOT/EIO: stop gracefully, resumable
  kIoError = 15,           // generic non-journal file I/O failure
  kUnavailable = 16,       // server at capacity and retries exhausted
  // Last code: journal records reject larger values (mc/journal.cpp).
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case ErrorCode::kCycleBudgetExceeded: return "CYCLE_BUDGET_EXCEEDED";
    case ErrorCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ErrorCode::kSampleEvalFailed: return "SAMPLE_EVAL_FAILED";
    case ErrorCode::kSamplerFailed: return "SAMPLER_FAILED";
    case ErrorCode::kJournalCorrupt: return "JOURNAL_CORRUPT";
    case ErrorCode::kJournalIoError: return "JOURNAL_IO_ERROR";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kWorkerCrashed: return "WORKER_CRASHED";
    case ErrorCode::kSubprocessFailed: return "SUBPROCESS_FAILED";
    case ErrorCode::kArtifactCorrupt: return "ARTIFACT_CORRUPT";
    case ErrorCode::kArtifactStale: return "ARTIFACT_STALE";
    case ErrorCode::kStorageFull: return "STORAGE_FULL";
    case ErrorCode::kIoError: return "IO_ERROR";
    case ErrorCode::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

/// An error code plus a human-readable message; kOk means success.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (is_ok()) return "OK";
    std::string s = error_code_name(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Exception wrapper around a non-ok Status, for throwing layers.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}
  StatusError(ErrorCode code, const std::string& message)
      : StatusError(Status(code, message)) {}

  const Status& status() const { return status_; }
  ErrorCode code() const { return status_.code(); }

 private:
  Status status_;
};

/// Either a value or a non-ok Status. Accessing value() on a failed Result is
/// an internal invariant violation (FAV_CHECK-fatal): test is_ok() first or
/// use value_or_throw() to convert the failure into a StatusError.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    FAV_CHECK_MSG(!status_.is_ok(), "Result built from an OK status");
  }

  bool is_ok() const { return status_.is_ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    FAV_CHECK_MSG(is_ok(), "value() on failed Result: " << status_.to_string());
    return value_;
  }
  T& value() & {
    FAV_CHECK_MSG(is_ok(), "value() on failed Result: " << status_.to_string());
    return value_;
  }
  T&& value() && {
    FAV_CHECK_MSG(is_ok(), "value() on failed Result: " << status_.to_string());
    return std::move(value_);
  }

  /// Returns the value or throws StatusError with the failure status.
  T value_or_throw() && {
    if (!is_ok()) throw StatusError(status_);
    return std::move(value_);
  }

 private:
  T value_{};
  Status status_;
};

}  // namespace fav
