// Crash-safe append-only record log: the one on-disk framing behind the
// sample journal (mc/journal.h, "FAVJRNL3") and the serve daemon's campaign
// ledger (mc/serve.h, "FAVLDGR1"). Callers own only their payload encoding.
//
//   file:    8-byte magic | record*
//   record:  u32 len | payload | u32 crc32c(payload)    (little-endian)
//
// Payloads are never empty. Every write is one hardened write plus an fsync
// before it returns; creating or truncating the file also fsyncs its parent
// directory, where POSIX keeps the name->inode link. Scan rule: a bad record
// (zero or oversized length, CRC mismatch, fewer bytes than promised) that
// reaches the physical end of the file is a torn tail — the normal crash
// artifact — and is dropped; a bad record followed by more bytes is mid-file
// damage (kJournalCorrupt).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/metrics.h"
#include "util/status.h"

namespace fav::io {

class RecordLog {
 public:
  /// Bytes of framing around every payload (length prefix + CRC).
  static constexpr std::size_t kFramingBytes = 2 * sizeof(std::uint32_t);

  /// The intact prefix ends at `valid_bytes` (pass it to open_append); the
  /// bytes up to `file_bytes` are a torn tail.
  struct ScanResult {
    std::uint64_t valid_bytes = 0;
    std::uint64_t file_bytes = 0;
  };
  using Visitor = std::function<Status(std::string_view payload)>;

  /// Streams every intact record of `path` to `visit`, one record in memory
  /// at a time. A wrong or short magic and mid-file damage fail with
  /// kJournalCorrupt, an unreadable file with its classified errno, and a
  /// payload over `max_len` bytes is a bad record. A non-ok Status from
  /// `visit` ends the scan and is returned.
  static Result<ScanResult> scan(const std::string& path,
                                 std::string_view magic, std::uint32_t max_len,
                                 const Visitor& visit);

  /// Optional observability: "<prefix>.commits" and "<prefix>.fsync_ns" per
  /// file fsync, "<prefix>.dir_fsyncs" and "<prefix>.dir_fsync_ns" per
  /// directory fsync. The sink must outlive the log.
  void set_metrics(MetricsSink* sink, std::string prefix);

  /// Creates (or truncates) `path` with `magic` and, unless `first` is
  /// empty, `first` as its first record, in one write. The parent directory
  /// must exist.
  Status create(const std::string& path, std::string_view magic,
                std::string_view first);
  /// Opens a scanned file for appending, first cutting it back to the
  /// scan's `valid_bytes`.
  Status open_append(const std::string& path, std::uint64_t valid_bytes);
  /// Appends one non-empty record (kFailedPrecondition when not open).
  Status append(std::string_view payload);

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  Status sync_file();
  Status sync_dir();
  /// "<prefix>.<name>" when a sink is set, else "".
  std::string metric(std::string_view name) const;

  std::string path_;
  std::unique_ptr<std::FILE, Closer> file_;
  MetricsSink* metrics_ = nullptr;
  std::string metric_prefix_;
};

}  // namespace fav::io
