#include "util/record_log.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/io.h"

namespace fav::io {

namespace {

/// Appends `u32 len | payload | u32 crc32c(payload)` to `out`.
void put_record(std::string& out, std::string_view payload) {
  put_le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_le(out, crc32c(payload.data(), payload.size()));
}

}  // namespace

Result<RecordLog::ScanResult> RecordLog::scan(const std::string& path,
                                              std::string_view magic,
                                              std::uint32_t max_len,
                                              const Visitor& visit) {
  const std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "rb"));
  struct stat st {};
  if (f == nullptr || ::fstat(fileno(f.get()), &st) != 0) {
    return status_from_errno(errno, "open " + path + " for reading");
  }
  // Every read below stays inside the fstat size, so a short read is a
  // failing medium, never an end of file.
  const auto read = [&f](void* dst, std::size_t len) {
    return std::fread(dst, 1, len, f.get()) == len;
  };
  ScanResult result{magic.size(), static_cast<std::uint64_t>(st.st_size)};
  std::string buf(magic.size(), '\0');  // a short file keeps the zeros
  bool read_ok = true;
  if (result.file_bytes >= magic.size()) read_ok = read(buf.data(), buf.size());
  if (read_ok && buf != magic) {
    return Status(ErrorCode::kJournalCorrupt,
                  path + " does not start with " + std::string(magic));
  }
  while (read_ok && result.valid_bytes < result.file_bytes) {
    const std::uint64_t remaining = result.file_bytes - result.valid_bytes;
    std::uint32_t len = 0;  // stays 0 (a bad record) when not even 8 bytes
    if (remaining >= kFramingBytes) read_ok = read(&len, sizeof(len));
    const std::uint64_t extent = kFramingBytes + std::uint64_t{len};
    bool intact = read_ok && len != 0 && len <= max_len && extent <= remaining;
    if (intact) {
      buf.resize(len + sizeof(std::uint32_t));  // the payload, then its CRC
      read_ok = read(buf.data(), buf.size());
      std::uint32_t crc = 0;
      std::memcpy(&crc, buf.data() + len, sizeof(crc));
      intact = read_ok && crc == crc32c(buf.data(), len);
    }
    if (!read_ok || (!intact && extent >= remaining)) break;  // torn tail
    if (!intact) {
      return Status(ErrorCode::kJournalCorrupt,
                    path + " damaged mid-file (bad record at offset " +
                        std::to_string(result.valid_bytes) +
                        " followed by more data)");
    }
    if (Status s = visit(std::string_view(buf.data(), len)); !s.is_ok()) {
      return s;
    }
    result.valid_bytes += extent;
  }
  if (!read_ok) {
    return status_from_errno(errno != 0 ? errno : EIO, "read " + path);
  }
  return result;
}

void RecordLog::set_metrics(MetricsSink* sink, std::string prefix) {
  metrics_ = sink;
  metric_prefix_ = std::move(prefix);
}

Status RecordLog::create(const std::string& path, std::string_view magic,
                         std::string_view first) {
  FAV_CHECK(file_ == nullptr);
  path_ = path;
  file_.reset(std::fopen(path.c_str(), "wb"));
  if (file_ == nullptr) {
    return status_from_errno(errno, "open " + path + " for writing");
  }
  // One hardened write: one retry scope and exactly one chaos-countable
  // physical write for the whole header.
  std::string head(magic);
  if (!first.empty()) put_record(head, first);
  Status s = write_all(file_.get(), head.data(), head.size(), path_);
  if (s.is_ok()) s = sync_file();
  return s.is_ok() ? sync_dir() : s;
}

Status RecordLog::open_append(const std::string& path,
                              std::uint64_t valid_bytes) {
  FAV_CHECK(file_ == nullptr);
  path_ = path;
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > valid_bytes) {
    std::filesystem::resize_file(path, valid_bytes, ec);
  }
  if (ec) {
    return status_from_errno(ec.value(), "open " + path + " for appending");
  }
  if (size < valid_bytes) {
    return Status(ErrorCode::kIoError, path + " shrank after its scan");
  }
  file_.reset(std::fopen(path.c_str(), "ab"));
  if (file_ == nullptr) {
    return status_from_errno(errno, "open " + path + " for appending");
  }
  // The cut is inode metadata: make it durable before anything is appended,
  // so a crash cannot resurrect the torn tail between whole records.
  Status s = size > valid_bytes ? sync_file() : Status::ok();
  return s.is_ok() ? sync_dir() : s;
}

Status RecordLog::append(std::string_view payload) {
  if (file_ == nullptr) {
    return Status(ErrorCode::kFailedPrecondition,
                  "record log " + path_ + " is not open");
  }
  FAV_CHECK(!payload.empty());
  std::string record;
  record.reserve(payload.size() + kFramingBytes);
  put_record(record, payload);
  Status s = write_all(file_.get(), record.data(), record.size(), path_);
  return s.is_ok() ? sync_file() : s;
}

std::string RecordLog::metric(std::string_view name) const {
  if (metrics_ == nullptr) return {};
  return metric_prefix_ + "." + std::string(name);
}

Status RecordLog::sync_file() {
  const std::string timer = metric("fsync_ns");
  ScopeTimer scope(metrics_, timer);
  if (metrics_ != nullptr) metrics_->add_counter(metric("commits"));
  return flush_and_fsync(file_.get(), path_);
}

Status RecordLog::sync_dir() {
  const std::string timer = metric("dir_fsync_ns");
  ScopeTimer scope(metrics_, timer);
  if (metrics_ != nullptr) metrics_->add_counter(metric("dir_fsyncs"));
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  return fsync_dir(parent.empty() ? "." : parent.string());
}

}  // namespace fav::io
