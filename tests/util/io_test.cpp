#include "util/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

namespace fav::io {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos_reset();
    dir_ = fs::temp_directory_path() /
           ("fav_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    chaos_reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// Bit-at-a-time CRC32C: the definition the sliced implementation must match.
std::uint32_t crc32c_bitwise(const std::string& data, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

/// CRC of `data` copied to `misalign` bytes past an 8-byte boundary.
std::uint32_t crc32c_at(const std::string& data, std::size_t misalign) {
  alignas(8) char buf[128] = {};
  std::memcpy(buf + misalign, data.data(), data.size());
  return crc32c(buf + misalign, data.size());
}

// RFC 3720 test vectors for CRC32C (Castagnoli), plus the 9-byte check
// value, at every alignment.
TEST_F(IoTest, Crc32cKnownVectors) {
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xff');
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  const std::string check = "123456789";
  for (std::size_t misalign = 0; misalign < 8; ++misalign) {
    SCOPED_TRACE("misalign " + std::to_string(misalign));
    EXPECT_EQ(crc32c_at(zeros, misalign), 0x8A9136AAu);
    EXPECT_EQ(crc32c_at(ones, misalign), 0x62A8AB43u);
    EXPECT_EQ(crc32c_at(ascending, misalign), 0x46DD794Eu);
    EXPECT_EQ(crc32c_at(check, misalign), 0xE3069283u);
  }
}

TEST_F(IoTest, Crc32cChains) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = crc32c(data.data(), split);
    const std::uint32_t whole =
        crc32c(data.data() + split, data.size() - split, head);
    EXPECT_EQ(whole, crc32c(data.data(), data.size())) << "split " << split;
  }
  // Every odd length and unaligned start of a longer buffer, seeded and
  // unseeded, against the bitwise definition.
  std::string bytes(203, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 167 + 13) & 0xFF);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 1; start + len <= bytes.size(); len += 2) {
      const std::string piece = bytes.substr(start, len);
      ASSERT_EQ(crc32c(bytes.data() + start, len), crc32c_bitwise(piece))
          << "start " << start << " len " << len;
      ASSERT_EQ(crc32c(bytes.data() + start, len, 0xDEADBEEFu),
                crc32c_bitwise(piece, 0xDEADBEEFu))
          << "seeded, start " << start << " len " << len;
    }
  }
}

TEST_F(IoTest, PutGetLeRoundTrip) {
  std::string buf;
  put_le<std::uint32_t>(buf, 0xDEADBEEFu);
  put_le<std::uint64_t>(buf, 0x0123456789ABCDEFull);
  put_le<double>(buf, 0.1);
  std::size_t off = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  double c = 0;
  ASSERT_TRUE(get_le(buf, &off, &a));
  ASSERT_TRUE(get_le(buf, &off, &b));
  ASSERT_TRUE(get_le(buf, &off, &c));
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_EQ(c, 0.1);
  EXPECT_EQ(off, buf.size());
  std::uint32_t past = 0;
  EXPECT_FALSE(get_le(buf, &off, &past));  // exhausted
}

TEST_F(IoTest, AtomicWriteAndReadBack) {
  const std::string p = path("file.bin");
  std::string contents = "hello\0world";
  contents.push_back('\xff');
  ASSERT_TRUE(atomic_write_file(p, contents).is_ok());
  const Result<std::string> back = read_file(p);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), contents);
  // No temp litter left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(IoTest, ReadMissingFileFails) {
  const Result<std::string> r = read_file(path("absent"));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
}

TEST_F(IoTest, ErrnoClassification) {
  EXPECT_TRUE(errno_is_transient(EINTR));
  EXPECT_TRUE(errno_is_transient(EAGAIN));
  EXPECT_FALSE(errno_is_transient(ENOSPC));
  EXPECT_TRUE(errno_is_storage_full(ENOSPC));
  EXPECT_TRUE(errno_is_storage_full(EDQUOT));
  EXPECT_TRUE(errno_is_storage_full(EIO));
  EXPECT_FALSE(errno_is_storage_full(EACCES));
  EXPECT_EQ(status_from_errno(ENOSPC, "x").code(), ErrorCode::kStorageFull);
  EXPECT_EQ(status_from_errno(EACCES, "x").code(), ErrorCode::kIoError);
}

// A one-shot transient fault (EINTR on the first physical write) must be
// absorbed by the retry loop: the write succeeds and the bytes land.
TEST_F(IoTest, TransientWriteErrorIsRetried) {
  ChaosFile chaos;
  chaos.fail_write_at = 1;
  chaos.error = EINTR;
  chaos.sticky = false;
  chaos_install(chaos);
  const std::string p = path("retried.bin");
  ASSERT_TRUE(atomic_write_file(p, "payload").is_ok());
  chaos_reset();
  const Result<std::string> back = read_file(p);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "payload");
}

TEST_F(IoTest, TransientFsyncErrorIsRetried) {
  ChaosFile chaos;
  chaos.fail_fsync_at = 1;
  chaos.error = EINTR;
  chaos.sticky = false;
  chaos_install(chaos);
  ASSERT_TRUE(atomic_write_file(path("synced.bin"), "payload").is_ok());
}

// A sticky ENOSPC surfaces as kStorageFull and leaves any previous version
// of the target untouched (atomic publication).
TEST_F(IoTest, StickyEnospcFailsWithStorageFullAndKeepsOldFile) {
  const std::string p = path("kept.bin");
  ASSERT_TRUE(atomic_write_file(p, "old contents").is_ok());
  ChaosFile chaos;
  chaos.fail_write_at = 1;
  chaos.error = ENOSPC;
  chaos_install(chaos);
  const Status failed = atomic_write_file(p, "new contents");
  chaos_reset();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), ErrorCode::kStorageFull);
  const Result<std::string> back = read_file(p);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "old contents");
  // The failed temp file was cleaned up.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(IoTest, StickyEioOnFsyncIsStorageFull) {
  ChaosFile chaos;
  chaos.fail_fsync_at = 1;
  chaos.error = EIO;
  chaos_install(chaos);
  const Status failed = atomic_write_file(path("x"), "y");
  chaos_reset();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), ErrorCode::kStorageFull);
}

TEST_F(IoTest, FileLockBlocksSecondHolderUntilTimeout) {
  const std::string p = path("the.lock");
  FileLock first;
  ASSERT_TRUE(first.acquire(p, 1000).is_ok());
  EXPECT_TRUE(first.held());
  FileLock second;
  const Status blocked = second.acquire(p, 50);
  ASSERT_FALSE(blocked.is_ok());
  EXPECT_EQ(blocked.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(second.held());
  first.release();
  EXPECT_FALSE(first.held());
  ASSERT_TRUE(second.acquire(p, 1000).is_ok());
}

TEST_F(IoTest, FileLockHandoffAcrossThreads) {
  const std::string p = path("handoff.lock");
  FileLock first;
  ASSERT_TRUE(first.acquire(p, 1000).is_ok());
  std::thread releaser([&first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    first.release();
  });
  // flock is per-open-description, so a second open in the same process
  // still contends; the bounded-backoff wait must pick the lock up once the
  // holder releases it.
  FileLock second;
  const Status got = second.acquire(p, 5000);
  releaser.join();
  ASSERT_TRUE(got.is_ok()) << got.to_string();
}

TEST_F(IoTest, FsyncDirSucceedsOnRealDirectory) {
  EXPECT_TRUE(fsync_dir(dir_.string()).is_ok());
  EXPECT_FALSE(fsync_dir(path("no_such_subdir")).is_ok());
}

}  // namespace
}  // namespace fav::io
