// Byte-level mutation test of the record log (util/record_log.h) through
// both formats built on it: a 3-shard sample journal (mc/journal.h,
// FAVJRNL3) and a 6-record campaign ledger (mc/serve.h, FAVLDGR1). Every
// truncation point, every single-byte flip and appended garbage must give
// either a clean kJournalCorrupt or exactly a prefix of the records that
// were written — never a record that was not.
#include "util/record_log.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "mc/journal.h"
#include "mc/serve.h"

namespace fav {
namespace {

namespace fs = std::filesystem;
using mc::CampaignLedger;

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kNoPrefix = static_cast<std::size_t>(-1);

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One format under test: the pristine file and how to load it.
struct Subject {
  std::string name;
  std::string path;
  std::string pristine;
  /// Records before the first data record (the journal's meta record).
  std::size_t header_records = 0;
  /// Loads the file at `path`: the number of data records recovered (after
  /// checking they are exactly the first ones written; kNoPrefix otherwise)
  /// or the error.
  std::function<Result<std::size_t>()> load;

  /// Offset one past each record, in file order.
  std::vector<std::size_t> record_ends() const {
    std::vector<std::size_t> ends;
    std::size_t off = kMagicBytes;
    while (off < pristine.size()) {
      std::uint32_t len = 0;
      std::memcpy(&len, pristine.data() + off, sizeof(len));
      off += io::RecordLog::kFramingBytes + len;
      ends.push_back(off);
    }
    EXPECT_EQ(off, pristine.size());
    return ends;
  }
};

mc::SampleRecord make_record(int i) {
  mc::SampleRecord rec;
  rec.sample.t = 3 + i;
  rec.sample.center = static_cast<netlist::NodeId>(11 * i + 2);
  rec.sample.weight = 0.25 + i;
  rec.te = 40 + static_cast<std::uint64_t>(i);
  rec.flipped_bits = {i, i + 5};
  rec.path = mc::OutcomePath::kRtl;
  rec.success = i % 2 == 0;
  rec.contribution = 0.5 * i;
  rec.fail_reason = i % 3 == 0 ? "" : "reason " + std::to_string(i);
  return rec;
}

std::string serialized(const mc::SampleRecord& rec) {
  std::string out;
  mc::serialize_record(rec, out);
  return out;
}

Subject journal_subject(const fs::path& root) {
  constexpr int kShard = 3;
  constexpr int kShards = 3;
  const std::string dir = (root / "journal").string();
  std::vector<mc::SampleRecord> recs;
  for (int i = 0; i < kShard * kShards; ++i) recs.push_back(make_record(i));
  mc::JournalMeta meta;
  meta.fingerprint = 0x5EED;
  meta.total_samples = recs.size();
  meta.context = "mutation";
  mc::JournalWriter writer;
  EXPECT_TRUE(writer.open_fresh(dir, meta).is_ok());
  for (int s = 0; s < kShards; ++s) {
    const mc::SampleRecord* shard = recs.data() + s * kShard;
    EXPECT_TRUE(writer.append_shard(s * kShard, shard, kShard).is_ok());
  }
  Subject subject;
  subject.name = "journal";
  subject.path = (fs::path(dir) / "campaign.fj").string();
  subject.pristine = read_bytes(subject.path);
  subject.header_records = 1;
  subject.load = [dir, recs]() -> Result<std::size_t> {
    Result<mc::JournalContents> read = mc::read_journal(dir);
    if (!read.is_ok()) return read.status();
    const std::vector<mc::SampleRecord>& got = read.value().records;
    if (got.size() % kShard != 0 || got.size() > recs.size()) {
      return kNoPrefix;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (serialized(got[i]) != serialized(recs[i])) return kNoPrefix;
    }
    return got.size() / kShard;
  };
  return subject;
}

/// A ledger's observable state: its open campaigns and next id.
std::string ledger_summary(const CampaignLedger& ledger) {
  std::string out;
  for (const CampaignLedger::Entry& e : ledger.interrupted()) {
    out += std::to_string(e.id) + ":" +
           std::to_string(static_cast<int>(e.state)) + ":";
    for (const std::string& a : e.args) out += a + ",";
    out += ";";
  }
  return out + "next=" + std::to_string(ledger.next_campaign_id());
}

Subject ledger_subject(const fs::path& root) {
  // Six lifecycle steps whose every prefix leaves a distinct state.
  const std::vector<std::function<Status(CampaignLedger&)>> steps = {
      [](CampaignLedger& l) { return l.accepted(1, {"evaluate", "-a"}); },
      [](CampaignLedger& l) { return l.running(1); },
      [](CampaignLedger& l) { return l.accepted(2, {"evaluate"}); },
      [](CampaignLedger& l) { return l.finished(1, 0); },
      [](CampaignLedger& l) { return l.running(2); },
      [](CampaignLedger& l) { return l.accepted(3, {"evaluate", "-c"}); },
  };
  Subject subject;
  std::vector<std::string> expected;  // summary after the first k steps
  for (std::size_t k = 0; k <= steps.size(); ++k) {
    const std::string path =
        (root / ("expect_" + std::to_string(k) + ".fvl")).string();
    Result<CampaignLedger> ledger = CampaignLedger::open(path);
    EXPECT_TRUE(ledger.is_ok());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(steps[i](ledger.value()).is_ok());
    }
    expected.push_back(ledger_summary(ledger.value()));
    subject.pristine = read_bytes(path);  // every append is already durable
  }
  subject.name = "ledger";
  subject.path = (root / "ledger.fvl").string();
  subject.load = [path = subject.path, expected]() -> Result<std::size_t> {
    Result<CampaignLedger> ledger = CampaignLedger::open(path);
    if (!ledger.is_ok()) return ledger.status();
    const std::string summary = ledger_summary(ledger.value());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      if (expected[k] == summary) return k;
    }
    return kNoPrefix;
  };
  return subject;
}

TEST(RecordLog, ByteMutationsYieldAPrefixOrACleanError) {
  const fs::path root = fs::path(::testing::TempDir()) /
                        ("fav_record_log_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);
  for (const Subject& subject : {journal_subject(root), ledger_subject(root)}) {
    SCOPED_TRACE(subject.name);
    const std::vector<std::size_t> ends = subject.record_ends();
    ASSERT_EQ(ends.size() - subject.header_records,
              subject.name == "journal" ? 3u : 6u);
    const std::size_t all = ends.size() - subject.header_records;
    // Data records lying wholly inside the first `cut` bytes.
    auto records_before = [&](std::size_t cut) {
      std::size_t n = 0;
      for (std::size_t r = subject.header_records; r < ends.size(); ++r) {
        n += ends[r] <= cut ? 1 : 0;
      }
      return n;
    };
    auto load = [&](const std::string& bytes) {
      write_bytes(subject.path, bytes);
      return subject.load();
    };

    ASSERT_TRUE(load(subject.pristine).is_ok());
    EXPECT_EQ(load(subject.pristine).value(), all);

    // Truncate at every offset.
    for (std::size_t cut = 0; cut <= subject.pristine.size(); ++cut) {
      SCOPED_TRACE("cut at " + std::to_string(cut));
      const Result<std::size_t> got = load(subject.pristine.substr(0, cut));
      const bool in_header = cut < kMagicBytes ||
                             (subject.header_records > 0 && cut < ends[0]);
      if (cut == 0 && subject.name == "ledger") {
        ASSERT_TRUE(got.is_ok()) << "an empty ledger file opens as new";
        EXPECT_EQ(got.value(), 0u);
      } else if (in_header) {
        ASSERT_FALSE(got.is_ok());
        EXPECT_EQ(got.status().code(), ErrorCode::kJournalCorrupt);
      } else {
        ASSERT_TRUE(got.is_ok()) << got.status().to_string();
        EXPECT_EQ(got.value(), records_before(cut));
      }
    }

    // Flip every byte.
    for (std::size_t pos = 0; pos < subject.pristine.size(); ++pos) {
      SCOPED_TRACE("flip at " + std::to_string(pos));
      std::string bytes = subject.pristine;
      bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5A);
      const Result<std::size_t> got = load(bytes);
      if (pos < kMagicBytes) {
        ASSERT_FALSE(got.is_ok());
        EXPECT_EQ(got.status().code(), ErrorCode::kJournalCorrupt);
        continue;
      }
      std::size_t r = 0;
      while (ends[r] <= pos) ++r;
      const std::size_t start = r == 0 ? kMagicBytes : ends[r - 1];
      const bool in_len = pos < start + sizeof(std::uint32_t);
      const bool last = r + 1 == ends.size();
      if (in_len) {
        // The record's extent is unknown: a shorter prefix or corruption.
        if (got.is_ok()) {
          EXPECT_LE(got.value(), records_before(start));
        } else {
          EXPECT_EQ(got.status().code(), ErrorCode::kJournalCorrupt);
        }
      } else if (last) {
        ASSERT_TRUE(got.is_ok()) << got.status().to_string();
        EXPECT_EQ(got.value(), all - 1) << "a bad last record is a torn tail";
      } else {
        ASSERT_FALSE(got.is_ok()) << "mid-file damage must not be dropped";
        EXPECT_EQ(got.status().code(), ErrorCode::kJournalCorrupt);
      }
    }

    // Append garbage: dropped as a torn tail.
    for (const std::string& garbage :
         {std::string("\x01\x02\x03", 3), std::string(12, '\xff'),
          std::string("\x40\x00\x00\x00partial", 11)}) {
      const Result<std::size_t> got = load(subject.pristine + garbage);
      ASSERT_TRUE(got.is_ok()) << got.status().to_string();
      EXPECT_EQ(got.value(), all);
    }
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace fav
