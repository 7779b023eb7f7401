// Unit tests for the supervisor building blocks that need no worker
// processes: the wire codec, the multi-shard journal merge (gap/overlap/
// fingerprint validation), and the sample cross-check predicate. The
// end-to-end supervised campaigns (real fork/exec workers, chaos kills,
// quarantine) live in tests/tools/supervise_cli_test.cpp.
#include "mc/supervisor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "mc/journal.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;
using faultsim::FaultSample;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_sup_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SampleRecord make_record(int i) {
  SampleRecord rec;
  rec.sample.technique = faultsim::TechniqueKind::kRadiation;
  rec.sample.t = 3 + i;
  rec.sample.center = static_cast<netlist::NodeId>(17 * i + 1);
  rec.sample.radius = 1.25;
  rec.sample.strike_frac = 0.75;
  rec.sample.depth = 0.5;
  rec.sample.impact_cycles = 1;
  rec.sample.weight = 0.5 + i;
  rec.path = OutcomePath::kRtl;
  rec.success = i % 2 == 0;
  rec.contribution = 0.125 * i;
  return rec;
}

JournalMeta test_meta(std::uint64_t total) {
  JournalMeta meta;
  meta.fingerprint = 0xFEEDFACE12345678ull;
  meta.total_samples = total;
  meta.context = "test/campaign";
  return meta;
}

/// Writes one worker shard file covering [lo, hi) with make_record payloads.
void write_shard_file(const std::string& dir, std::size_t worker_id,
                      const JournalMeta& meta,
                      const std::vector<std::pair<std::size_t, std::size_t>>&
                          ranges) {
  JournalWriter writer;
  ASSERT_TRUE(
      writer.open_fresh(dir, meta, worker_journal_file(worker_id)).is_ok());
  for (const auto& [lo, hi] : ranges) {
    std::vector<SampleRecord> records;
    for (std::size_t i = lo; i < hi; ++i) {
      records.push_back(make_record(static_cast<int>(i)));
    }
    ASSERT_TRUE(
        writer.append_shard(lo, records.data(), records.size()).is_ok());
  }
}

// --- wire codec -----------------------------------------------------------

TEST(SupervisorCodec, ControlMessagesRoundTrip) {
  WireMessage msg;
  ASSERT_TRUE(decode_message(encode_ready(), &msg));
  EXPECT_EQ(msg.type, WireType::kReady);
  ASSERT_TRUE(decode_message(encode_shutdown(), &msg));
  EXPECT_EQ(msg.type, WireType::kShutdown);

  ASSERT_TRUE(decode_message(encode_assign(17, 42), &msg));
  EXPECT_EQ(msg.type, WireType::kAssign);
  EXPECT_EQ(msg.lo, 17u);
  EXPECT_EQ(msg.hi, 42u);

  ASSERT_TRUE(decode_message(encode_done(1024, 1280), &msg));
  EXPECT_EQ(msg.type, WireType::kDone);
  EXPECT_EQ(msg.lo, 1024u);
  EXPECT_EQ(msg.hi, 1280u);
}

/// `count` distinct PROGRESS entries (exact-double payloads, mixed flags).
std::vector<ProgressEntry> progress_entries(std::size_t count) {
  std::vector<ProgressEntry> entries;
  for (std::size_t i = 0; i < count; ++i) {
    entries.push_back({1000 + 7 * i, 0.1 * static_cast<double>(i) + 0.2,
                       1.0 / static_cast<double>(i + 3), i % 3 == 1});
  }
  return entries;
}

TEST(SupervisorCodec, ProgressRoundTripsExactDoubles) {
  WireMessage msg;
  ASSERT_TRUE(decode_message(
      encode_progress({{987654321, 0.1 + 0.2, 1.75, true}}), &msg));
  EXPECT_EQ(msg.type, WireType::kProgress);
  ASSERT_EQ(msg.progress.size(), 1u);
  EXPECT_EQ(msg.progress[0].index, 987654321u);
  EXPECT_EQ(msg.progress[0].contribution, 0.1 + 0.2);  // bitwise
  EXPECT_EQ(msg.progress[0].weight, 1.75);
  EXPECT_TRUE(msg.progress[0].failed);
}

TEST(SupervisorCodec, BatchedProgressRoundTripsEveryEntry) {
  for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                  kMaxProgressEntries}) {
    SCOPED_TRACE(count);
    const std::vector<ProgressEntry> sent = progress_entries(count);
    const std::string bytes = encode_progress(sent);
    // Type byte, entry count, then 25 bytes per entry.
    EXPECT_EQ(bytes.size(), 2 + 25 * count);
    WireMessage msg;
    ASSERT_TRUE(decode_message(bytes, &msg));
    EXPECT_EQ(msg.type, WireType::kProgress);
    ASSERT_EQ(msg.progress.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(msg.progress[i].index, sent[i].index);
      EXPECT_EQ(msg.progress[i].contribution, sent[i].contribution);
      EXPECT_EQ(msg.progress[i].weight, sent[i].weight);
      EXPECT_EQ(msg.progress[i].failed, sent[i].failed);
    }
  }
}

TEST(SupervisorCodec, ProgressRejectsZeroOrMoreThan64Entries) {
  WireMessage msg;
  // Zero entries: a bare count byte.
  std::string empty(1, static_cast<char>(WireType::kProgress));
  empty.push_back('\0');
  EXPECT_FALSE(decode_message(empty, &msg));
  // 65 entries: a full frame plus one more entry, count byte patched.
  const std::string full = encode_progress(progress_entries(64));
  const std::string one = encode_progress(progress_entries(1));
  std::string over = full + one.substr(2);
  over[1] = static_cast<char>(65);
  EXPECT_FALSE(decode_message(over, &msg));
  // The count must match the entries that follow, exactly.
  std::string short_count = full;
  short_count[1] = static_cast<char>(63);
  EXPECT_FALSE(decode_message(short_count, &msg));
  std::string long_count = encode_progress(progress_entries(2));
  long_count[1] = static_cast<char>(3);
  EXPECT_FALSE(decode_message(long_count, &msg));
}

TEST(SupervisorCodec, MetricsRoundTripThroughSink) {
  MetricsSink sink;
  sink.add_counter("eval.samples", 42);
  sink.set_gauge("ssf.running", 0.125);
  WireMessage msg;
  ASSERT_TRUE(decode_message(encode_metrics(sink), &msg));
  EXPECT_EQ(msg.type, WireType::kMetrics);
  MetricsSink back;
  ASSERT_TRUE(back.deserialize(msg.blob));
  EXPECT_EQ(back.counters().at("eval.samples"), 42u);
  EXPECT_EQ(back.gauges().at("ssf.running"), 0.125);
}

TEST(SupervisorCodec, RejectsMalformedPayloads) {
  WireMessage msg;
  EXPECT_FALSE(decode_message("", &msg));
  EXPECT_FALSE(decode_message(std::string(1, '\x00'), &msg));  // unknown type
  EXPECT_FALSE(decode_message(std::string(1, '\x63'), &msg));  // unknown type
  // Truncated ASSIGN: type byte + 4 bytes instead of 16.
  std::string truncated = encode_assign(1, 2).substr(0, 5);
  EXPECT_FALSE(decode_message(truncated, &msg));
  // Trailing garbage after a well-formed READY.
  EXPECT_FALSE(decode_message(encode_ready() + "x", &msg));
}

TEST(SupervisorCodec, WorkerJournalFileNames) {
  EXPECT_EQ(worker_journal_file(0), "worker-0.fj");
  EXPECT_EQ(worker_journal_file(12), "worker-12.fj");
}

// --- sample cross-check ---------------------------------------------------

TEST(SampleMatches, DetectsEveryFieldDivergence) {
  const FaultSample base = make_record(3).sample;
  EXPECT_TRUE(sample_matches(base, base));
  FaultSample other = base;
  other.t += 1;
  EXPECT_FALSE(sample_matches(base, other));
  other = base;
  other.center += 1;
  EXPECT_FALSE(sample_matches(base, other));
  other = base;
  other.weight *= 2.0;
  EXPECT_FALSE(sample_matches(base, other));
  other = base;
  other.technique = faultsim::TechniqueKind::kClockGlitch;
  EXPECT_FALSE(sample_matches(base, other));
}

// --- multi-shard merge ----------------------------------------------------

TEST(JournalMerge, MergesInterleavedWorkerShards) {
  const std::string dir = fresh_dir("interleaved");
  const JournalMeta meta = test_meta(12);
  // Worker 0 owns [0,4) and [8,12); worker 1 owns [4,8) — out of order
  // across files, contiguous overall.
  write_shard_file(dir, 0, meta, {{0, 4}, {8, 12}});
  write_shard_file(dir, 1, meta, {{4, 8}});
  Result<JournalContents> merged =
      JournalReader::merge(dir, worker_journal_pattern());
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  EXPECT_EQ(merged.value().meta.fingerprint, meta.fingerprint);
  ASSERT_EQ(merged.value().records.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(merged.value().records[i].sample.t,
              make_record(static_cast<int>(i)).sample.t)
        << "sample " << i;
  }
}

TEST(JournalMerge, ReportsExactMissingRange) {
  const std::string dir = fresh_dir("gap");
  const JournalMeta meta = test_meta(16);
  write_shard_file(dir, 0, meta, {{0, 4}});
  write_shard_file(dir, 1, meta, {{9, 16}});
  Result<JournalContents> merged =
      JournalReader::merge(dir, worker_journal_pattern());
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(merged.status().code(), ErrorCode::kFailedPrecondition);
  // The error names the exact missing index range.
  EXPECT_NE(merged.status().to_string().find("[4, 9)"), std::string::npos)
      << merged.status().to_string();
}

TEST(JournalMerge, MergePartialExposesPresenceAndGaps) {
  const std::string dir = fresh_dir("partial");
  const JournalMeta meta = test_meta(10);
  write_shard_file(dir, 0, meta, {{0, 2}, {6, 8}});
  Result<MergedJournal> merged =
      JournalReader::merge_partial(dir, worker_journal_pattern());
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  EXPECT_FALSE(merged.value().complete());
  EXPECT_EQ(merged.value().present_count, 4u);
  const auto gaps = merged.value().missing_ranges();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], (std::pair<std::uint64_t, std::uint64_t>{2, 6}));
  EXPECT_EQ(gaps[1], (std::pair<std::uint64_t, std::uint64_t>{8, 10}));
}

TEST(JournalMerge, AcceptsOutOfOrderFramesWithinOneFile) {
  const std::string dir = fresh_dir("rescued");
  const JournalMeta meta = test_meta(12);
  // A worker that picks up a shard rescued from a crashed peer journals it
  // *after* higher-indexed shards: [4,8), [8,12), then [0,4) on disk. The
  // reader must sort and coalesce instead of rejecting the file.
  write_shard_file(dir, 0, meta, {{4, 8}, {8, 12}, {0, 4}});
  Result<JournalShards> shards =
      JournalReader::read_shards(dir, worker_journal_file(0));
  ASSERT_TRUE(shards.is_ok()) << shards.status().to_string();
  ASSERT_EQ(shards.value().spans.size(), 1u);
  EXPECT_EQ(shards.value().spans[0].first_index, 0u);
  ASSERT_EQ(shards.value().spans[0].records.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(shards.value().spans[0].records[i].sample.t,
              make_record(static_cast<int>(i)).sample.t)
        << "sample " << i;
  }
}

TEST(JournalMerge, RejectsOverlappingFramesWithinOneFile) {
  const std::string dir = fresh_dir("selfoverlap");
  const JournalMeta meta = test_meta(12);
  // Out-of-order is legal (see above) but two frames in the same file
  // covering the same sample can never happen in a correct run.
  write_shard_file(dir, 0, meta, {{4, 8}, {2, 6}});
  Result<JournalShards> shards =
      JournalReader::read_shards(dir, worker_journal_file(0));
  ASSERT_FALSE(shards.is_ok());
  EXPECT_EQ(shards.status().code(), ErrorCode::kJournalCorrupt);
  EXPECT_NE(shards.status().to_string().find("both cover sample"),
            std::string::npos)
      << shards.status().to_string();
}

TEST(JournalMerge, RejectsOverlappingShards) {
  const std::string dir = fresh_dir("overlap");
  const JournalMeta meta = test_meta(8);
  write_shard_file(dir, 0, meta, {{0, 5}});
  write_shard_file(dir, 1, meta, {{4, 8}});
  Result<MergedJournal> merged =
      JournalReader::merge_partial(dir, worker_journal_pattern());
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(merged.status().code(), ErrorCode::kJournalCorrupt);
  EXPECT_NE(merged.status().to_string().find("both cover sample"),
            std::string::npos)
      << merged.status().to_string();
}

TEST(JournalMerge, RejectsForeignCampaignShard) {
  const std::string dir = fresh_dir("foreign");
  write_shard_file(dir, 0, test_meta(8), {{0, 4}});
  JournalMeta other = test_meta(8);
  other.fingerprint ^= 1;
  write_shard_file(dir, 1, other, {{4, 8}});
  Result<MergedJournal> merged =
      JournalReader::merge_partial(dir, worker_journal_pattern());
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(merged.status().code(), ErrorCode::kJournalCorrupt);
}

TEST(JournalMerge, NoMatchingShardsIsIoError) {
  const std::string dir = fresh_dir("empty");
  Result<MergedJournal> merged =
      JournalReader::merge_partial(dir, worker_journal_pattern());
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(merged.status().code(), ErrorCode::kJournalIoError);
}

TEST(JournalMerge, SpanPastTotalSamplesIsCorrupt) {
  const std::string dir = fresh_dir("pastend");
  write_shard_file(dir, 0, test_meta(4), {{0, 4}});
  // Rewrite with a span that runs past total_samples.
  write_shard_file(dir, 1, test_meta(4), {{2, 6}});
  Result<MergedJournal> merged =
      JournalReader::merge_partial(dir, worker_journal_pattern());
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(merged.status().code(), ErrorCode::kJournalCorrupt);
}

}  // namespace
}  // namespace fav::mc
