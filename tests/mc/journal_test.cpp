// Crash-safety tests for the campaign journal: round-trip serialization,
// kill-and-resume bitwise identity, torn-tail tolerance and corruption
// detection (see mc/journal.h for the on-disk format).
#include "mc/journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "mc/evaluator.h"
#include "soc/benchmark.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;
using faultsim::FaultSample;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun synth_golden{workload, 400, 32};
  precharac::RegisterCharacterization charac;
  SsfEvaluator evaluator;

  Context()
      : charac(synth_golden,
               [] {
                 precharac::CharacterizationConfig cfg;
                 cfg.stride = 23;
                 return cfg;
               }()),
        evaluator(soc, placement, injector, bench, golden, &charac) {}
};

Context& ctx() {
  static Context c;
  return c;
}

faultsim::AttackModel test_attack() {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();
  return attack;
}

/// Fresh per-test journal directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

fs::path journal_file(const std::string& dir) {
  return fs::path(dir) / "campaign.fj";
}

SampleRecord make_record(int i) {
  SampleRecord rec;
  rec.sample.technique = i % 2 == 0 ? faultsim::TechniqueKind::kRadiation
                                    : faultsim::TechniqueKind::kClockGlitch;
  rec.sample.t = 3 + i;
  rec.sample.center = static_cast<netlist::NodeId>(17 * i + 1);
  rec.sample.radius = 1.25 + 0.5 * i;
  rec.sample.strike_frac = 0.75;
  rec.sample.depth = 0.35 + 0.05 * i;
  rec.sample.impact_cycles = 1 + (i % 3);
  rec.sample.weight = 0.5 + i;
  rec.te = 100 + static_cast<std::uint64_t>(i);
  rec.flipped_bits = {i, i + 7, i + 30};
  rec.path = i % 2 == 0 ? OutcomePath::kRtl : OutcomePath::kFailed;
  rec.success = (i % 2 == 0);
  rec.contribution = 0.125 * i;
  rec.fail_code = i % 2 == 0 ? ErrorCode::kOk : ErrorCode::kCycleBudgetExceeded;
  rec.fail_reason = i % 2 == 0 ? "" : "budget exhausted at cycle 42";
  rec.retried = (i % 3 == 0);
  return rec;
}

void expect_record_eq(const SampleRecord& a, const SampleRecord& b) {
  EXPECT_EQ(a.sample.technique, b.sample.technique);
  EXPECT_EQ(a.sample.t, b.sample.t);
  EXPECT_EQ(a.sample.center, b.sample.center);
  EXPECT_EQ(a.sample.radius, b.sample.radius);
  EXPECT_EQ(a.sample.strike_frac, b.sample.strike_frac);
  EXPECT_EQ(a.sample.depth, b.sample.depth);
  EXPECT_EQ(a.sample.impact_cycles, b.sample.impact_cycles);
  EXPECT_EQ(a.sample.weight, b.sample.weight);
  EXPECT_EQ(a.te, b.te);
  EXPECT_EQ(a.flipped_bits, b.flipped_bits);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.contribution, b.contribution);  // bitwise double equality
  EXPECT_EQ(a.fail_code, b.fail_code);
  EXPECT_EQ(a.fail_reason, b.fail_reason);
  EXPECT_EQ(a.retried, b.retried);
}

TEST(JournalSerialization, RecordRoundTrip) {
  for (int i = 0; i < 6; ++i) {
    const SampleRecord rec = make_record(i);
    std::string buf;
    serialize_record(rec, buf);
    SampleRecord back;
    std::size_t offset = 0;
    ASSERT_TRUE(deserialize_record(buf, &offset, &back)) << "record " << i;
    EXPECT_EQ(offset, buf.size());
    expect_record_eq(rec, back);
  }
}

TEST(JournalSerialization, ConcatenatedRecordsRoundTrip) {
  std::string buf;
  for (int i = 0; i < 5; ++i) serialize_record(make_record(i), buf);
  std::size_t offset = 0;
  for (int i = 0; i < 5; ++i) {
    SampleRecord back;
    ASSERT_TRUE(deserialize_record(buf, &offset, &back)) << "record " << i;
    expect_record_eq(make_record(i), back);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(JournalSerialization, TruncatedRecordIsRejected) {
  std::string buf;
  serialize_record(make_record(2), buf);
  for (const std::size_t keep : {buf.size() - 1, buf.size() / 2, 3ul, 0ul}) {
    const std::string cut = buf.substr(0, keep);
    SampleRecord back;
    std::size_t offset = 0;
    EXPECT_FALSE(deserialize_record(cut, &offset, &back)) << "keep=" << keep;
  }
}

TEST(JournalWriter, WriteReadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  JournalMeta meta;
  meta.fingerprint = 0xDEADBEEFCAFEF00Dull;
  meta.total_samples = 7;
  meta.context = "write/importance";
  std::vector<SampleRecord> recs;
  for (int i = 0; i < 7; ++i) recs.push_back(make_record(i));
  {
    JournalWriter w;
    ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
    ASSERT_TRUE(w.append_shard(0, recs.data(), 4).is_ok());
    ASSERT_TRUE(w.append_shard(4, recs.data() + 4, 3).is_ok());
  }
  Result<JournalContents> read = read_journal(dir);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  const JournalContents& j = read.value();
  EXPECT_EQ(j.meta.fingerprint, meta.fingerprint);
  EXPECT_EQ(j.meta.total_samples, meta.total_samples);
  EXPECT_EQ(j.meta.context, meta.context);
  ASSERT_EQ(j.records.size(), 7u);
  for (int i = 0; i < 7; ++i) expect_record_eq(j.records[i], recs[i]);
}

TEST(JournalWriter, AppendAfterReopen) {
  const std::string dir = fresh_dir("reopen");
  JournalMeta meta;
  meta.fingerprint = 1;
  meta.total_samples = 4;
  std::vector<SampleRecord> recs;
  for (int i = 0; i < 4; ++i) recs.push_back(make_record(i));
  {
    JournalWriter w;
    ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
    ASSERT_TRUE(w.append_shard(0, recs.data(), 2).is_ok());
  }
  {
    Result<JournalContents> sofar = read_journal(dir);
    ASSERT_TRUE(sofar.is_ok());
    JournalWriter w;
    ASSERT_TRUE(w.open_append(dir, sofar.value().valid_bytes).is_ok());
    ASSERT_TRUE(w.append_shard(2, recs.data() + 2, 2).is_ok());
  }
  Result<JournalContents> read = read_journal(dir);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ASSERT_EQ(read.value().records.size(), 4u);
  for (int i = 0; i < 4; ++i) expect_record_eq(read.value().records[i], recs[i]);
}

TEST(JournalWriter, DirectoryIsFsyncedOnCreateAndTruncate) {
  // Regression: the writer fsynced the shard file's contents but never the
  // parent directory, so after a power loss the fully-synced file could
  // simply not exist in the directory (POSIX requires an explicit fsync of
  // the directory fd to persist the new directory entry). The instrumented
  // writer counts its directory fsyncs; both open paths must issue one.
  const std::string dir = fresh_dir("dirsync");
  JournalMeta meta;
  meta.fingerprint = 7;
  meta.total_samples = 4;
  std::vector<SampleRecord> recs;
  for (int i = 0; i < 4; ++i) recs.push_back(make_record(i));
  {
    MetricsSink m;
    JournalWriter w;
    w.set_metrics(&m);
    ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
    EXPECT_GE(m.counter("journal.dir_fsyncs"), 1u)
        << "open_fresh creates campaign.fj but never persisted its directory "
           "entry";
    ASSERT_TRUE(w.append_shard(0, recs.data(), 2).is_ok());
  }
  {
    Result<JournalContents> sofar = read_journal(dir);
    ASSERT_TRUE(sofar.is_ok());
    MetricsSink m;
    JournalWriter w;
    w.set_metrics(&m);
    ASSERT_TRUE(w.open_append(dir, sofar.value().valid_bytes).is_ok());
    EXPECT_GE(m.counter("journal.dir_fsyncs"), 1u)
        << "open_append may truncate a torn tail; the resulting size change "
           "must be made durable the same way";
    ASSERT_TRUE(w.append_shard(2, recs.data() + 2, 2).is_ok());
    EXPECT_GE(m.counter("journal.commits"), 1u);
    EXPECT_GT(m.counter("journal.bytes_written"), 0u);
  }
  Result<JournalContents> read = read_journal(dir);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ASSERT_EQ(read.value().records.size(), 4u);
}

TEST(JournalReader, MissingFileIsIoError) {
  const std::string dir = fresh_dir("missing");
  const Result<JournalContents> read = read_journal(dir);
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kJournalIoError);
}

TEST(JournalReader, TornTailIsDroppedNotFatal) {
  // A partially-written last frame is the normal SIGKILL artifact: the
  // checksummed prefix must still load, minus the torn frame.
  const std::string dir = fresh_dir("torn");
  JournalMeta meta;
  meta.fingerprint = 2;
  meta.total_samples = 6;
  std::vector<SampleRecord> recs;
  for (int i = 0; i < 6; ++i) recs.push_back(make_record(i));
  {
    JournalWriter w;
    ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
    ASSERT_TRUE(w.append_shard(0, recs.data(), 3).is_ok());
    ASSERT_TRUE(w.append_shard(3, recs.data() + 3, 3).is_ok());
  }
  // Tear the tail: chop bytes off the second frame.
  const fs::path file = journal_file(dir);
  const auto size = fs::file_size(file);
  fs::resize_file(file, size - 11);
  const Result<JournalContents> read = read_journal(dir);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ASSERT_EQ(read.value().records.size(), 3u);  // only the intact first shard
  for (int i = 0; i < 3; ++i) expect_record_eq(read.value().records[i], recs[i]);
}

TEST(JournalReader, MidFileCorruptionIsDetected) {
  // Unlike a torn tail, a damaged frame followed by further data means the
  // file is corrupt, not crash-truncated: refuse to resume on it.
  const std::string dir = fresh_dir("midfile");
  JournalMeta meta;
  meta.fingerprint = 3;
  meta.total_samples = 6;
  std::vector<SampleRecord> recs;
  for (int i = 0; i < 6; ++i) recs.push_back(make_record(i));
  std::uintmax_t first_shard_end = 0;
  {
    JournalWriter w;
    ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
    ASSERT_TRUE(w.append_shard(0, recs.data(), 3).is_ok());
    first_shard_end = fs::file_size(journal_file(dir));
    ASSERT_TRUE(w.append_shard(3, recs.data() + 3, 3).is_ok());
  }
  // Flip one payload byte inside the FIRST frame (safely past its header).
  std::fstream f(journal_file(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  const std::streamoff target = static_cast<std::streamoff>(first_shard_end) - 20;
  f.seekg(target);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x5A;
  f.seekp(target);
  f.write(&byte, 1);
  f.close();
  const Result<JournalContents> read = read_journal(dir);
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kJournalCorrupt);
}

TEST(JournalReader, CorruptHeaderIsDetected) {
  const std::string dir = fresh_dir("header");
  JournalMeta meta;
  meta.fingerprint = 4;
  meta.total_samples = 2;
  {
    JournalWriter w;
    ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
  }
  std::fstream f(journal_file(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(2);
  const char x = 'X';
  f.write(&x, 1);
  f.close();
  const Result<JournalContents> read = read_journal(dir);
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kJournalCorrupt);
}

void expect_bitwise_equal(const SsfResult& a, const SsfResult& b) {
  EXPECT_EQ(a.ssf(), b.ssf());
  EXPECT_EQ(a.sample_variance(), b.sample_variance());
  EXPECT_EQ(a.stats.count(), b.stats.count());
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.analytical, b.analytical);
  EXPECT_EQ(a.rtl, b.rtl);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.failed_weight, b.failed_weight);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
  EXPECT_EQ(a.field_contribution, b.field_contribution);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].te, b.records[i].te) << i;
    EXPECT_EQ(a.records[i].flipped_bits, b.records[i].flipped_bits) << i;
    EXPECT_EQ(a.records[i].path, b.records[i].path) << i;
    EXPECT_EQ(a.records[i].success, b.records[i].success) << i;
    EXPECT_EQ(a.records[i].contribution, b.records[i].contribution) << i;
  }
}

JournalOptions test_options(const std::string& dir, bool resume) {
  JournalOptions o;
  o.dir = dir;
  o.resume = resume;
  o.shard_size = 32;
  o.fingerprint = 0xFEEDFACE;
  o.context = "journal_test";
  return o;
}

TEST(JournaledRun, MatchesPlainRunBitwise) {
  const std::string dir = fresh_dir("plain_vs_journaled");
  const auto attack = test_attack();
  RandomSampler s1(attack), s2(attack);
  Rng r1(41), r2(41);
  const SsfResult plain = ctx().evaluator.run(s1, r1, 200);
  Result<SsfResult> journaled =
      ctx().evaluator.run_journaled(s2, r2, 200, test_options(dir, false));
  ASSERT_TRUE(journaled.is_ok()) << journaled.status().to_string();
  expect_bitwise_equal(journaled.value(), plain);
}

TEST(JournaledRun, KillAndResumeIsBitwiseIdenticalAtEveryThreadCount) {
  // The acceptance scenario: a campaign killed mid-run (simulated by
  // truncating the journal tail, exactly what SIGKILL leaves behind) and
  // resumed must reproduce the uninterrupted run bit for bit — at every
  // thread count, and regardless of the thread count of the killed run.
  const auto attack = test_attack();

  // Uninterrupted reference.
  RandomSampler ref_sampler(attack);
  Rng ref_rng(43);
  const SsfResult reference = ctx().evaluator.run(ref_sampler, ref_rng, 200);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir =
        fresh_dir("resume_t" + std::to_string(threads));
    EvaluatorConfig cfg;
    cfg.threads = threads;
    SsfEvaluator ev(ctx().soc, ctx().placement, ctx().injector, ctx().bench,
                    ctx().golden, &ctx().charac, cfg);

    // Complete campaign, journaled — then "kill" it by tearing the journal
    // back to a prefix (drop the last frame plus a partial one).
    {
      RandomSampler sampler(attack);
      Rng rng(43);
      Result<SsfResult> full =
          ev.run_journaled(sampler, rng, 200, test_options(dir, false));
      ASSERT_TRUE(full.is_ok()) << full.status().to_string();
    }
    const fs::path file = journal_file(dir);
    fs::resize_file(file, fs::file_size(file) * 2 / 5);

    // Resume from the torn journal with a fresh sampler/rng at the same seed.
    RandomSampler sampler(attack);
    Rng rng(43);
    Result<SsfResult> resumed =
        ev.run_journaled(sampler, rng, 200, test_options(dir, true));
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    expect_bitwise_equal(resumed.value(), reference);

    // The completed journal now replays in full: resuming again evaluates
    // nothing new and still reproduces the same result.
    RandomSampler sampler2(attack);
    Rng rng2(43);
    Result<SsfResult> replayed =
        ev.run_journaled(sampler2, rng2, 200, test_options(dir, true));
    ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
    expect_bitwise_equal(replayed.value(), reference);
  }
}

/// Flips the stop flag from on_sample once `flip_at` samples have finished,
/// and counts the samples that finish after the flip.
struct MidWaveStop {
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> finished{0};
  std::atomic<std::size_t> after_flip{0};

  EvaluatorConfig config(std::size_t threads, std::size_t flip_at) {
    EvaluatorConfig cfg;
    cfg.threads = threads;
    cfg.stop = &stop;
    cfg.on_sample = [this, flip_at](const SampleRecord&, std::size_t) {
      if (stop.load()) {
        after_flip.fetch_add(1);
      } else if (finished.fetch_add(1) + 1 == flip_at) {
        stop.store(true);
      }
    };
    return cfg;
  }
};

std::string file_bytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void expect_same_answer(const SsfResult& a, const SsfResult& b) {
  expect_bitwise_equal(a, b);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.stats.standard_error(), b.stats.standard_error());
  EXPECT_EQ(a.effective_sample_size(), b.effective_sample_size());
}

TEST(WaveScheduling, StopMidWaveReducesAContiguousPrefix) {
  // run_batch with the stop flag flipped mid-wave: every worker finishes at
  // most the te-group in hand, and the result is exactly the in-memory run
  // over the contiguous prefix it reports.
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(47);
  const std::vector<FaultSample> batch =
      ctx().evaluator.draw_batch(sampler, rng, 2000);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MidWaveStop flip;
    const SsfEvaluator ev(ctx().soc, ctx().placement, ctx().injector,
                          ctx().bench, ctx().golden, &ctx().charac,
                          flip.config(threads, 700));
    const SsfResult cut = ev.run_batch(batch);
    EXPECT_TRUE(cut.interrupted);
    EXPECT_LT(cut.evaluated, batch.size());
    EXPECT_LE(flip.after_flip.load(), threads * 64);
    const std::vector<FaultSample> prefix(
        batch.begin(),
        batch.begin() + static_cast<std::ptrdiff_t>(cut.evaluated));
    expect_same_answer(cut, ctx().evaluator.run_batch(prefix));
  }
}

TEST(WaveScheduling, StopMidWaveCommitsWholeShardsAndResumesBitwise) {
  // A journaled campaign whose stop flag flips in the middle of its second
  // wave: the first wave is committed whole, the second only up to its last
  // whole evaluated shard, and resume reproduces the uninterrupted answer
  // and journal byte for byte. A 100-sample shard makes the wave 16,300
  // samples (whole shards), not kWaveSamples.
  constexpr std::size_t kShard = 100;
  constexpr std::size_t kWave =
      SsfEvaluator::kWaveSamples / kShard * kShard;
  constexpr std::size_t kN = SsfEvaluator::kWaveSamples + 2000;
  const auto attack = test_attack();
  auto options = [](const std::string& dir, bool resume) {
    JournalOptions o = test_options(dir, resume);
    o.shard_size = kShard;
    return o;
  };

  const std::string ref_dir = fresh_dir("wave_reference");
  RandomSampler ref_sampler(attack);
  Rng ref_rng(53);
  Result<SsfResult> reference = ctx().evaluator.run_journaled(
      ref_sampler, ref_rng, kN, options(ref_dir, false));
  ASSERT_TRUE(reference.is_ok()) << reference.status().to_string();
  const std::string ref_bytes = file_bytes(journal_file(ref_dir));

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = fresh_dir("wave_stop_t" + std::to_string(threads));
    MidWaveStop flip;
    const SsfEvaluator ev(ctx().soc, ctx().placement, ctx().injector,
                          ctx().bench, ctx().golden, &ctx().charac,
                          flip.config(threads, kWave + 600));
    RandomSampler sampler(attack);
    Rng rng(53);
    Result<SsfResult> cut = ev.run_journaled(sampler, rng, kN,
                                             options(dir, false));
    ASSERT_TRUE(cut.is_ok()) << cut.status().to_string();
    EXPECT_TRUE(cut.value().interrupted);
    EXPECT_GE(cut.value().evaluated, kWave);
    EXPECT_LT(cut.value().evaluated, kN);
    EXPECT_EQ(cut.value().evaluated % kShard, 0u);
    EXPECT_LE(flip.after_flip.load(), threads * 64);
    Result<JournalContents> journaled = read_journal(dir);
    ASSERT_TRUE(journaled.is_ok()) << journaled.status().to_string();
    EXPECT_EQ(journaled.value().records.size(), cut.value().evaluated);

    RandomSampler resume_sampler(attack);
    Rng resume_rng(53);
    Result<SsfResult> resumed = ctx().evaluator.run_journaled(
        resume_sampler, resume_rng, kN, options(dir, true));
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_FALSE(resumed.value().interrupted);
    expect_same_answer(resumed.value(), reference.value());
    EXPECT_TRUE(file_bytes(journal_file(dir)) == ref_bytes)
        << "resumed journal bytes differ from the uninterrupted journal";
  }
}

TEST(JournaledRun, FingerprintMismatchIsRejected) {
  const std::string dir = fresh_dir("fingerprint");
  const auto attack = test_attack();
  {
    RandomSampler sampler(attack);
    Rng rng(5);
    Result<SsfResult> full =
        ctx().evaluator.run_journaled(sampler, rng, 64, test_options(dir, false));
    ASSERT_TRUE(full.is_ok());
  }
  RandomSampler sampler(attack);
  Rng rng(5);
  JournalOptions other = test_options(dir, true);
  other.fingerprint = 0xBAD;  // different campaign identity
  const Result<SsfResult> resumed =
      ctx().evaluator.run_journaled(sampler, rng, 64, other);
  ASSERT_FALSE(resumed.is_ok());
  EXPECT_EQ(resumed.status().code(), ErrorCode::kJournalCorrupt);
}

TEST(JournaledRun, MismatchedSampleStreamIsRejected) {
  // Same fingerprint but a different rng seed: the re-drawn stream disagrees
  // with the journaled records and the cross-check must refuse to resume.
  const std::string dir = fresh_dir("stream");
  const auto attack = test_attack();
  {
    RandomSampler sampler(attack);
    Rng rng(5);
    Result<SsfResult> full =
        ctx().evaluator.run_journaled(sampler, rng, 64, test_options(dir, false));
    ASSERT_TRUE(full.is_ok());
  }
  RandomSampler sampler(attack);
  Rng rng(6);  // different stream
  const Result<SsfResult> resumed =
      ctx().evaluator.run_journaled(sampler, rng, 64, test_options(dir, true));
  ASSERT_FALSE(resumed.is_ok());
  EXPECT_EQ(resumed.status().code(), ErrorCode::kJournalCorrupt);
}

TEST(JournaledRun, EmptyDirIsInvalidArgument) {
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(1);
  JournalOptions o;
  const Result<SsfResult> r =
      ctx().evaluator.run_journaled(sampler, rng, 8, o);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace fav::mc
