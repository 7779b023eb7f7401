// End-to-end tests for `fav evaluate --supervise`: real fork/exec worker
// fleets driven through the installed CLI binary (FAV_CLI_PATH, injected by
// CMake):
//   * bitwise-identical SSF + journal bytes vs the single-process engine at
//     worker counts {1, 4} — the supervisor writes the same campaign.fj,
//     and no worker writes a file,
//   * chaos: a worker SIGKILLed mid-campaign changes nothing in the result,
//   * a deterministically-crashing sample is quarantined as WORKER_CRASHED
//     instead of wedging the campaign, also past the first wave,
//   * wave-sized assignments fill the lanes like the in-process engine,
//   * the supervisor itself SIGKILLed mid-run is resumable with --resume,
//     and a campaign resumes across modes (in-process <-> supervised),
//   * SIGINT flushes a partial interrupted run report (exit code 3) that
//     --resume completes to the undisturbed result.
//
// These tests spawn several framework elaborations each (~seconds); they are
// deliberately few and each asserts a full scenario.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mc/journal.h"
#include "mc/supervisor.h"
#include "util/subprocess.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_cli_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Runs the CLI synchronously via the shell; returns the process exit code.
int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(FAV_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

/// Common campaign flags: small but large enough that every outcome path is
/// exercised, with shards small enough for real supervisor scheduling.
std::string campaign_flags(std::size_t samples) {
  return "evaluate --benchmark write --samples " + std::to_string(samples) +
         " --seed 2017 --t-range 20 --shard-size 16";
}

/// Extracts the raw text of a scalar field from a run report ("key": value).
std::string json_field(const std::string& file, const std::string& key) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "<missing " + key + ">";
  std::size_t end = at + needle.size();
  while (end < text.size() && text[end] != ',' && text[end] != '\n' &&
         text[end] != '}') {
    ++end;
  }
  return text.substr(at + needle.size(), end - (at + needle.size()));
}

/// Value of a metric in a run report's "metrics" object ("name":value), or
/// -1 when absent.
double metric_value(const std::string& file, const std::string& name) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/// Byte-for-byte comparison of two campaigns' journals. Every campaign, in
/// any mode, keeps exactly one journal file, `campaign.fj`.
void expect_identical_journals(const std::string& dir_a,
                               const std::string& dir_b) {
  for (const std::string& dir : {dir_a, dir_b}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".fj") {
        EXPECT_EQ(entry.path().filename(), "campaign.fj") << dir;
      }
    }
  }
  const auto bytes = [](const std::string& dir) {
    std::ifstream in(dir + "/campaign.fj", std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string a = bytes(dir_a);
  const std::string b = bytes(dir_b);
  ASSERT_FALSE(a.empty()) << dir_a;
  EXPECT_TRUE(a == b) << dir_a << " and " << dir_b << " journals differ ("
                      << a.size() << " vs " << b.size() << " bytes)";
}

/// Spawns the CLI detached, waits until the named journal file exceeds
/// `min_bytes`, then delivers `sig`. Returns the exit status.
Subprocess::ExitStatus kill_mid_campaign(const std::string& args,
                                         const fs::path& watched_file,
                                         std::uintmax_t min_bytes, int sig) {
  std::vector<std::string> argv = {FAV_CLI_PATH};
  std::istringstream split(args);
  std::string tok;
  while (split >> tok) argv.push_back(tok);
  Result<Subprocess> spawned = Subprocess::spawn(argv);
  EXPECT_TRUE(spawned.is_ok()) << spawned.status().to_string();
  Subprocess proc = std::move(spawned).value();
  // Wait for real campaign progress; give elaboration generous time.
  for (int i = 0; i < 12000; ++i) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(watched_file, ec);
    if (!ec && size > min_bytes) break;
    Subprocess::ExitStatus st;
    if (proc.try_wait(&st)) return st;  // finished before we could kill it
    ::usleep(10'000);
  }
  proc.kill(sig);
  return proc.wait();
}

TEST(SuperviseCli, BitwiseIdenticalAcrossWorkerCounts) {
  const std::string base = fresh_dir("identity_base");
  const std::string sup1 = fresh_dir("identity_w1");
  const std::string sup4 = fresh_dir("identity_w4");
  const std::string flags = campaign_flags(120);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  ASSERT_EQ(run_cli(flags + " --journal " + sup1 + " --supervise 1" +
                    " --metrics-out " + sup1 + "/report.json"),
            0);
  ASSERT_EQ(run_cli(flags + " --journal " + sup4 + " --supervise 4" +
                    " --metrics-out " + sup4 + "/report.json"),
            0);
  const std::string ssf = json_field(base + "/report.json", "ssf");
  EXPECT_EQ(json_field(sup1 + "/report.json", "ssf"), ssf);
  EXPECT_EQ(json_field(sup4 + "/report.json", "ssf"), ssf);
  EXPECT_EQ(json_field(sup4 + "/report.json", "std_error"),
            json_field(base + "/report.json", "std_error"));
  expect_identical_journals(base, sup1);
  expect_identical_journals(base, sup4);
}

TEST(SuperviseCli, WorkerCrashMidCampaignChangesNothing) {
  const std::string base = fresh_dir("chaos_base");
  const std::string chaos = fresh_dir("chaos_sup");
  // Large enough that worker 0 is guaranteed a shard before the campaign
  // drains (workers elaborate concurrently but evaluation takes seconds).
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // Worker 0 SIGKILLs itself mid-shard after 7 samples (first incarnation
  // only); the watchdog restarts it and the campaign ends with the
  // undisturbed result.
  ASSERT_EQ(run_cli(flags + " --journal " + chaos +
                    " --supervise 2 --crash-after-samples 7" +
                    " --metrics-out " + chaos + "/report.json"),
            0);
  EXPECT_EQ(json_field(chaos + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  EXPECT_EQ(json_field(chaos + "/report.json", "interrupted"), "false");
  const std::string restarts = json_field(chaos + "/report.json", "restarts");
  EXPECT_NE(restarts, "0") << "expected at least one watchdog restart";
  expect_identical_journals(base, chaos);
}

TEST(SuperviseCli, DeterministicCrashIsQuarantined) {
  const std::string dir = fresh_dir("quarantine");
  const std::string flags = campaign_flags(120);
  // Sample 40 kills every worker that touches it, on every attempt; its
  // shard must be written off as WORKER_CRASHED instead of looping forever.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --crash-on-sample-index 40" +
                    " --metrics-out " + dir + "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "quarantined_shards"), "1");
  EXPECT_EQ(json_field(dir + "/report.json", "quarantined_samples"), "16");
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
  const std::string counts = json_field(dir + "/report.json", "WORKER_CRASHED");
  EXPECT_EQ(counts, "16") << "quarantined samples must surface as "
                             "WORKER_CRASHED failure counts";
}

TEST(SuperviseCli, QuarantineBeyondTheFirstWaveIsExact) {
  const std::string base = fresh_dir("quarantine_wave_base");
  const std::string dir = fresh_dir("quarantine_wave");
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base), 0);
  // Sample 17000 lies past the first 16,384-sample wave and inside a
  // multi-shard assignment. The first death charges every shard of that
  // assignment; each is then assigned alone, so only the poison shard
  // [16992, 17008) dies twice and is quarantined.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --crash-on-sample-index 17000" +
                    " --metrics-out " + dir + "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "quarantined_shards"), "1");
  EXPECT_EQ(json_field(dir + "/report.json", "quarantined_samples"), "16");
  EXPECT_EQ(json_field(dir + "/report.json", "WORKER_CRASHED"), "16");
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
  // The quarantined shard's WORKER_CRASHED records are journaled, so the
  // journal is complete and a resume would not retry them; every other
  // record is the in-process engine's.
  Result<JournalContents> want = read_journal(base);
  Result<JournalContents> got = read_journal(dir);
  ASSERT_TRUE(want.is_ok()) << want.status().to_string();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  ASSERT_EQ(got.value().records.size(), want.value().records.size());
  for (std::size_t i = 0; i < want.value().records.size(); ++i) {
    const SampleRecord& rec = got.value().records[i];
    if (i >= 16992 && i < 17008) {
      EXPECT_EQ(rec.fail_code, ErrorCode::kWorkerCrashed) << "record " << i;
      continue;
    }
    std::string image_want, image_got;
    serialize_record(want.value().records[i], image_want);
    serialize_record(rec, image_got);
    ASSERT_EQ(image_got, image_want) << "record " << i << " diverges";
  }
}

TEST(SuperviseCli, WaveAssignmentsFillTheLanes) {
  // Supervised twin of Framework.ProductionPathFillsTheLanes: a worker
  // evaluates a whole wave per assignment, so te-groups fill the lanes as
  // they do in-process; cut per 256-sample shard they held ~5 of 64.
  const std::string dir = fresh_dir("lanes");
  ASSERT_EQ(run_cli("evaluate --benchmark write --strategy importance"
                    " --samples 20000 --seed 2017 --t-range 50 --threads 2"
                    " --supervise 2 --journal " +
                    dir + " --metrics-out " + dir + "/report.json"),
            0);
  EXPECT_GE(metric_value(dir + "/report.json", "eval.lane_occupancy"), 32.0);
  // 79 shards of 256 samples, split evenly over two workers.
  const double assignments =
      metric_value(dir + "/report.json", "supervisor.assignments");
  EXPECT_GE(assignments, 2.0);
  EXPECT_LE(assignments, 10.0);
  EXPECT_EQ(metric_value(dir + "/report.json", "journal.shards"), 79.0);
}

TEST(SuperviseCli, DeadWorkerIsDetectedByEofNotHeartbeat) {
  const std::string base = fresh_dir("eof_base");
  const std::string dir = fresh_dir("eof_sup");
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // Worker 0 SIGKILLs itself mid-shard with the heartbeat deadline pushed
  // far beyond this test's own ctest timeout (600 s > 300 s). The campaign
  // can only finish in time if the supervisor notices the death through
  // pipe EOF — with O_CLOEXEC pipes no sibling worker holds a duplicate of
  // the dead worker's pipe ends, so the EOF is immediate.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --crash-after-samples 7" +
                    " --heartbeat-ms 600000" + " --metrics-out " + dir +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  EXPECT_NE(json_field(dir + "/report.json", "restarts"), "0")
      << "the dead worker must have been detected and respawned";
  expect_identical_journals(base, dir);
}

TEST(SuperviseCli, SupervisorSigkillIsResumable) {
  const std::string base = fresh_dir("supkill_base");
  const std::string dir = fresh_dir("supkill");
  // Large enough that evaluation outlives the kill window.
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  const Subprocess::ExitStatus st = kill_mid_campaign(
      flags + " --journal " + dir + " --supervise 2",
      fs::path(dir) / "campaign.fj", 4096, SIGKILL);
  // Either we killed it mid-run (the interesting case) or the machine was so
  // fast the campaign finished — both must leave a resumable journal.
  if (st.signaled) {
    EXPECT_EQ(st.term_signal, SIGKILL);
  }
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 4 --resume --metrics-out " + dir +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  expect_identical_journals(base, dir);
}

TEST(SuperviseCli, CrossModeResume) {
  const std::string base = fresh_dir("cross_base");
  const std::string in_then_sup = fresh_dir("cross_in_then_sup");
  const std::string sup_then_in = fresh_dir("cross_sup_then_in");
  // Three in-process waves (16,384 samples each), so an in-process run
  // interrupted after its first commit still has work left.
  const std::string flags = campaign_flags(40000) + " --threads 2";
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // An in-process campaign interrupted mid-run, resumed supervised.
  kill_mid_campaign(flags + " --journal " + in_then_sup,
                    fs::path(in_then_sup) / "campaign.fj", 4096, SIGINT);
  ASSERT_EQ(run_cli(flags + " --journal " + in_then_sup +
                    " --supervise 2 --resume --metrics-out " + in_then_sup +
                    "/report.json"),
            0);
  // A supervised campaign SIGKILLed mid-run, resumed in-process.
  kill_mid_campaign(flags + " --journal " + sup_then_in + " --supervise 2",
                    fs::path(sup_then_in) / "campaign.fj", 4096, SIGKILL);
  ASSERT_EQ(run_cli(flags + " --journal " + sup_then_in +
                    " --resume --metrics-out " + sup_then_in + "/report.json"),
            0);
  for (const std::string& dir : {in_then_sup, sup_then_in}) {
    SCOPED_TRACE(dir);
    for (const char* key : {"ssf", "std_error", "ess", "paths"}) {
      EXPECT_EQ(json_field(dir + "/report.json", key),
                json_field(base + "/report.json", key));
    }
    expect_identical_journals(base, dir);
  }
}

TEST(SuperviseCli, SigintFlushesInterruptedReportAndResumes) {
  const std::string base = fresh_dir("sigint_base");
  const std::string dir = fresh_dir("sigint");
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  const Subprocess::ExitStatus st = kill_mid_campaign(
      flags + " --journal " + dir + " --metrics-out " + dir +
          "/interrupted.json",
      fs::path(dir) / "campaign.fj", 4096, SIGINT);
  if (!st.signaled && st.exit_code == 3) {
    // Graceful stop: partial report flushed and marked interrupted.
    EXPECT_EQ(json_field(dir + "/interrupted.json", "interrupted"), "true");
    EXPECT_NE(json_field(dir + "/interrupted.json", "evaluated"),
              std::to_string(20000));
  } else {
    // The campaign finished before the signal landed; nothing to assert
    // beyond a clean exit.
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.exit_code, 0);
  }
  ASSERT_EQ(run_cli(flags + " --journal " + dir + " --resume --metrics-out " +
                    dir + "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
}

}  // namespace
}  // namespace fav::mc
