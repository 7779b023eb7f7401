// End-to-end CLI tests for the pre-characterization artifact cache and the
// degraded-I/O write path (ISSUE acceptance):
//   * cache-off, cold-write and warm-load campaigns are bitwise-identical,
//     single-process and supervised, and a corrupted artifact degrades to
//     recompute-and-rewrite — never a wrong answer,
//   * injected ENOSPC (--chaos-write-nth) stops a campaign — in-process or
//     supervised, where the supervisor is the one journal writer —
//     gracefully with exit code 3 and an "interrupted": true report,
//     quarantines nothing, and --resume completes to the undisturbed
//     result.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "mc/journal.h"
#include "mc/supervisor.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_dio_cli_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(FAV_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

std::string campaign_flags(std::size_t samples) {
  return "evaluate --benchmark write --samples " + std::to_string(samples) +
         " --seed 2017 --t-range 20 --shard-size 16";
}

std::string json_field(const std::string& file, const std::string& key) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  // The run report mixes `"key": value` (report fields) and `"key":value`
  // (metrics counters); accept both spellings.
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "<missing " + key + ">";
  std::size_t begin = at + needle.size();
  while (begin < text.size() && text[begin] == ' ') ++begin;
  std::size_t end = begin;
  while (end < text.size() && text[end] != ',' && text[end] != '\n' &&
         text[end] != '}') {
    ++end;
  }
  return text.substr(begin, end - begin);
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

// Cache off → cold write → warm load → corrupted artifact → supervised warm:
// the report must show the expected outcome at every step, and the estimate
// must never move.
TEST(PrecharacCacheCli, CacheNeverChangesTheAnswer) {
  const std::string off = fresh_dir("cache_off");
  const std::string cold = fresh_dir("cache_cold");
  const std::string warm = fresh_dir("cache_warm");
  const std::string corrupt = fresh_dir("cache_corrupt");
  const std::string sup = fresh_dir("cache_sup");
  const std::string artifact = off + "/precharac.fpa";
  const std::string flags = campaign_flags(120);

  ASSERT_EQ(run_cli(flags + " --journal " + off + " --metrics-out " + off +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(off + "/report.json", "enabled"), "false");
  const std::string ssf = json_field(off + "/report.json", "ssf");

  ASSERT_EQ(run_cli(flags + " --journal " + cold + " --precharac-cache " +
                    artifact + " --metrics-out " + cold + "/report.json"),
            0);
  EXPECT_EQ(json_field(cold + "/report.json", "outcome"), "\"miss\"");
  EXPECT_EQ(json_field(cold + "/report.json", "stored"), "true");
  EXPECT_EQ(json_field(cold + "/report.json", "ssf"), ssf);
  ASSERT_TRUE(fs::exists(artifact));

  ASSERT_EQ(run_cli(flags + " --journal " + warm + " --precharac-cache " +
                    artifact + " --metrics-out " + warm + "/report.json"),
            0);
  EXPECT_EQ(json_field(warm + "/report.json", "outcome"), "\"hit\"");
  EXPECT_EQ(json_field(warm + "/report.json", "stored"), "false");
  EXPECT_EQ(json_field(warm + "/report.json", "ssf"), ssf);

  // Flip one byte mid-file: the next run must detect, recompute, rewrite.
  {
    std::ifstream in(artifact, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string bytes = ss.str();
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_EQ(run_cli(flags + " --journal " + corrupt + " --precharac-cache " +
                    artifact + " --metrics-out " + corrupt + "/report.json"),
            0);
  EXPECT_EQ(json_field(corrupt + "/report.json", "outcome"), "\"corrupt\"");
  EXPECT_EQ(json_field(corrupt + "/report.json", "stored"), "true");
  EXPECT_EQ(json_field(corrupt + "/report.json", "ssf"), ssf);

  // Supervised warm start: every worker loads the same artifact.
  ASSERT_EQ(run_cli(flags + " --journal " + sup + " --supervise 2" +
                    " --precharac-cache " + artifact + " --metrics-out " + sup +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(sup + "/report.json", "outcome"), "\"hit\"");
  EXPECT_EQ(json_field(sup + "/report.json", "ssf"), ssf);
  expect_identical_journals(off, sup);
}

TEST(DegradedIoCli, EnospcStopsSingleProcessCampaignResumably) {
  const std::string base = fresh_dir("enospc_base");
  const std::string dir = fresh_dir("enospc");
  const std::string flags = campaign_flags(120);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // Journal write 1 is the header, write k+1 is frame k: the second shard
  // hits the injected ENOSPC and the campaign stops gracefully.
  ASSERT_EQ(run_cli(flags + " --journal " + dir + " --chaos-write-nth 3" +
                    " --metrics-out " + dir + "/interrupted.json"),
            3);
  EXPECT_EQ(json_field(dir + "/interrupted.json", "interrupted"), "true");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "evaluated"), "16");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "journal.storage_full_stops"),
            "1");
  // Space restored: --resume completes to the undisturbed result.
  ASSERT_EQ(run_cli(flags + " --journal " + dir + " --resume --metrics-out " +
                    dir + "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  expect_identical_journals(base, dir);
}

TEST(DegradedIoCli, SupervisorEnospcStopsFleetWithoutQuarantine) {
  const std::string base = fresh_dir("wenospc_base");
  const std::string dir = fresh_dir("wenospc");
  const std::string flags = campaign_flags(120);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // Journal write 1 is the header, write 2 the first shard: the supervisor's
  // own journal hits ENOSPC, stops assigning, lets the workers finish and
  // stops the fleet without charging any shard an attempt.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --chaos-write-nth 2" + " --metrics-out " +
                    dir + "/interrupted.json"),
            3);
  EXPECT_EQ(json_field(dir + "/interrupted.json", "interrupted"), "true");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "quarantined_shards"), "0");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "quarantined_samples"), "0");
  EXPECT_NE(json_field(dir + "/interrupted.json", "storage_full_stops"), "0");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "restarts"), "0");
  // Resume without chaos: bitwise-identical to the single-process baseline.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --resume --metrics-out " + dir +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  expect_identical_journals(base, dir);
}

}  // namespace
}  // namespace fav::mc
