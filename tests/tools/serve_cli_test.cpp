// End-to-end tests for `fav serve` / `fav submit` through the real CLI
// binary: a served campaign must be indistinguishable from a local
// `fav evaluate` — same stdout block, same run report, same journal bytes —
// including under --supervise and a warm pre-characterization cache; two
// concurrent campaigns must stay isolated; and the daemon must reject
// unservable requests and drain gracefully on SIGTERM.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mc/journal.h"
#include "mc/supervisor.h"
#include "util/subprocess.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs the CLI synchronously, capturing stdout to `stdout_file`; returns the
/// process exit code.
int run_cli(const std::string& args, const std::string& stdout_file) {
  const std::string cmd = std::string(FAV_CLI_PATH) + " " + args + " > " +
                          stdout_file + " 2> " + stdout_file + ".err";
  const int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

/// Extracts the raw text of a scalar field from a run report ("key": value).
std::string json_field(const std::string& file, const std::string& key) {
  const std::string text = read_file(file);
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

/// Every estimate-bearing report field must match exactly (string compare of
/// the raw JSON text, so full double precision). Timing fields and the
/// metrics sink legitimately differ between runs and are not compared.
void expect_reports_equivalent(const std::string& file_a,
                               const std::string& file_b) {
  for (const char* key :
       {"ssf", "std_error", "ci95_half_width", "variance", "ess", "successes",
        "evaluated", "interrupted", "seed", "samples", "retried",
        "failed_weight_fraction", "supervise"}) {
    EXPECT_EQ(json_field(file_a, key), json_field(file_b, key))
        << "report field '" << key << "' diverges";
  }
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

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// A live `fav serve` daemon on a fresh socket, SIGTERMed (graceful drain)
/// on destruction. `extra` appends serve flags (--state-dir, --max-queued,
/// --campaign-deadline-ms, --stats-out, ...).
class Daemon {
 public:
  explicit Daemon(const std::string& tag, std::size_t max_campaigns = 2,
                  const std::vector<std::string>& extra = {}) {
    socket_path_ = (fs::path(::testing::TempDir()) /
                    ("fav_cli_" + tag + ".sock"))
                       .string();
    fs::remove(socket_path_);
    std::vector<std::string> argv = {FAV_CLI_PATH, "serve", "--socket",
                                     socket_path_, "--max-campaigns",
                                     std::to_string(max_campaigns)};
    argv.insert(argv.end(), extra.begin(), extra.end());
    Result<Subprocess> spawned = Subprocess::spawn(argv);
    EXPECT_TRUE(spawned.is_ok()) << spawned.status().to_string();
    proc_.emplace(std::move(spawned).value());
    for (int i = 0; i < 1000 && !fs::exists(socket_path_); ++i) {
      ::usleep(10'000);
    }
    EXPECT_TRUE(fs::exists(socket_path_)) << "daemon never bound its socket";
  }

  ~Daemon() { stop(); }

  /// SIGTERM + wait; returns the daemon exit status.
  Subprocess::ExitStatus stop() {
    if (!proc_.has_value()) return {};
    proc_->kill(SIGTERM);
    const Subprocess::ExitStatus st = proc_->wait();
    proc_.reset();
    return st;
  }

  /// SIGKILL + wait: the crash the recovery ledger exists for.
  void crash() {
    if (!proc_.has_value()) return;
    proc_->kill(SIGKILL);
    proc_->wait();
    proc_.reset();
  }

  const std::string& socket_path() const { return socket_path_; }

 private:
  std::string socket_path_;
  std::optional<Subprocess> proc_;
};

/// Polls `dir` until a journal shard (*.fj) appears — the point past which a
/// crash leaves resumable on-disk state. Returns false if `proc` exited
/// first (the campaign outran the poll).
bool wait_for_shard(const std::string& dir, Subprocess* proc,
                    bool* proc_done) {
  *proc_done = false;
  for (int i = 0; i < 12000; ++i) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".fj") return true;
    }
    Subprocess::ExitStatus st;
    if (proc != nullptr && proc->try_wait(&st)) {
      *proc_done = true;
      return false;
    }
    ::usleep(10'000);
  }
  return false;
}

/// Common campaign flags (sans journal/report paths): small but large enough
/// that every outcome path is exercised.
std::string campaign_flags(std::size_t samples) {
  return "--benchmark write --samples " + std::to_string(samples) +
         " --seed 2017 --t-range 20 --shard-size 16";
}

TEST(ServeCli, ServedCampaignMatchesLocalBitwise) {
  const std::string local = fresh_dir("identity_local");
  const std::string served = fresh_dir("identity_served");
  const std::string flags = campaign_flags(120);
  ASSERT_EQ(run_cli("evaluate " + flags + " --journal " + local +
                        " --metrics-out " + local + "/report.json",
                    local + "/out.txt"),
            0);
  Daemon daemon("identity");
  ASSERT_EQ(run_cli("submit --socket " + daemon.socket_path() + " " + flags +
                        " --journal " + served + " --metrics-out " + served +
                        "/report.json",
                    served + "/out.txt"),
            0);
  // The stdout blocks differ only in the paths the client chose.
  EXPECT_EQ(read_file(local + "/out.txt"),
            replace_all(read_file(served + "/out.txt"), served, local));
  expect_reports_equivalent(local + "/report.json", served + "/report.json");
  expect_identical_journals(local, served);
  const Subprocess::ExitStatus st = daemon.stop();
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);
}

TEST(ServeCli, SupervisedAndWarmCacheIdentity) {
  const std::string local = fresh_dir("warm_local");
  const std::string served = fresh_dir("warm_served");
  const std::string warmup = fresh_dir("warm_seed");
  const std::string cache = warmup + "/pre.fpa";
  const std::string flags = campaign_flags(120) + " --supervise 2" +
                            " --precharac-cache " + cache;
  // Warm the cache (this run reports "stored"; the two compared runs below
  // both report "hit", keeping their stdout blocks comparable).
  ASSERT_EQ(run_cli("evaluate " + flags + " --journal " + warmup,
                    warmup + "/out.txt"),
            0);
  ASSERT_EQ(run_cli("evaluate " + flags + " --journal " + local +
                        " --metrics-out " + local + "/report.json",
                    local + "/out.txt"),
            0);
  Daemon daemon("warm");
  ASSERT_EQ(run_cli("submit --socket " + daemon.socket_path() + " " + flags +
                        " --journal " + served + " --metrics-out " + served +
                        "/report.json",
                    served + "/out.txt"),
            0);
  EXPECT_NE(read_file(local + "/out.txt").find("precharac  : cache hit"),
            std::string::npos);
  EXPECT_EQ(read_file(local + "/out.txt"),
            replace_all(read_file(served + "/out.txt"), served, local));
  expect_reports_equivalent(local + "/report.json", served + "/report.json");
  expect_identical_journals(local, served);
}

TEST(ServeCli, ConcurrentCampaignsStayIsolated) {
  const std::string a = fresh_dir("conc_a");
  const std::string b = fresh_dir("conc_b");
  const std::string base_a = fresh_dir("conc_base_a");
  const std::string base_b = fresh_dir("conc_base_b");
  // Distinct seeds: cross-campaign leakage (shared journal shards, swapped
  // reports) cannot produce two correct, distinct results.
  const std::string flags_a = campaign_flags(120);
  const std::string flags_b =
      "--benchmark write --samples 140 --seed 4242 --t-range 20 "
      "--shard-size 16";
  ASSERT_EQ(run_cli("evaluate " + flags_a + " --journal " + base_a +
                        " --metrics-out " + base_a + "/report.json",
                    base_a + "/out.txt"),
            0);
  ASSERT_EQ(run_cli("evaluate " + flags_b + " --journal " + base_b +
                        " --metrics-out " + base_b + "/report.json",
                    base_b + "/out.txt"),
            0);
  Daemon daemon("concurrent", /*max_campaigns=*/2);
  int rc_a = -1, rc_b = -1;
  std::thread ta([&] {
    rc_a = run_cli("submit --socket " + daemon.socket_path() + " " + flags_a +
                       " --journal " + a + " --metrics-out " + a +
                       "/report.json",
                   a + "/out.txt");
  });
  std::thread tb([&] {
    rc_b = run_cli("submit --socket " + daemon.socket_path() + " " + flags_b +
                       " --journal " + b + " --metrics-out " + b +
                       "/report.json",
                   b + "/out.txt");
  });
  ta.join();
  tb.join();
  EXPECT_EQ(rc_a, 0);
  EXPECT_EQ(rc_b, 0);
  expect_reports_equivalent(base_a + "/report.json", a + "/report.json");
  expect_reports_equivalent(base_b + "/report.json", b + "/report.json");
  expect_identical_journals(base_a, a);
  expect_identical_journals(base_b, b);
}

TEST(ServeCli, UnservableRequestsAreRefusedPerCampaign) {
  Daemon daemon("refuse");
  const std::string dir = fresh_dir("refuse");
  // --trace-out is a client-side file the daemon cannot deliver; the request
  // must fail with the usage exit code without disturbing the daemon.
  EXPECT_EQ(run_cli("submit --socket " + daemon.socket_path() + " " +
                        campaign_flags(16) + " --trace-out " + dir +
                        "/trace.json",
                    dir + "/refused.txt"),
            2);
  // Chaos flags are process-global and must never run on a shared daemon.
  EXPECT_EQ(run_cli("submit --socket " + daemon.socket_path() + " " +
                        campaign_flags(16) + " --chaos-write-nth 5",
                    dir + "/refused2.txt"),
            2);
  // The daemon still serves the next well-formed campaign.
  EXPECT_EQ(run_cli("submit --socket " + daemon.socket_path() + " " +
                        campaign_flags(16),
                    dir + "/ok.txt"),
            0);
  const Subprocess::ExitStatus st = daemon.stop();
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);
}

TEST(ServeCli, BusyJournalIsRefusedAndSigtermDrainsGracefully) {
  Daemon daemon("busy");
  const std::string dir = fresh_dir("busy");
  // Campaign A is large enough to still be running when B arrives.
  Result<Subprocess> a = Subprocess::spawn(
      {FAV_CLI_PATH, "submit", "--socket", daemon.socket_path(), "--benchmark",
       "write", "--samples", "20000", "--seed", "2017", "--t-range", "20",
       "--shard-size", "16", "--journal", dir});
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  Subprocess proc_a = std::move(a).value();
  // Wait until A's campaign actually owns the journal (shard files appear).
  bool a_started = false;
  bool a_done = false;
  for (int i = 0; i < 12000 && !a_started; ++i) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".fj") a_started = true;
    }
    Subprocess::ExitStatus st;
    if (proc_a.try_wait(&st)) {
      a_done = true;  // finished before we could race it
      break;
    }
    if (!a_started) ::usleep(10'000);
  }
  if (a_started && !a_done) {
    // B requests the same journal directory while A holds it: refused.
    EXPECT_EQ(run_cli("submit --socket " + daemon.socket_path() + " " +
                          campaign_flags(16) + " --journal " + dir,
                      dir + "/busy.txt"),
              1);
    EXPECT_NE(read_file(dir + "/busy.txt.err").find("in use"),
              std::string::npos);
  }
  // SIGTERM the daemon while A is (likely) in flight: the daemon shares its
  // stop flag with the campaign, so A winds down as interrupted-resumable
  // (exit 3) or completes (exit 0), and the daemon drains cleanly.
  const Subprocess::ExitStatus daemon_st = daemon.stop();
  EXPECT_FALSE(daemon_st.signaled);
  EXPECT_EQ(daemon_st.exit_code, 0);
  const Subprocess::ExitStatus a_st = proc_a.wait();
  EXPECT_FALSE(a_st.signaled);
  EXPECT_TRUE(a_st.exit_code == 0 || a_st.exit_code == 3)
      << "campaign A exit " << a_st.exit_code;
}

TEST(ServeCli, DaemonCrashRecoveryBitwiseIdentity) {
  const std::string base = fresh_dir("crash_base");
  const std::string served = fresh_dir("crash_served");
  const std::string state = fresh_dir("crash_state");
  const std::string flags = campaign_flags(60000);
  ASSERT_EQ(run_cli("evaluate " + flags + " --journal " + base +
                        " --metrics-out " + base + "/report.json",
                    base + "/out.txt"),
            0);
  auto daemon = std::make_unique<Daemon>("crash", /*max_campaigns=*/2,
                                         std::vector<std::string>{
                                             "--state-dir", state});
  Result<Subprocess> a = Subprocess::spawn(
      {FAV_CLI_PATH, "submit", "--socket", daemon->socket_path(),
       "--benchmark", "write", "--samples", "60000", "--seed", "2017",
       "--t-range", "20", "--shard-size", "16", "--journal", served,
       "--metrics-out", served + "/report.json"});
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  Subprocess proc_a = std::move(a).value();
  bool a_done = false;
  const bool a_started = wait_for_shard(served, &proc_a, &a_done);
  ASSERT_TRUE(a_started || a_done) << "campaign never started";
  if (a_started) {
    // SIGKILL the daemon mid-campaign: no drain, no ledger finish record —
    // exactly the crash the recovery path exists for. The orphaned client
    // sees its stream die and fails.
    daemon->crash();
    const Subprocess::ExitStatus client_st = proc_a.wait();
    EXPECT_NE(client_st.exit_code, 0);
    fs::remove(served + "/report.json");
    // A fresh daemon on the same state dir replays the ledger, finds the
    // interrupted campaign, and re-runs it with --resume. The recovered
    // report and journal must be bitwise what an uninterrupted local run
    // produces.
    daemon = std::make_unique<Daemon>("crash", /*max_campaigns=*/2,
                                      std::vector<std::string>{
                                          "--state-dir", state});
    bool recovered = false;
    for (int i = 0; i < 12000 && !recovered; ++i) {
      recovered = fs::exists(served + "/report.json");
      if (!recovered) ::usleep(10'000);
    }
    ASSERT_TRUE(recovered) << "restarted daemon never re-ran the campaign";
  } else {
    proc_a.wait();
  }
  expect_reports_equivalent(base + "/report.json", served + "/report.json");
  expect_identical_journals(base, served);
  const Subprocess::ExitStatus st = daemon->stop();
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);
}

TEST(ServeCli, ClientDisconnectFreesSlotAndLeavesResumableJournal) {
  const std::string dir = fresh_dir("disc");
  const std::string base = fresh_dir("disc_base");
  const std::string quick = fresh_dir("disc_quick");
  const std::string stats = fresh_dir("disc_stats") + "/stats.json";
  Daemon daemon("disc", /*max_campaigns=*/1,
                {"--stats-out", stats});
  Result<Subprocess> a = Subprocess::spawn(
      {FAV_CLI_PATH, "submit", "--socket", daemon.socket_path(),
       "--benchmark", "write", "--samples", "60000", "--seed", "2017",
       "--t-range", "20", "--shard-size", "16", "--journal", dir});
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  Subprocess proc_a = std::move(a).value();
  bool a_done = false;
  const bool a_started = wait_for_shard(dir, &proc_a, &a_done);
  ASSERT_TRUE(a_started || a_done) << "campaign never started";
  if (a_started && !a_done) {
    // Kill the client outright: the daemon must notice the dead socket,
    // cancel the campaign, and free the lone slot.
    proc_a.kill(SIGKILL);
    proc_a.wait();
  } else {
    proc_a.wait();
  }
  // The next campaign gets the slot (queued briefly while the cancelled one
  // winds down). A wedged slot would hang this submit until the queue
  // timeout and fail the test.
  EXPECT_EQ(run_cli("submit --socket " + daemon.socket_path() + " " +
                        campaign_flags(16) + " --journal " + quick,
                    quick + "/out.txt"),
            0);
  const Subprocess::ExitStatus st = daemon.stop();
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);
  // Drain wrote the stats snapshot; the kill above is the one cancellation.
  const std::string snapshot = read_file(stats);
  EXPECT_NE(snapshot.find("\"fav.serve_stats.v1\""), std::string::npos);
  if (a_started && !a_done) {
    EXPECT_NE(snapshot.find("\"cancelled\": 1"), std::string::npos)
        << snapshot;
    // The cancelled campaign left a resumable journal: finishing it locally
    // must be bitwise-indistinguishable from never having been interrupted.
    ASSERT_EQ(run_cli("evaluate " + campaign_flags(60000) + " --journal " +
                          dir + " --resume --metrics-out " + dir +
                          "/report.json",
                      dir + "/resume.txt"),
              0);
    ASSERT_EQ(run_cli("evaluate " + campaign_flags(60000) + " --journal " +
                          base + " --metrics-out " + base + "/report.json",
                      base + "/out.txt"),
              0);
    expect_reports_equivalent(base + "/report.json", dir + "/report.json");
    expect_identical_journals(base, dir);
  }
}

TEST(ServeCli, QueueOverflowBacksOffAndDeadlineFreesTheSlot) {
  const std::string dir = fresh_dir("deadline");
  const std::string retry = fresh_dir("deadline_retry");
  // One slot, no queue, and a server-side deadline: campaign A is stopped by
  // the daemon even though its client never cancels.
  Daemon daemon("deadline", /*max_campaigns=*/1,
                {"--max-queued", "0", "--campaign-deadline-ms", "2500"});
  Result<Subprocess> a = Subprocess::spawn(
      {FAV_CLI_PATH, "submit", "--socket", daemon.socket_path(),
       "--benchmark", "write", "--samples", "60000", "--seed", "2017",
       "--t-range", "20", "--shard-size", "16", "--journal", dir});
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  Subprocess proc_a = std::move(a).value();
  bool a_done = false;
  const bool a_started = wait_for_shard(dir, &proc_a, &a_done);
  ASSERT_TRUE(a_started || a_done) << "campaign never started";
  if (a_started && !a_done) {
    Subprocess::ExitStatus st;
    if (!proc_a.try_wait(&st)) {
      // No retries: the kBusy turnaway surfaces as an immediate failure.
      // A can hit its deadline between the liveness check above and this
      // request, in which case the submit wins the freed slot instead —
      // both outcomes are correct; only a crash or hang is not.
      const int rc = run_cli("submit --socket " + daemon.socket_path() + " " +
                                 campaign_flags(16) + " --busy-retries 0",
                             retry + "/refused.txt");
      EXPECT_TRUE(rc == 0 || rc == 1) << "no-retry submit exit " << rc;
      if (rc == 1) {
        EXPECT_NE(read_file(retry + "/refused.txt.err").find("at capacity"),
                  std::string::npos);
      }
    }
  }
  // With backoff the same request eventually lands: the server deadline
  // stops A (exit 3, resumable) and the freed slot admits the retry. The
  // deadline is server-wide, so on a heavily loaded machine the retry
  // campaign itself can be deadline-stopped (exit 3) after admission —
  // what must never happen is staying busy until the retries run out.
  const int retry_rc =
      run_cli("submit --socket " + daemon.socket_path() + " " +
                  campaign_flags(16) + " --busy-retries 60" +
                  " --retry-backoff-ms 250",
              retry + "/ok.txt");
  EXPECT_TRUE(retry_rc == 0 || retry_rc == 3)
      << "backoff submit exit " << retry_rc << "\nstderr: "
      << read_file(retry + "/ok.txt.err");
  const Subprocess::ExitStatus a_st = proc_a.wait();
  EXPECT_FALSE(a_st.signaled);
  EXPECT_TRUE(a_st.exit_code == 0 || a_st.exit_code == 3)
      << "campaign A exit " << a_st.exit_code;
  const Subprocess::ExitStatus st = daemon.stop();
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);
}

}  // namespace
}  // namespace fav::mc
