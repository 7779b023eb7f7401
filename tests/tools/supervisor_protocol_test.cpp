// Protocol enforcement of CampaignSupervisor against a scripted worker
// (fake_worker.cpp, FAV_FAKE_WORKER_PATH): a PROGRESS index outside the
// worker's assignment, a repeated index, and a DONE sent before every
// record arrived each get the worker killed and its unresolved shards
// charged. With max_shard_attempts = 1 a charge quarantines at once, so the
// charged shards are exactly the quarantined ones.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fake_worker.h"
#include "mc/journal.h"
#include "mc/supervisor.h"
#include "soc/benchmark.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

/// An evaluator for the supervisor's side only: it reduces the streamed
/// records and never simulates.
struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  SsfEvaluator evaluator{soc, placement, injector, bench, golden, nullptr};
};

Context& ctx() {
  static Context c;
  return c;
}

struct Outcome {
  SupervisedResult sup;
  std::vector<std::string> log;
  std::vector<SampleRecord> journal;
};

/// 8 samples in two 4-sample shards, one worker (so one 2-shard
/// assignment); `mode` rides on the worker's first spawn only.
Outcome run_campaign(const std::string& name, const std::string& mode) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_proto_" + name);
  fs::remove_all(dir);
  Outcome out;
  SupervisorConfig config;
  config.worker_command = {FAV_FAKE_WORKER_PATH};
  if (!mode.empty()) config.first_spawn_args = {mode};
  config.max_shard_attempts = 1;
  config.backoff_base_ms = 1;
  config.journal.dir = dir.string();
  config.journal.shard_size = 4;
  config.log = [&out](const std::string& line) { out.log.push_back(line); };
  std::vector<faultsim::FaultSample> samples;
  for (std::uint64_t i = 0; i < 8; ++i) samples.push_back(fake::sample(i));
  CampaignSupervisor supervisor(ctx().evaluator, config);
  Result<SupervisedResult> run = supervisor.run_batch(samples);
  EXPECT_TRUE(run.is_ok()) << run.status().to_string();
  if (run.is_ok()) out.sup = std::move(run).value();
  Result<JournalContents> journal = read_journal(dir.string());
  EXPECT_TRUE(journal.is_ok()) << journal.status().to_string();
  if (journal.is_ok()) out.journal = std::move(journal.value().records);
  return out;
}

bool killed(const Outcome& out) {
  for (const std::string& line : out.log) {
    if (line.find("killing worker 0") != std::string::npos) return true;
  }
  return false;
}

std::size_t crashed_records(const Outcome& out) {
  std::size_t n = 0;
  for (const SampleRecord& rec : out.journal) {
    n += rec.fail_code == ErrorCode::kWorkerCrashed ? 1 : 0;
  }
  return n;
}

TEST(SupervisorProtocol, HonestWorkerCompletesTheCampaign) {
  const Outcome out = run_campaign("honest", "");
  EXPECT_FALSE(killed(out));
  EXPECT_EQ(out.sup.quarantined_shards, 0u);
  EXPECT_EQ(out.sup.result.evaluated, 8u);
  EXPECT_FALSE(out.sup.result.interrupted);
  ASSERT_EQ(out.journal.size(), 8u);
  EXPECT_EQ(crashed_records(out), 0u);
}

TEST(SupervisorProtocol, IndexOutsideTheAssignmentKillsAndCharges) {
  const Outcome out = run_campaign("out_of_range", "out-of-range");
  EXPECT_TRUE(killed(out));
  // Nothing arrived: both shards of the assignment are charged.
  EXPECT_EQ(out.sup.quarantined_shards, 2u);
  ASSERT_EQ(out.journal.size(), 8u);
  EXPECT_EQ(crashed_records(out), 8u);
}

TEST(SupervisorProtocol, RepeatedIndexKillsAndCharges) {
  const Outcome out = run_campaign("repeat", "repeat");
  EXPECT_TRUE(killed(out));
  // Record 0 arrived once; its shard is still unresolved and is charged.
  EXPECT_EQ(out.sup.quarantined_shards, 2u);
  EXPECT_EQ(crashed_records(out), 8u);
}

TEST(SupervisorProtocol, EarlyDoneKillsAndChargesTheIncompleteShard) {
  const Outcome out = run_campaign("early_done", "early-done");
  EXPECT_TRUE(killed(out));
  // Shard [0, 4) arrived whole and stays; [4, 8) lacks record 7.
  EXPECT_EQ(out.sup.quarantined_shards, 1u);
  ASSERT_EQ(out.journal.size(), 8u);
  EXPECT_EQ(out.journal[0].fail_code, ErrorCode::kOk);
  EXPECT_EQ(out.journal[4].fail_code, ErrorCode::kWorkerCrashed);
  EXPECT_EQ(crashed_records(out), 4u);
}

}  // namespace
}  // namespace fav::mc
