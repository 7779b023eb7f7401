// The te-group contract (DESIGN.md §6i): every gate-evaluated sample runs
// through the 64-lane group routine, and which samples share a group is a
// pure scheduling decision. Every SsfResult — records, fail codes, traces,
// contributions — must be bitwise identical to evaluating each sample alone
// (a group of one) at every thread count and through journaled
// kill-and-resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "faultsim/technique.h"
#include "mc/evaluator.h"
#include "mc/samplers.h"
#include "soc/benchmark.h"
#include "util/metrics.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
  faultsim::GlitchSimulator glitch{soc.netlist()};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun synth_golden{workload, 400, 32};
  precharac::RegisterCharacterization charac;

  Context()
      : charac(synth_golden, [] {
          precharac::CharacterizationConfig cfg;
          cfg.stride = 23;
          return cfg;
        }()) {}

  SsfEvaluator make(const EvaluatorConfig& cfg) const {
    return SsfEvaluator(soc, placement, injector, bench, golden, &charac,
                        cfg);
  }
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

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_be_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Bitwise equality down to the failure metadata — batching must reproduce
/// even the scalar path's deterministic failures record for record.
void expect_bitwise_equal(const SsfResult& a, const SsfResult& b) {
  EXPECT_EQ(a.ssf(), b.ssf());
  EXPECT_EQ(a.sample_variance(), b.sample_variance());
  EXPECT_EQ(a.stats.count(), b.stats.count());
  EXPECT_EQ(a.stats.min(), b.stats.min());
  EXPECT_EQ(a.stats.max(), b.stats.max());
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.analytical, b.analytical);
  EXPECT_EQ(a.rtl, b.rtl);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.failure_counts, b.failure_counts);
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
    EXPECT_EQ(a.records[i].fail_code, b.records[i].fail_code) << i;
    EXPECT_EQ(a.records[i].fail_reason, b.records[i].fail_reason) << i;
    EXPECT_EQ(a.records[i].retried, b.records[i].retried) << i;
  }
}

SsfResult run_with(std::size_t threads, std::uint64_t seed, std::size_t n,
                   MetricsSink* sink = nullptr,
                   std::uint64_t cycle_budget = 0) {
  EvaluatorConfig cfg;
  cfg.threads = threads;
  cfg.metrics = sink;
  cfg.cycle_budget = cycle_budget;
  const SsfEvaluator ev = ctx().make(cfg);
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(seed);
  return ev.run(sampler, rng, n);
}

/// The reference: every sample of the batch evaluated alone, as a group of
/// one (evaluate_sample_isolated), folded by the same reduction as a run.
SsfResult evaluate_alone(const SsfEvaluator& ev, Sampler& sampler, Rng& rng,
                         std::size_t n, MetricsSink* sink = nullptr) {
  std::vector<SampleRecord> records;
  auto scratch = std::make_unique<EvalScratch>(ev);
  for (const faultsim::FaultSample& s : ev.draw_batch(sampler, rng, n)) {
    records.push_back(ev.evaluate_sample_isolated(s, scratch, sink));
  }
  return ev.reduce_records(std::move(records));
}

SsfResult alone_with(std::uint64_t seed, std::size_t n,
                     MetricsSink* sink = nullptr,
                     std::uint64_t cycle_budget = 0) {
  EvaluatorConfig cfg;
  cfg.cycle_budget = cycle_budget;
  const SsfEvaluator ev = ctx().make(cfg);
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(seed);
  return evaluate_alone(ev, sampler, rng, n, sink);
}

TEST(BatchEquivalence, LaneAndThreadCountsAreBitwiseIdentical) {
  MetricsSink alone_sink;
  const SsfResult alone = alone_with(31, 300, &alone_sink);
  // Alone, every sample is a group of one.
  EXPECT_EQ(alone_sink.counter("eval.batch_groups"), 300u);
  EXPECT_EQ(alone_sink.counter("eval.batch_lanes"), 300u);
  EXPECT_EQ(alone_sink.counter("eval.batch_restore_saved"), 0u);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MetricsSink sink;
    const SsfResult grouped = run_with(threads, 31, 300, &sink);
    expect_bitwise_equal(grouped, alone);
    // The run must actually share groups, not evaluate samples one by one.
    EXPECT_GT(sink.counter("eval.batch_groups"), 0u);
    EXPECT_EQ(sink.counter("eval.batch_lanes"), 300u);
    EXPECT_LT(sink.counter("eval.batch_groups"), 300u / 4);
    EXPECT_EQ(sink.counter("eval.batch_restore_saved"),
              sink.counter("eval.batch_lanes") -
                  sink.counter("eval.batch_groups"));
  }
}

TEST(BatchEquivalence, CycleBudgetFailuresAreIdenticalLaneForLane) {
  // A tight budget makes some samples fail deterministically with
  // kCycleBudgetExceeded. Each lane replays the charges of a sample
  // evaluated alone, so the same samples must fail with the same code and
  // reason.
  const std::uint64_t budget = 20;
  const SsfResult alone = alone_with(47, 256, nullptr, budget);
  ASSERT_GT(alone.failed, 0u);  // the scenario must actually trigger
  ASSERT_LT(alone.failed, 256u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SsfResult grouped = run_with(threads, 47, 256, nullptr, budget);
    expect_bitwise_equal(grouped, alone);
  }
}

TEST(BatchEquivalence, ClockGlitchTechniqueBatchesBitwiseIdentically) {
  faultsim::GlitchAttackModel model(faultsim::TechniqueKind::kClockGlitch);
  model.t_min = 1;
  model.t_max = 10;
  model.levels = {0.35, 0.55};
  const faultsim::GlitchTechnique technique(
      ctx().glitch, faultsim::TechniqueKind::kClockGlitch);
  const auto engine = [&](const EvaluatorConfig& cfg) {
    return SsfEvaluator(ctx().soc, technique, ctx().bench, ctx().golden,
                        &ctx().charac, cfg);
  };

  const SsfEvaluator alone_ev = engine({});
  GlitchSampler alone_sampler(model, alone_ev.target_cycle());
  Rng alone_rng(9);
  const SsfResult alone =
      evaluate_alone(alone_ev, alone_sampler, alone_rng, 300);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvaluatorConfig cfg;
    cfg.threads = threads;
    const SsfEvaluator ev = engine(cfg);
    GlitchSampler sampler(model, ev.target_cycle());
    Rng rng(9);
    expect_bitwise_equal(ev.run(sampler, rng, 300), alone);
  }
}

TEST(BatchEquivalence, JournaledKillAndResumeAcrossLaneCounts) {
  // A campaign killed mid-run (journal torn back to a prefix, as SIGKILL
  // leaves it) and resumed at a *different* thread count must still
  // reproduce every sample evaluated alone, bit for bit. The resumed run's
  // waves start at the torn prefix, so its te-groups hold different lanes
  // than the first run's: the journal carries records, not grouping.
  const SsfResult reference = alone_with(53, 200);

  const std::string dir = fresh_dir("resume_lanes");
  JournalOptions options;
  options.dir = dir;
  options.shard_size = 32;
  options.fingerprint = 0xFEEDFACE;
  options.context = "batch_equivalence_test";

  {
    EvaluatorConfig cfg;
    cfg.threads = 2;
    const SsfEvaluator ev = ctx().make(cfg);
    const auto attack = test_attack();
    RandomSampler sampler(attack);
    Rng rng(53);
    Result<SsfResult> full = ev.run_journaled(sampler, rng, 200, options);
    ASSERT_TRUE(full.is_ok()) << full.status().to_string();
    expect_bitwise_equal(full.value(), reference);
  }
  const fs::path file = fs::path(dir) / "campaign.fj";
  fs::resize_file(file, fs::file_size(file) * 2 / 5);

  EvaluatorConfig cfg;
  cfg.threads = 4;
  const SsfEvaluator ev = ctx().make(cfg);
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(53);
  options.resume = true;
  Result<SsfResult> resumed = ev.run_journaled(sampler, rng, 200, options);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  expect_bitwise_equal(resumed.value(), reference);
}

TEST(BatchEquivalence, RetriedLaneLeavesItsGroupIntact) {
  // Regression: a lane whose finalization failed with a retryable error
  // used to be re-evaluated on its group's own scratch while the group was
  // still being finished. That overwrote the shared post-injection machine
  // every later diverging lane copies (so their records were silently
  // wrong), and when the re-evaluation was retried on a fresh scratch the
  // group went on reading the freed one. Trigger: the clock glitch at t 4,
  // depth 0.8 keeps the program from halting, so against a benchmark whose
  // max_cycles is far past the golden run its resume always runs into the
  // wall-clock deadline; the other depths at t 4 flip bits and resume for a
  // few dozen cycles, far below the deadline.
  soc::SecurityBenchmark unbounded = ctx().bench;
  unbounded.max_cycles = ctx().bench.max_cycles * 10'000'000;
  const faultsim::GlitchTechnique technique(
      ctx().glitch, faultsim::TechniqueKind::kClockGlitch);
  std::vector<faultsim::FaultSample> samples;
  for (const double depth : {0.8, 0.3, 0.5, 0.7, 0.9}) {
    faultsim::FaultSample s;
    s.technique = faultsim::TechniqueKind::kClockGlitch;
    s.t = 4;
    s.depth = depth;
    samples.push_back(s);
  }
  for (const bool retry : {false, true}) {
    SCOPED_TRACE(retry ? "retry on" : "retry off");
    EvaluatorConfig cfg;
    cfg.sample_deadline_ms = 100;
    cfg.retry_failed = retry;
    const SsfEvaluator ev(ctx().soc, technique, unbounded, ctx().golden,
                          nullptr, cfg);
    const SsfResult grouped = ev.run_batch(samples);
    ASSERT_EQ(grouped.records.size(), samples.size());
    EXPECT_EQ(grouped.records[0].fail_code, ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(grouped.records[0].retried, retry);
    auto scratch = std::make_unique<EvalScratch>(ev);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const SampleRecord alone =
          ev.evaluate_sample_isolated(samples[i], scratch);
      const SampleRecord& rec = grouped.records[i];
      EXPECT_EQ(rec.te, alone.te) << i;
      EXPECT_EQ(rec.flipped_bits, alone.flipped_bits) << i;
      EXPECT_EQ(rec.path, alone.path) << i;
      EXPECT_EQ(rec.success, alone.success) << i;
      EXPECT_EQ(rec.contribution, alone.contribution) << i;
      EXPECT_EQ(rec.fail_code, alone.fail_code) << i;
      EXPECT_EQ(rec.fail_reason, alone.fail_reason) << i;
      EXPECT_EQ(rec.retried, alone.retried) << i;
    }
    // The later lanes must diverge, or the shared machine is never read.
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_FALSE(grouped.records[i].flipped_bits.empty()) << i;
      EXPECT_EQ(grouped.records[i].path, OutcomePath::kRtl) << i;
    }
  }
}

}  // namespace
}  // namespace fav::mc
