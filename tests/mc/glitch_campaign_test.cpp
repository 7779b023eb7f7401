// Clock-glitch campaigns on the technique-generic engine (SsfEvaluator +
// GlitchTechnique): single attacks, exact enumeration vs Monte Carlo,
// thread-count determinism, kill-and-resume journaling, and campaign
// observability — the glitch path must offer everything the radiation path
// does. The suite keeps the name of the thin wrapper class these tests were
// first written against; they now drive the engine directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "faultsim/technique.h"
#include "mc/evaluator.h"
#include "mc/samplers.h"
#include "soc/benchmark.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

constexpr faultsim::TechniqueKind kClock =
    faultsim::TechniqueKind::kClockGlitch;

struct Context {
  soc::SocNetlist soc;
  faultsim::GlitchSimulator glitch{soc.netlist()};
  faultsim::GlitchTechnique technique{glitch, kClock};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun synth_golden{workload, 400, 32};
  precharac::RegisterCharacterization charac;
  SsfEvaluator engine;

  Context()
      : charac(synth_golden,
               [] {
                 precharac::CharacterizationConfig cfg;
                 cfg.stride = 23;
                 return cfg;
               }()),
        engine(soc, technique, bench, golden, &charac) {}
};

Context& ctx() {
  static Context c;
  return c;
}

/// An engine with its own glitch technique and `cfg` (threads, sinks).
struct Engine {
  faultsim::GlitchTechnique technique{ctx().glitch, kClock};
  SsfEvaluator engine;
  explicit Engine(const EvaluatorConfig& cfg)
      : engine(ctx().soc, technique, ctx().bench, ctx().golden, &ctx().charac,
               cfg) {}
};

faultsim::GlitchAttackModel test_model() {
  faultsim::GlitchAttackModel model(kClock);
  model.t_min = 1;
  model.t_max = 10;
  model.levels = {0.35, 0.55};
  return model;
}

/// Outcome of one glitch attack at timing distance t with the given depth.
SampleRecord evaluate(int t, double depth) {
  faultsim::FaultSample sample;
  sample.technique = kClock;
  sample.t = t;
  sample.depth = depth;
  return ctx().engine.evaluate_sample(sample);
}

/// Exact SSF over `model`: validated against the target cycle, bound as the
/// technique's enumerable space and swept by run_exhaustive.
SsfResult exact_ssf(faultsim::GlitchTechnique& technique,
                    const SsfEvaluator& engine,
                    const faultsim::GlitchAttackModel& model) {
  model.check_valid(engine.target_cycle());
  technique.bind_space(model);
  return engine.run_exhaustive();
}

SsfResult exact_ssf(const faultsim::GlitchAttackModel& model) {
  return exact_ssf(ctx().technique, ctx().engine, model);
}

/// Monte Carlo over `model` with the uniform glitch sampler.
SsfResult run(const SsfEvaluator& engine,
              const faultsim::GlitchAttackModel& model, Rng& rng,
              std::size_t n) {
  GlitchSampler sampler(model, engine.target_cycle());
  return engine.run(sampler, rng, n);
}

/// Fresh per-test journal directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
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
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
  EXPECT_EQ(a.field_contribution, b.field_contribution);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].sample.t, b.records[i].sample.t) << i;
    EXPECT_EQ(a.records[i].sample.depth, b.records[i].sample.depth) << i;
    EXPECT_EQ(a.records[i].flipped_bits, b.records[i].flipped_bits) << i;
    EXPECT_EQ(a.records[i].path, b.records[i].path) << i;
    EXPECT_EQ(a.records[i].contribution, b.records[i].contribution) << i;
  }
}

TEST(ClockGlitchEvaluator, ShallowGlitchIsMasked) {
  // A barely-shortened period misses no path.
  const SampleRecord rec = evaluate(5, 0.999);
  EXPECT_TRUE(rec.flipped_bits.empty());
  EXPECT_FALSE(rec.success);
  EXPECT_EQ(rec.path, OutcomePath::kMasked);
  EXPECT_EQ(rec.sample.technique, faultsim::TechniqueKind::kClockGlitch);
}

TEST(ClockGlitchEvaluator, DeepGlitchFlipsSomething) {
  bool any = false;
  for (int t = 1; t <= 10; ++t) {
    if (!evaluate(t, 0.3).flipped_bits.empty()) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(ClockGlitchEvaluator, DeterministicPerAttack) {
  const SampleRecord a = evaluate(7, 0.5);
  const SampleRecord b = evaluate(7, 0.5);
  EXPECT_EQ(a.flipped_bits, b.flipped_bits);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.te, ctx().engine.target_cycle() - 7);
}

TEST(ClockGlitchEvaluator, InvalidArgumentsThrow) {
  EXPECT_THROW(evaluate(-1, 0.5), fav::CheckError);
  EXPECT_THROW(evaluate(1, 0.0), fav::CheckError);
  EXPECT_THROW(evaluate(1, 1.0), fav::CheckError);
}

TEST(ClockGlitchEvaluator, ForeignTechniqueSampleIsRejected) {
  // The engine is built for the glitch technique; a radiation-tagged sample
  // must be refused instead of silently misinterpreted.
  faultsim::FaultSample radiation;  // defaults to kRadiation
  radiation.t = 3;
  radiation.radius = 1.5;
  EXPECT_THROW(ctx().engine.evaluate_sample(radiation), fav::CheckError);
}

TEST(ClockGlitchEvaluator, ExactEnumerationCoversWholeSpace) {
  faultsim::GlitchAttackModel model(kClock);
  model.t_min = 1;
  model.t_max = 20;
  model.levels = {0.4, 0.7};
  const SsfResult exact = exact_ssf(model);
  EXPECT_EQ(exact.stats.count(), 40u);
  EXPECT_EQ(exact.records.size(), 40u);
  EXPECT_GE(exact.ssf(), 0.0);
  EXPECT_LE(exact.ssf(), 1.0);
}

TEST(ClockGlitchEvaluator, ModelBeyondTargetCycleIsRejected) {
  // A timing range past Tt has no cycle to glitch. Such samples used to be
  // silently recorded as masked (te = 0), diluting the estimate; the model
  // is now rejected up front by enumeration and sampler construction alike.
  faultsim::GlitchAttackModel model = test_model();
  model.t_max = static_cast<int>(ctx().engine.target_cycle()) + 5;
  EXPECT_THROW(exact_ssf(model), fav::CheckError);
  EXPECT_THROW(GlitchSampler(model, ctx().engine.target_cycle()),
               fav::CheckError);
  Rng rng(1);
  EXPECT_THROW(run(ctx().engine, model, rng, 10), fav::CheckError);
}

TEST(ClockGlitchEvaluator, MonteCarloConvergesToExactWithin3Sigma) {
  // The unified MC estimate must agree with the exact enumeration within its
  // own 3-sigma confidence interval — at one thread and at four (the sample
  // stream is drawn sequentially, so the estimate is thread-independent).
  const faultsim::GlitchAttackModel model = test_model();
  const SsfResult exact = exact_ssf(model);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvaluatorConfig cfg;
    cfg.threads = threads;
    const Engine e(cfg);
    Rng rng(42);
    const SsfResult mc = run(e.engine, model, rng, 2000);
    const double tolerance =
        std::max(3.0 * mc.stats.standard_error(), 1e-12);
    EXPECT_NEAR(mc.ssf(), exact.ssf(), tolerance);
  }
}

TEST(ClockGlitchEvaluator, ThreadCountsAreBitwiseIdentical) {
  const faultsim::GlitchAttackModel model = test_model();
  SsfResult reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvaluatorConfig cfg;
    cfg.threads = threads;
    const Engine e(cfg);
    Rng rng(7);
    SsfResult result = run(e.engine, model, rng, 300);
    if (threads == 1) {
      reference = std::move(result);
    } else {
      expect_bitwise_equal(result, reference);
    }
  }
}

TEST(ClockGlitchEvaluator, ExactEnumerationIsThreadIndependent) {
  const faultsim::GlitchAttackModel model = test_model();
  const SsfResult sequential = exact_ssf(model);
  EvaluatorConfig cfg;
  cfg.threads = 4;
  Engine e(cfg);
  expect_bitwise_equal(exact_ssf(e.technique, e.engine, model), sequential);
}

TEST(ClockGlitchEvaluator, KillAndResumeIsBitwiseIdentical) {
  // The radiation journal acceptance scenario, for glitch campaigns: a run
  // killed mid-campaign (simulated by tearing the journal back to a prefix,
  // exactly what SIGKILL leaves behind) and resumed must reproduce the
  // uninterrupted run bit for bit.
  const faultsim::GlitchAttackModel model = test_model();
  JournalOptions jopt;
  jopt.shard_size = 32;
  jopt.fingerprint = 0x617C0FFEE;
  jopt.context = "glitch_journal_test";

  Rng ref_rng(43);
  GlitchSampler ref_sampler(model, ctx().engine.target_cycle());
  const SsfResult reference = ctx().engine.run(ref_sampler, ref_rng, 200);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = fresh_dir("glitch_resume_t" +
                                      std::to_string(threads));
    jopt.dir = dir;
    EvaluatorConfig cfg;
    cfg.threads = threads;
    const Engine e(cfg);
    {
      GlitchSampler sampler(model, ctx().engine.target_cycle());
      Rng rng(43);
      jopt.resume = false;
      Result<SsfResult> full = e.engine.run_journaled(sampler, rng, 200, jopt);
      ASSERT_TRUE(full.is_ok()) << full.status().to_string();
      expect_bitwise_equal(full.value(), reference);
    }
    const fs::path file = fs::path(dir) / "campaign.fj";
    fs::resize_file(file, fs::file_size(file) * 2 / 5);

    GlitchSampler sampler(model, ctx().engine.target_cycle());
    Rng rng(43);
    jopt.resume = true;
    Result<SsfResult> resumed =
        e.engine.run_journaled(sampler, rng, 200, jopt);
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    expect_bitwise_equal(resumed.value(), reference);
  }
}

TEST(ClockGlitchEvaluator, ReportsMetricsAndEssLikeRadiationRuns) {
  const faultsim::GlitchAttackModel model = test_model();
  MetricsSink metrics;
  EvaluatorConfig cfg;
  cfg.metrics = &metrics;
  const Engine e(cfg);
  Rng rng(9);
  const SsfResult result = run(e.engine, model, rng, 150);
  EXPECT_EQ(metrics.counter("eval.samples"), 150u);
  EXPECT_EQ(metrics.counter("eval.path.masked") +
                metrics.counter("eval.path.analytical") +
                metrics.counter("eval.path.rtl") +
                metrics.counter("eval.path.failed"),
            150u);
  // Uniform sampler => unit weights => ESS equals the completed count.
  EXPECT_DOUBLE_EQ(result.effective_sample_size(),
                   static_cast<double>(150 - result.failed));
  ASSERT_NE(metrics.gauge("eval.ess"), nullptr);
  EXPECT_DOUBLE_EQ(*metrics.gauge("eval.ess"),
                   result.effective_sample_size());
  ASSERT_NE(metrics.timer("run.total_ns"), nullptr);
}

TEST(ClockGlitchEvaluator, TimingDistanceBeforeStartIsMasked) {
  const SampleRecord rec = evaluate(
      static_cast<int>(ctx().engine.target_cycle()) + 3, 0.3);
  EXPECT_FALSE(rec.success);
  EXPECT_EQ(rec.path, OutcomePath::kMasked);
}

}  // namespace
}  // namespace fav::mc
