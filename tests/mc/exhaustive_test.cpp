// Technique-generic exhaustive fault-space sweeps (DESIGN.md §6l): the
// streamed enumeration must be bitwise-identical to run_batch over the
// materialized space at every thread count, agree with the
// importance-sampled Monte Carlo estimate, carry coverage accounting, and
// survive kill + resume through the journal — for radiation, clock-glitch
// and voltage-glitch techniques alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "mc/evaluator.h"
#include "soc/benchmark.h"
#include "util/check.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
  faultsim::ClockGlitchSimulator glitch{soc.netlist()};
  faultsim::VoltageGlitchSimulator voltage{soc.netlist()};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun synth_golden{workload, 400, 32};
  precharac::SignatureTrace signatures{soc, workload, 400};
  precharac::RegisterCharacterization charac;
  netlist::UnrolledCone cone;

  Context()
      : charac(synth_golden,
               [] {
                 precharac::CharacterizationConfig cfg;
                 cfg.stride = 23;
                 return cfg;
               }()),
        cone(soc.netlist(), soc.netlist().find_or_throw("mpu_viol"), 12, 2) {}

  SsfEvaluator make(const faultsim::AttackTechnique& technique,
                    const EvaluatorConfig& cfg = {}) const {
    return SsfEvaluator(soc, technique, bench, golden, &charac, cfg);
  }
};

Context& ctx() {
  static Context c;
  return c;
}

faultsim::ClockGlitchAttackModel glitch_model() {
  faultsim::ClockGlitchAttackModel model;
  model.t_min = 1;
  model.t_max = 20;
  model.depths = {0.4, 0.7};
  return model;
}

faultsim::VoltageGlitchAttackModel voltage_model() {
  faultsim::VoltageGlitchAttackModel model;
  model.t_min = 1;
  model.t_max = 10;
  model.droops = {0.3, 0.5};
  return model;
}

/// Small radiation grid: a strided subset of the placement as the sub-block
/// (more than one 64-lane group's worth of centers per t), a short timing
/// window, and the strike instant pinned to the {0.0} grid so the sampled
/// and exhaustive estimands coincide.
faultsim::AttackModel radiation_model() {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 9;
  const auto& nodes = ctx().placement.placed_nodes();
  for (std::size_t i = 0; i < nodes.size(); i += 100) {
    attack.candidate_centers.push_back(nodes[i]);
  }
  attack.strike_fracs = {0.0};
  return attack;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_ex_" + name);
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
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
  EXPECT_EQ(a.field_contribution, b.field_contribution);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].sample.t, b.records[i].sample.t) << i;
    EXPECT_EQ(a.records[i].sample.center, b.records[i].sample.center) << i;
    EXPECT_EQ(a.records[i].sample.depth, b.records[i].sample.depth) << i;
    EXPECT_EQ(a.records[i].flipped_bits, b.records[i].flipped_bits) << i;
    EXPECT_EQ(a.records[i].path, b.records[i].path) << i;
    EXPECT_EQ(a.records[i].contribution, b.records[i].contribution) << i;
  }
}

/// Every point of the bound space evaluated alone, as a group of one
/// (evaluate_sample_isolated), folded by the same reduction as a sweep.
SsfResult sweep_alone(const faultsim::AttackTechnique& technique) {
  std::vector<faultsim::FaultSample> points;
  technique.enumerate(0, technique.space_size(), points);
  const SsfEvaluator engine = ctx().make(technique);
  std::vector<SampleRecord> records;
  auto scratch = std::make_unique<EvalScratch>(engine);
  for (const faultsim::FaultSample& s : points) {
    records.push_back(engine.evaluate_sample_isolated(s, scratch));
  }
  return engine.reduce_records(std::move(records));
}

TEST(ExhaustiveSweep, UnboundSpaceIsRejected) {
  faultsim::ClockGlitchTechnique technique(ctx().glitch);
  const SsfEvaluator engine = ctx().make(technique);
  EXPECT_THROW(engine.run_exhaustive(), StatusError);
}

TEST(ExhaustiveSweep, StreamingSweepMatchesMaterializedBatch) {
  // Regression for the old evaluate_exact grid loop: the chunked streaming
  // sweep must be bitwise-identical to run_batch over the materialized
  // enumeration (chunk boundaries may split equal-t groups across
  // word-parallel batches — batching is contractually a no-op).
  faultsim::ClockGlitchTechnique technique(ctx().glitch);
  technique.bind_space(glitch_model());
  const SsfEvaluator engine = ctx().make(technique);
  const std::uint64_t space = technique.space_size();
  ASSERT_EQ(space, 40u);

  std::vector<faultsim::FaultSample> all;
  technique.enumerate(0, space, all);
  const SsfResult batch = engine.run_batch(std::move(all));
  const SsfResult streamed = engine.run_exhaustive();

  expect_bitwise_equal(streamed, batch);
  EXPECT_EQ(streamed.fault_space_size, space);
  EXPECT_DOUBLE_EQ(streamed.coverage(), 1.0);
  EXPECT_FALSE(streamed.interrupted);
  // Sampled/batch results bind no space: coverage is meaningless there.
  EXPECT_EQ(batch.fault_space_size, 0u);
  EXPECT_DOUBLE_EQ(batch.coverage(), 0.0);
}

TEST(ExhaustiveSweep, SpaceLimitCapsCoverage) {
  faultsim::ClockGlitchTechnique technique(ctx().glitch);
  technique.bind_space(glitch_model());
  const SsfEvaluator engine = ctx().make(technique);

  const SsfResult capped = engine.run_exhaustive(10);
  EXPECT_EQ(capped.evaluated, 10u);
  EXPECT_EQ(capped.fault_space_size, 40u);
  EXPECT_DOUBLE_EQ(capped.coverage(), 0.25);

  std::vector<faultsim::FaultSample> prefix;
  technique.enumerate(0, 10, prefix);
  expect_bitwise_equal(capped, engine.run_batch(std::move(prefix)));
}

TEST(ExhaustiveSweep, RadiationBitwiseAcrossThreadsAndLanesWithin3Sigma) {
  // The exhaustive radiation sweep is the exact mean over the bound grid:
  // the sweep at every thread count must reproduce every point evaluated
  // alone (a group of one) bit for bit — each t holds more points than one
  // group takes, so the sweep also seals full groups and splits each te —
  // and the importance-sampled Monte Carlo estimate over the same holistic
  // model must agree within its own 3-sigma interval.
  const faultsim::AttackModel attack = radiation_model();
  faultsim::RadiationTechnique technique(ctx().placement, ctx().injector);
  technique.bind_space(attack);
  const std::uint64_t space = technique.space_size();
  ASSERT_EQ(space, static_cast<std::uint64_t>(attack.t_count()) *
                       attack.candidate_centers.size());
  ASSERT_GT(attack.candidate_centers.size(), SsfEvaluator::kMaxLanes);
  const SsfResult reference = sweep_alone(technique);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvaluatorConfig cfg;
    cfg.threads = threads;
    const SsfEvaluator engine = ctx().make(technique, cfg);
    const SsfResult result = engine.run_exhaustive();
    EXPECT_EQ(result.evaluated, space);
    EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
    expect_bitwise_equal(result, reference);
  }

  precharac::SamplingModel model(ctx().soc, ctx().placement, ctx().cone,
                                 ctx().signatures, ctx().charac, attack);
  ImportanceSampler sampler(model);
  EvaluatorConfig cfg;
  cfg.threads = 4;
  const SsfEvaluator engine = ctx().make(technique, cfg);
  Rng rng(42);
  const SsfResult mc = engine.run(sampler, rng, 1500);
  const double tolerance = std::max(3.0 * mc.stats.standard_error(), 1e-12);
  EXPECT_NEAR(mc.ssf(), reference.ssf(), tolerance);
}

TEST(ExhaustiveSweep, VoltageGlitchKillAndResumeIsBitwiseIdentical) {
  // A voltage-glitch sweep killed mid-campaign (journal torn back to a
  // prefix, exactly what SIGKILL leaves behind) and resumed must reproduce
  // the uninterrupted sweep bit for bit — the enumeration-index contract.
  faultsim::VoltageGlitchTechnique technique(ctx().voltage);
  technique.bind_space(voltage_model());
  const SsfEvaluator engine = ctx().make(technique);
  const SsfResult reference = engine.run_exhaustive();
  EXPECT_EQ(reference.fault_space_size, 20u);
  EXPECT_DOUBLE_EQ(reference.coverage(), 1.0);

  JournalOptions jopt;
  jopt.shard_size = 4;
  jopt.fingerprint = 0x70177A6E;
  jopt.context = "voltage_exhaustive_test";

  const std::string dir = fresh_dir("voltage_resume");
  jopt.dir = dir;
  jopt.resume = false;
  Result<SsfResult> full = engine.run_exhaustive_journaled(jopt);
  ASSERT_TRUE(full.is_ok()) << full.status().to_string();
  expect_bitwise_equal(full.value(), reference);
  EXPECT_EQ(full.value().fault_space_size, 20u);

  const fs::path file = fs::path(dir) / "campaign.fj";
  fs::resize_file(file, fs::file_size(file) / 2);

  jopt.resume = true;
  Result<SsfResult> resumed = engine.run_exhaustive_journaled(jopt);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  expect_bitwise_equal(resumed.value(), reference);
  EXPECT_DOUBLE_EQ(resumed.value().coverage(), 1.0);
}

TEST(ExhaustiveSweep, StopMidWaveCommitsWholeShardsAndResumesBitwise) {
  // A journaled radiation sweep whose stop flag flips from on_sample in the
  // middle of its wave: every worker finishes at most the te-group in hand,
  // only whole shards of the evaluated prefix are committed, and resume
  // reproduces the uninterrupted sweep and its journal byte for byte.
  faultsim::AttackModel attack = radiation_model();
  attack.candidate_centers.clear();
  const auto& nodes = ctx().placement.placed_nodes();
  for (std::size_t i = 0; i < nodes.size(); i += 10) {
    attack.candidate_centers.push_back(nodes[i]);
  }
  faultsim::RadiationTechnique technique(ctx().placement, ctx().injector);
  technique.bind_space(attack);
  const std::uint64_t space = technique.space_size();
  ASSERT_GT(space, 2000u);

  JournalOptions jopt;
  jopt.shard_size = 48;
  jopt.fingerprint = 0x3A7E;
  jopt.context = "exhaustive_stop_test";
  auto file_bytes = [](const std::string& dir) {
    std::ifstream in(fs::path(dir) / "campaign.fj", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  jopt.dir = fresh_dir("stop_reference");
  jopt.resume = false;
  Result<SsfResult> reference =
      ctx().make(technique).run_exhaustive_journaled(jopt);
  ASSERT_TRUE(reference.is_ok()) << reference.status().to_string();
  const std::string ref_bytes = file_bytes(jopt.dir);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> finished{0};
    std::atomic<std::size_t> after_flip{0};
    EvaluatorConfig cfg;
    cfg.threads = threads;
    cfg.stop = &stop;
    cfg.on_sample = [&](const SampleRecord&, std::size_t) {
      if (stop.load()) {
        after_flip.fetch_add(1);
      } else if (finished.fetch_add(1) + 1 == 1000) {
        stop.store(true);
      }
    };
    jopt.dir = fresh_dir("stop_t" + std::to_string(threads));
    jopt.resume = false;
    Result<SsfResult> cut = ctx().make(technique, cfg)
                                .run_exhaustive_journaled(jopt);
    ASSERT_TRUE(cut.is_ok()) << cut.status().to_string();
    EXPECT_TRUE(cut.value().interrupted);
    EXPECT_LT(cut.value().evaluated, space);
    EXPECT_EQ(cut.value().evaluated % jopt.shard_size, 0u);
    EXPECT_LE(after_flip.load(), threads * 64);

    jopt.resume = true;
    Result<SsfResult> resumed =
        ctx().make(technique).run_exhaustive_journaled(jopt);
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_FALSE(resumed.value().interrupted);
    expect_bitwise_equal(resumed.value(), reference.value());
    EXPECT_EQ(resumed.value().stats.standard_error(),
              reference.value().stats.standard_error());
    EXPECT_EQ(resumed.value().effective_sample_size(),
              reference.value().effective_sample_size());
    EXPECT_TRUE(file_bytes(jopt.dir) == ref_bytes)
        << "resumed journal bytes differ from the uninterrupted journal";
  }
}

TEST(ExhaustiveSweep, VoltageGlitchMonteCarloAgreesWithExactWithin3Sigma) {
  const faultsim::VoltageGlitchAttackModel model = voltage_model();
  faultsim::VoltageGlitchTechnique technique(ctx().voltage);
  technique.bind_space(model);
  const SsfEvaluator engine = ctx().make(technique);
  const SsfResult exact = engine.run_exhaustive();

  VoltageGlitchSampler sampler(model, engine.target_cycle());
  Rng rng(7);
  const SsfResult mc = engine.run(sampler, rng, 800);
  const double tolerance = std::max(3.0 * mc.stats.standard_error(), 1e-12);
  EXPECT_NEAR(mc.ssf(), exact.ssf(), tolerance);
}

}  // namespace
}  // namespace fav::mc
