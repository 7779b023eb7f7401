// The observability contract of DESIGN.md §6f: enabling metrics, tracing or
// the progress meter must never change a single bit of the SSF estimate — at
// any thread count — and the collected numbers must agree exactly with the
// result they describe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

#include "mc/evaluator.h"
#include "mc/samplers.h"
#include "soc/benchmark.h"
#include "util/metrics.h"

namespace fav::mc {
namespace {

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
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

  SsfEvaluator make_evaluator(const EvaluatorConfig& cfg) const {
    return SsfEvaluator(soc, placement, injector, bench, golden, &charac, cfg);
  }

  faultsim::AttackModel attack() const {
    faultsim::AttackModel a;
    a.t_min = 0;
    a.t_max = 19;
    a.candidate_centers = placement.placed_nodes();
    return a;
  }
};

Context& ctx() {
  static Context c;
  return c;
}

constexpr std::size_t kSamples = 200;

SsfResult run_with(const EvaluatorConfig& cfg) {
  const auto attack = ctx().attack();
  RandomSampler sampler(attack);
  Rng rng(77);
  return ctx().make_evaluator(cfg).run(sampler, rng, kSamples);
}

void expect_bitwise_equal(const SsfResult& a, const SsfResult& b) {
  EXPECT_EQ(a.ssf(), b.ssf());
  EXPECT_EQ(a.sample_variance(), b.sample_variance());
  EXPECT_EQ(a.stats.count(), b.stats.count());
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.analytical, b.analytical);
  EXPECT_EQ(a.rtl, b.rtl);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.completed_weight, b.completed_weight);
  EXPECT_EQ(a.completed_weight_sq, b.completed_weight_sq);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
}

TEST(Observability, MetricsDoNotPerturbTheEstimate) {
  const SsfResult plain = run_with(EvaluatorConfig{});

  MetricsSink metrics;
  TraceBuffer trace;
  std::FILE* devnull = std::tmpfile();
  ASSERT_NE(devnull, nullptr);
  ProgressMeter progress(kSamples, 0, devnull);
  EvaluatorConfig cfg;
  cfg.metrics = &metrics;
  cfg.trace = &trace;
  cfg.progress = &progress;
  const SsfResult observed = run_with(cfg);
  std::fclose(devnull);

  expect_bitwise_equal(observed, plain);
  EXPECT_FALSE(metrics.empty());
}

TEST(Observability, ThreadCountDoesNotChangeResultsOrCounters) {
  MetricsSink m1, m4;
  EvaluatorConfig c1, c4;
  c1.threads = 1;
  c1.metrics = &m1;
  c4.threads = 4;
  c4.metrics = &m4;
  const SsfResult r1 = run_with(c1);
  const SsfResult r4 = run_with(c4);
  expect_bitwise_equal(r1, r4);
  // Sample-derived counters and gauges are schedule-independent by
  // construction (recorded in the sample-index-ordered reduction).
  for (const char* name :
       {"eval.samples", "eval.path.masked", "eval.path.analytical",
        "eval.path.rtl", "eval.path.failed", "eval.successes",
        "rtl.warmup_cycles", "rtl.resume_cycles", "gate.injection_cycles",
        "gate.settle_passes", "rtl.restore_bytes"}) {
    EXPECT_EQ(m1.counter(name), m4.counter(name)) << name;
  }
  ASSERT_NE(m1.gauge("eval.ess"), nullptr);
  ASSERT_NE(m4.gauge("eval.ess"), nullptr);
  EXPECT_EQ(*m1.gauge("eval.ess"), *m4.gauge("eval.ess"));
  EXPECT_EQ(*m1.gauge("eval.ssf"), *m4.gauge("eval.ssf"));
}

TEST(Observability, SettlePassesCountDistinctInjectionCycles) {
  // The golden settle table settles each injection cycle te once per
  // evaluator, however many te-groups and threads share it. Multi-cycle
  // impact strikes a corrupted state from its second cycle on, and each of
  // those cycles is a real settle.
  for (const int impact : {1, 3}) {
    SCOPED_TRACE("impact_cycles=" + std::to_string(impact));
    faultsim::AttackModel attack = ctx().attack();
    attack.impact_cycles = impact;
    std::uint64_t passes_t1 = 0;
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      MetricsSink metrics;
      EvaluatorConfig cfg;
      cfg.threads = threads;
      cfg.metrics = &metrics;
      RandomSampler sampler(attack);
      Rng rng(77);
      const SsfResult res =
          ctx().make_evaluator(cfg).run(sampler, rng, kSamples);
      ASSERT_EQ(res.records.size(), kSamples);
      std::set<std::uint64_t> tes;
      for (const SampleRecord& rec : res.records) tes.insert(rec.te);
      ASSERT_GT(tes.size(), 1u);
      // Every sample lands inside the program, so every group runs all of
      // its injection cycles.
      EXPECT_EQ(metrics.counter("gate.injection_cycles"),
                metrics.counter("eval.batch_groups") +
                    (impact - 1) * kSamples);
      const std::uint64_t passes = metrics.counter("gate.settle_passes");
      EXPECT_EQ(passes, tes.size() + (impact - 1) * kSamples);
      ASSERT_NE(metrics.timer("eval.gate_settle_ns"), nullptr);
      ASSERT_NE(metrics.timer("eval.gate_flip_set_ns"), nullptr);
      EXPECT_EQ(metrics.timer("eval.gate_flip_set_ns")->count,
                metrics.counter("gate.injection_cycles"));
      if (threads == 1) {
        passes_t1 = passes;
      } else {
        EXPECT_EQ(passes, passes_t1);
      }
    }
  }
}

TEST(Observability, CountersAndGaugesMatchTheResult) {
  MetricsSink metrics;
  EvaluatorConfig cfg;
  cfg.metrics = &metrics;
  const SsfResult res = run_with(cfg);
  EXPECT_EQ(metrics.counter("eval.samples"), kSamples);
  EXPECT_EQ(metrics.counter("eval.path.masked"), res.masked);
  EXPECT_EQ(metrics.counter("eval.path.analytical"), res.analytical);
  EXPECT_EQ(metrics.counter("eval.path.rtl"), res.rtl);
  EXPECT_EQ(metrics.counter("eval.path.failed"), res.failed);
  EXPECT_EQ(metrics.counter("eval.successes"), res.successes);
  ASSERT_NE(metrics.gauge("eval.ess"), nullptr);
  EXPECT_EQ(*metrics.gauge("eval.ess"), res.effective_sample_size());
  ASSERT_NE(metrics.gauge("eval.ssf"), nullptr);
  EXPECT_EQ(*metrics.gauge("eval.ssf"), res.ssf());
  // An unweighted (random-sampler) run is worth its completed-sample count.
  EXPECT_NEAR(res.effective_sample_size(),
              static_cast<double>(kSamples - res.failed), 1e-9);
  // Phase timers exist for the work that actually happened.
  ASSERT_NE(metrics.timer("run.total_ns"), nullptr);
  ASSERT_NE(metrics.timer("run.draw_batch_ns"), nullptr);
  if (res.rtl > 0) {
    ASSERT_NE(metrics.timer("eval.restore_ns"), nullptr);
    EXPECT_GT(metrics.counter("rtl.restore_bytes"), 0u);
  }
}

TEST(Observability, TraceHasOneEventPerSampleInSampleOrder) {
  TraceBuffer trace;
  EvaluatorConfig cfg;
  cfg.threads = 2;  // exercise the per-worker buffers and the merge
  cfg.trace = &trace;
  const SsfResult res = run_with(cfg);
  ASSERT_EQ(trace.size(), kSamples);
  std::set<std::uint64_t> keys;
  for (const TraceEvent& e : trace.events()) {
    keys.insert(e.order_key);
    EXPECT_EQ(e.category, "sample");
  }
  EXPECT_EQ(keys.size(), kSamples);  // every sample index exactly once
  EXPECT_EQ(*keys.begin(), 0u);
  EXPECT_EQ(*keys.rbegin(), kSamples - 1);
  // Serialized form is sorted by sample index regardless of worker
  // interleaving, and the path names match the outcome split.
  std::size_t rtl_events = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.name == outcome_path_name(OutcomePath::kRtl)) ++rtl_events;
  }
  EXPECT_EQ(rtl_events, res.rtl);
  std::ostringstream os;
  trace.write_json(os);
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

TEST(Observability, BatchedLaneTimersAndSpansAreNotCumulative) {
  // A te-group's lanes share one restore, settle and sweep. Each lane is
  // charged its share of that plus its own finalization, so the per-sample
  // timers of a run fit in its thread-time, and one worker's sample spans
  // never overlap.
  MetricsSink metrics;
  TraceBuffer trace;
  EvaluatorConfig cfg;
  cfg.threads = 2;
  cfg.metrics = &metrics;
  cfg.trace = &trace;
  run_with(cfg);
  ASSERT_GT(metrics.counter("eval.batch_groups"), 0u);
  ASSERT_NE(metrics.gauge("eval.lane_occupancy"), nullptr);
  ASSERT_GT(*metrics.gauge("eval.lane_occupancy"), 2.0);

  std::uint64_t sample_ns = 0;
  for (const OutcomePath path : {OutcomePath::kMasked, OutcomePath::kAnalytical,
                                 OutcomePath::kRtl, OutcomePath::kFailed}) {
    const std::string name =
        std::string("eval.sample.") + outcome_path_name(path) + "_ns";
    if (const auto* t = metrics.timer(name)) sample_ns += t->total_ns;
  }
  ASSERT_NE(metrics.timer("run.total_ns"), nullptr);
  EXPECT_LE(sample_ns, metrics.timer("run.total_ns")->total_ns * cfg.threads);

  ASSERT_EQ(trace.size(), kSamples);
  std::vector<TraceEvent> spans = trace.events();
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.tid != b.tid ? a.tid < b.tid : a.start_ns < b.start_ns;
            });
  for (std::size_t k = 1; k < spans.size(); ++k) {
    if (spans[k].tid != spans[k - 1].tid) continue;
    EXPECT_GE(spans[k].start_ns, spans[k - 1].start_ns + spans[k - 1].dur_ns)
        << "samples " << spans[k - 1].order_key << " and "
        << spans[k].order_key << " overlap on worker " << spans[k].tid;
  }
}

TEST(Observability, ProgressMeterAgreesWithResult) {
  std::FILE* devnull = std::tmpfile();
  ASSERT_NE(devnull, nullptr);
  ProgressMeter progress(kSamples, 0, devnull);
  EvaluatorConfig cfg;
  cfg.progress = &progress;
  const SsfResult res = run_with(cfg);
  progress.finish();
  std::fclose(devnull);
  EXPECT_EQ(progress.completed(), kSamples);
  EXPECT_EQ(progress.failed(), res.failed);
  EXPECT_NEAR(progress.effective_sample_size(), res.effective_sample_size(),
              1e-9 * (1.0 + res.effective_sample_size()));
}

TEST(Observability, JournaledRunRecordsJournalMetrics) {
  const std::filesystem::path dir_path =
      std::filesystem::path(::testing::TempDir()) / "fav_observability_journal";
  std::filesystem::remove_all(dir_path);
  std::filesystem::create_directories(dir_path);
  const std::string dir = dir_path.string();
  MetricsSink metrics;
  EvaluatorConfig cfg;
  cfg.metrics = &metrics;
  SsfEvaluator ev = ctx().make_evaluator(cfg);
  const auto attack = ctx().attack();
  RandomSampler sampler(attack);
  Rng rng(77);
  JournalOptions jopt;
  jopt.dir = dir;
  jopt.fingerprint = 0xC0FFEE;
  jopt.shard_size = 32;
  Result<SsfResult> res = ev.run_journaled(sampler, rng, kSamples, jopt);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_EQ(metrics.counter("eval.samples"), kSamples);
  EXPECT_GE(metrics.counter("journal.commits"), 1u);
  EXPECT_GE(metrics.counter("journal.dir_fsyncs"), 1u);
  EXPECT_GT(metrics.counter("journal.bytes_written"), 0u);
  ASSERT_NE(metrics.timer("journal.fsync_ns"), nullptr);
  EXPECT_GE(metrics.timer("journal.fsync_ns")->count, 1u);
  // The journaled path reports the same run-phase timers as run().
  for (const char* name : {"run.total_ns", "run.draw_batch_ns",
                           "run.scratch_setup_ns", "run.reduce_ns"}) {
    ASSERT_NE(metrics.timer(name), nullptr) << name;
    EXPECT_EQ(metrics.timer(name)->count, 1u) << name;
  }
  EXPECT_GE(metrics.timer("run.total_ns")->total_ns,
            metrics.timer("run.reduce_ns")->total_ns);
  // Lane occupancy is reported next to the counters it is derived from.
  ASSERT_GT(metrics.counter("eval.batch_groups"), 0u);
  ASSERT_NE(metrics.gauge("eval.lane_occupancy"), nullptr);
  EXPECT_EQ(*metrics.gauge("eval.lane_occupancy"),
            static_cast<double>(metrics.counter("eval.batch_lanes")) /
                static_cast<double>(metrics.counter("eval.batch_groups")));
}

}  // namespace
}  // namespace fav::mc
