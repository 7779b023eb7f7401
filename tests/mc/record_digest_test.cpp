// Frozen record digests: FNV-1a over every record of a set of fixed
// campaigns, recorded with an engine that still ran a separate scalar
// per-sample flow next to the word-parallel te-group flow. Every digest must
// hold at every thread count: the one lane-kernel path that evaluates every
// sample today has to reproduce those records bit for bit, including the
// failure metadata of budget overruns and invalid samples.
//
// A failure reason starts with the `file:line:` location of the check that
// threw. The file part is the build's absolute source path and the line
// moves whenever code above the check does, so the digest hashes the reason
// from the text after that location; the code, the check and its message
// are still exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "mc/evaluator.h"
#include "precharac/sampling_model.h"
#include "precharac/signatures.h"
#include "soc/benchmark.h"
#include "util/io.h"

namespace fav::mc {
namespace {

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
  faultsim::RadiationTechnique radiation{placement, injector};

  Context()
      : charac(synth_golden,
               [] {
                 precharac::CharacterizationConfig cfg;
                 cfg.stride = 23;
                 return cfg;
               }()),
        cone(soc.netlist(), soc.netlist().find_or_throw("mpu_viol"), 12, 2) {}

  SsfEvaluator make(const faultsim::AttackTechnique& technique,
                    EvaluatorConfig cfg, std::size_t threads) const {
    cfg.threads = threads;
    return SsfEvaluator(soc, technique, bench, golden, &charac, cfg);
  }
};

Context& ctx() {
  static Context c;
  return c;
}

faultsim::AttackModel radiation_attack() {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();
  return attack;
}

class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    hash_ = io::fnv1a64(&value, sizeof(T), hash_);
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
  }
  void add(std::string_view text) {
    add(static_cast<std::uint64_t>(text.size()));
    hash_ = io::fnv1a64(text.data(), text.size(), hash_);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = io::fnv1a64(nullptr, 0);
};

/// The reason without its leading `path:line: ` location (see the header).
std::string_view reason_text(const std::string& reason) {
  const std::size_t at = reason.find(": check failed: ");
  return at == std::string::npos ? std::string_view(reason)
                                 : std::string_view(reason).substr(at + 2);
}

std::uint64_t digest(const SsfResult& result) {
  Digest d;
  d.add(static_cast<std::uint64_t>(result.records.size()));
  for (const SampleRecord& rec : result.records) {
    d.add(rec.te);
    d.add(static_cast<std::uint64_t>(rec.flipped_bits.size()));
    for (const int bit : rec.flipped_bits) d.add(bit);
    d.add(static_cast<int>(rec.path));
    d.add(static_cast<std::uint8_t>(rec.success));
    d.add(rec.contribution);
    d.add(static_cast<int>(rec.fail_code));
    d.add(reason_text(rec.fail_reason));
    d.add(static_cast<std::uint8_t>(rec.retried));
  }
  d.add(result.ssf());
  d.add(result.sample_variance());
  d.add(static_cast<std::uint64_t>(result.trace.size()));
  for (const double v : result.trace) d.add(v);
  return d.value();
}

/// Runs `campaign(threads)` at threads 1 and 4, checks both digests and
/// returns the single-thread result for the scenario's own checks.
template <typename Campaign>
SsfResult expect_digest(std::uint64_t expected, const Campaign& campaign) {
  SsfResult first;
  for (const std::size_t threads : {1u, 4u}) {
    SsfResult result = campaign(threads);
    const std::uint64_t got = digest(result);
    EXPECT_EQ(got, expected) << "threads=" << threads << " digest 0x"
                             << std::hex << got;
    if (threads == 1) first = std::move(result);
  }
  return first;
}

std::vector<faultsim::FaultSample> draw_radiation(std::uint64_t seed,
                                                  std::size_t n) {
  const faultsim::AttackModel attack = radiation_attack();
  RandomSampler sampler(attack);
  Rng rng(seed);
  std::vector<faultsim::FaultSample> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(sampler.draw(rng));
  return samples;
}

TEST(RecordDigest, RadiationRandomSampling) {
  const auto campaign = [](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(ctx().radiation, {}, threads);
    const faultsim::AttackModel attack = radiation_attack();
    RandomSampler sampler(attack);
    Rng rng(31);
    return ev.run(sampler, rng, 300);
  };
  const SsfResult r = expect_digest(0xf99d75605317bc15ull, campaign);
  EXPECT_GT(r.analytical, 0u);
  EXPECT_GT(r.rtl, 0u);
  EXPECT_GT(r.successes, 0u);
}

TEST(RecordDigest, RadiationImportanceSampling) {
  const faultsim::AttackModel attack = radiation_attack();
  const precharac::SamplingModel model(ctx().soc, ctx().placement, ctx().cone,
                                       ctx().signatures, ctx().charac, attack);
  const auto campaign = [&](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(ctx().radiation, {}, threads);
    ImportanceSampler sampler(model);
    Rng rng(42);
    return ev.run(sampler, rng, 300);
  };
  const SsfResult r = expect_digest(0x411bf5fd7e34538eull, campaign);
  EXPECT_GT(r.analytical, 0u);
  EXPECT_GT(r.rtl, 0u);
}

TEST(RecordDigest, ClockGlitch) {
  faultsim::ClockGlitchAttackModel model;
  model.t_min = 1;
  model.t_max = 10;
  model.depths = {0.35, 0.55};
  const faultsim::ClockGlitchTechnique technique(ctx().glitch);
  const auto campaign = [&](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(technique, {}, threads);
    GlitchSampler sampler(model, ev.target_cycle());
    Rng rng(9);
    return ev.run(sampler, rng, 300);
  };
  const SsfResult r = expect_digest(0x1db829fd1dc4f041ull, campaign);
  EXPECT_GT(r.rtl, 0u);
}

TEST(RecordDigest, VoltageGlitch) {
  faultsim::VoltageGlitchAttackModel model;
  model.t_min = 1;
  model.t_max = 12;
  model.droops = {0.3, 0.5, 0.7};
  const faultsim::VoltageGlitchTechnique technique(ctx().voltage);
  const auto campaign = [&](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(technique, {}, threads);
    VoltageGlitchSampler sampler(model, ev.target_cycle());
    Rng rng(11);
    return ev.run(sampler, rng, 300);
  };
  const SsfResult r = expect_digest(0xda87ba267d9afd90ull, campaign);
  EXPECT_GT(r.rtl, 0u);
}

TEST(RecordDigest, MultiCycleImpact) {
  faultsim::AttackModel attack = radiation_attack();
  attack.impact_cycles = 3;
  const auto campaign = [&](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(ctx().radiation, {}, threads);
    RandomSampler sampler(attack);
    Rng rng(5);
    return ev.run(sampler, rng, 120);
  };
  const SsfResult r = expect_digest(0xf74a60ffaec50392ull, campaign);
  EXPECT_GT(r.rtl, 0u);
  EXPECT_GT(r.successes, 0u);
}

TEST(RecordDigest, CycleBudgetOverruns) {
  EvaluatorConfig cfg;
  cfg.cycle_budget = 20;
  const auto campaign = [&](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(ctx().radiation, cfg, threads);
    const faultsim::AttackModel attack = radiation_attack();
    RandomSampler sampler(attack);
    Rng rng(47);
    return ev.run(sampler, rng, 256);
  };
  const SsfResult r = expect_digest(0x4162934520704e82ull, campaign);
  EXPECT_GT(r.failed, 0u);
  EXPECT_LT(r.failed, 256u);
  EXPECT_EQ(r.retried, 0u);  // overruns are deterministic: never retried
}

TEST(RecordDigest, InvalidSamples) {
  // Zero impact cycles and a foreign technique tag fail check_sample; they
  // sit between valid samples that share their te.
  std::vector<faultsim::FaultSample> samples = draw_radiation(13, 120);
  for (std::size_t i = 0; i < samples.size(); i += 5) {
    samples[i].impact_cycles = 0;
  }
  for (std::size_t i = 3; i < samples.size(); i += 7) {
    samples[i].technique = faultsim::TechniqueKind::kClockGlitch;
  }
  const auto campaign = [&](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(ctx().radiation, {}, threads);
    return ev.run_batch(samples);
  };
  const SsfResult r = expect_digest(0xac7ba5e6fbc0839eull, campaign);
  EXPECT_EQ(r.failed, 37u);
  EXPECT_EQ(r.retried, 37u);
}

TEST(RecordDigest, InjectionBeforeProgramStart) {
  std::vector<faultsim::FaultSample> samples = draw_radiation(17, 120);
  const SsfEvaluator probe = ctx().make(ctx().radiation, {}, 1);
  const int target = static_cast<int>(probe.target_cycle());
  for (std::size_t i = 0; i < samples.size(); i += 3) {
    samples[i].t = target + 1 + static_cast<int>(i % 4);
  }
  const auto campaign = [&](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(ctx().radiation, {}, threads);
    return ev.run_batch(samples);
  };
  const SsfResult r = expect_digest(0x04322f6da44fca46ull, campaign);
  for (std::size_t i = 0; i < r.records.size(); i += 3) {
    EXPECT_EQ(r.records[i].te, 0u) << i;
    EXPECT_EQ(r.records[i].path, OutcomePath::kMasked) << i;
  }
}

TEST(RecordDigest, ExhaustiveClockGlitchSweep) {
  // 70 depths per injection cycle: every te holds more than 64 points, so
  // the sweep seals full groups and splits each te.
  faultsim::ClockGlitchAttackModel model;
  model.t_min = 1;
  model.t_max = 6;
  model.depths.clear();
  for (int k = 0; k < 70; ++k) model.depths.push_back(0.1 + 0.0125 * k);
  faultsim::ClockGlitchTechnique technique(ctx().glitch);
  technique.bind_space(model);
  const auto campaign = [&](std::size_t threads) {
    const SsfEvaluator ev = ctx().make(technique, {}, threads);
    return ev.run_exhaustive();
  };
  const SsfResult r = expect_digest(0x484f039f950cecf9ull, campaign);
  EXPECT_EQ(r.records.size(), 420u);
  EXPECT_GT(r.masked, 0u);
  EXPECT_GT(r.rtl, 0u);
}

}  // namespace
}  // namespace fav::mc
