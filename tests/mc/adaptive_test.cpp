#include "mc/adaptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/framework.h"

namespace fav::mc {
namespace {

core::FaultAttackEvaluator& fw() {
  static core::FaultAttackEvaluator instance(
      soc::make_illegal_write_benchmark());
  return instance;
}

const faultsim::AttackModel& attack() {
  static const faultsim::AttackModel a = fw().subblock_attack_model(1.5, 50);
  return a;
}

const SsfResult& pilot() {
  static const SsfResult res = [] {
    auto sampler = fw().make_importance_sampler(attack());
    Rng rng(4242);
    return fw().evaluator().run(*sampler, rng, 2000);
  }();
  return res;
}

TEST(AdaptiveSampler, RequiresSuccessfulPilot) {
  SsfResult empty;
  EXPECT_THROW(AdaptiveImportanceSampler(attack(), empty), fav::CheckError);
  SsfResult no_success;
  no_success.records.emplace_back();  // one masked record
  EXPECT_THROW(AdaptiveImportanceSampler(attack(), no_success),
               fav::CheckError);
}

TEST(AdaptiveSampler, WeightsAreBoundedLikelihoodRatios) {
  ASSERT_GT(pilot().successes, 0u);
  AdaptiveImportanceSampler sampler(attack(), pilot());
  Rng rng(1);
  const double f = 1.0 / (attack().t_count() *
                          static_cast<double>(attack().candidate_centers.size()));
  for (int i = 0; i < 500; ++i) {
    const auto s = sampler.draw(rng);
    EXPECT_GE(s.t, attack().t_min);
    EXPECT_LE(s.t, attack().t_max);
    EXPECT_GT(s.weight, 0.0);
    EXPECT_LE(s.weight, 1.0 / AdaptiveConfig{}.defensive_mix + 1e-9);
    EXPECT_NEAR(s.weight, f / sampler.g_pmf(s.t, s.center), 1e-12);
  }
}

TEST(AdaptiveSampler, SecondStageAgreesWithPilot) {
  AdaptiveImportanceSampler sampler(attack(), pilot());
  Rng rng(2);
  const auto res = fw().evaluator().run(sampler, rng, 4000);
  // Same quantity estimated: second-stage mean within a few sigma of the
  // pilot's.
  const double sigma =
      res.stats.standard_error() + pilot().stats.standard_error();
  EXPECT_NEAR(res.ssf(), pilot().ssf(), 5 * sigma + 1e-4);
  EXPECT_GT(res.successes, 0u);
}

TEST(AdaptiveSampler, ConcentratesOnSuccessMass) {
  AdaptiveImportanceSampler sampler(attack(), pilot());
  Rng rng(3);
  const auto res = fw().evaluator().run(sampler, rng, 2000);
  // The refit should find successes at least as often as the pilot strategy.
  const double pilot_rate = static_cast<double>(pilot().successes) /
                            static_cast<double>(pilot().stats.count());
  const double adaptive_rate = static_cast<double>(res.successes) /
                               static_cast<double>(res.stats.count());
  EXPECT_GT(adaptive_rate, 0.5 * pilot_rate);
}

TEST(AdaptiveSampler, InvalidConfigThrows) {
  AdaptiveConfig bad;
  bad.smoothing = 0;
  EXPECT_THROW(AdaptiveImportanceSampler(attack(), pilot(), bad),
               fav::CheckError);
  bad = {};
  bad.defensive_mix = 0;
  EXPECT_THROW(AdaptiveImportanceSampler(attack(), pilot(), bad),
               fav::CheckError);
  bad = {};
  bad.t_stratum = 0;
  EXPECT_THROW(AdaptiveImportanceSampler(attack(), pilot(), bad),
               fav::CheckError);
}

// --- AdaptiveGlitchSampler on hand-made pilots ------------------------------

constexpr faultsim::TechniqueKind kGlitchKinds[] = {
    faultsim::TechniqueKind::kClockGlitch,
    faultsim::TechniqueKind::kVoltageGlitch};

/// A 10 x 3 grid: t in [2, 11], three levels of `kind`.
faultsim::GlitchAttackModel glitch_grid(faultsim::TechniqueKind kind) {
  faultsim::GlitchAttackModel model(kind);
  model.t_min = 2;
  model.t_max = 11;
  model.levels = {0.2, 0.4, 0.6};
  return model;
}

SampleRecord glitch_record(faultsim::TechniqueKind kind, int t, double level,
                           bool success) {
  SampleRecord rec;
  rec.sample.technique = kind;
  rec.sample.t = t;
  rec.sample.depth = level;
  rec.success = success;
  return rec;
}

/// Pilot with success mass on two cells — (5, 0.4) x6 and (9, 0.6) x4 —
/// plus masked records elsewhere.
SsfResult glitch_pilot(faultsim::TechniqueKind kind) {
  SsfResult pilot;
  for (int i = 0; i < 6; ++i) {
    pilot.records.push_back(glitch_record(kind, 5, 0.4, true));
  }
  for (int i = 0; i < 4; ++i) {
    pilot.records.push_back(glitch_record(kind, 9, 0.6, true));
  }
  for (int t = 2; t <= 11; ++t) {
    pilot.records.push_back(glitch_record(kind, t, 0.2, false));
  }
  pilot.successes = 10;
  return pilot;
}

bool is_success_cell(int t, std::size_t level_index) {
  return (t == 5 && level_index == 1) || (t == 9 && level_index == 2);
}

std::size_t level_index_of(const faultsim::GlitchAttackModel& model,
                           double level) {
  const auto it = std::find(model.levels.begin(), model.levels.end(), level);
  EXPECT_NE(it, model.levels.end()) << level;
  return static_cast<std::size_t>(it - model.levels.begin());
}

TEST(AdaptiveGlitchSampler, GridPmfSumsToOneAndWeightsAreExactRatios) {
  for (const faultsim::TechniqueKind kind : kGlitchKinds) {
    SCOPED_TRACE(faultsim::technique_kind_name(kind));
    const faultsim::GlitchAttackModel model = glitch_grid(kind);
    AdaptiveGlitchSampler sampler(model, 100, glitch_pilot(kind));
    double g_total = 0.0;
    double weighted_total = 0.0;  // sum of g * (f / g) over the grid
    for (int t = model.t_min; t <= model.t_max; ++t) {
      for (std::size_t k = 0; k < model.levels.size(); ++k) {
        const double g = sampler.g_pmf(t, k);
        EXPECT_GT(g, 0.0);
        g_total += g;
        weighted_total += g * (model.f_pmf() / g);
      }
    }
    EXPECT_NEAR(g_total, 1.0, 1e-12);
    EXPECT_NEAR(weighted_total, 1.0, 1e-12);

    Rng rng(17);
    for (int i = 0; i < 2000; ++i) {
      const faultsim::FaultSample s = sampler.draw(rng);
      ASSERT_GE(s.t, model.t_min);
      ASSERT_LE(s.t, model.t_max);
      const std::size_t k = level_index_of(model, s.depth);
      EXPECT_EQ(s.weight, model.f_pmf() / sampler.g_pmf(s.t, k));
      EXPECT_LE(s.weight, 1.0 / AdaptiveConfig{}.defensive_mix + 1e-9);
    }
  }
}

TEST(AdaptiveGlitchSampler, ConcentratesOnSuccessCells) {
  for (const faultsim::TechniqueKind kind : kGlitchKinds) {
    SCOPED_TRACE(faultsim::technique_kind_name(kind));
    const faultsim::GlitchAttackModel model = glitch_grid(kind);
    AdaptiveGlitchSampler sampler(model, 100, glitch_pilot(kind));
    double success_mass = 0.0;
    for (int t = model.t_min; t <= model.t_max; ++t) {
      for (std::size_t k = 0; k < model.levels.size(); ++k) {
        const double g = sampler.g_pmf(t, k);
        if (is_success_cell(t, k)) {
          EXPECT_GT(g, model.f_pmf());
          success_mass += g;
        } else {
          EXPECT_LT(g, model.f_pmf());
        }
      }
    }
    // Smoothing 0.25 on 30 cells plus 10 success counts, mixed 0.9 / 0.1
    // with f: 0.9 * 10.5 / 17.5 + 0.1 * 2 / 30.
    EXPECT_NEAR(success_mass, 0.9 * 10.5 / 17.5 + 0.1 * 2.0 / 30.0, 1e-12);
    EXPECT_GT(sampler.g_pmf(5, 1), sampler.g_pmf(9, 2));  // 6 vs 4 successes

    Rng rng(23);
    int hits = 0;
    constexpr int kDraws = 4000;
    for (int i = 0; i < kDraws; ++i) {
      const faultsim::FaultSample s = sampler.draw(rng);
      hits += is_success_cell(s.t, level_index_of(model, s.depth)) ? 1 : 0;
    }
    // Expected share ~0.55 against 2/30 under f.
    EXPECT_NEAR(static_cast<double>(hits) / kDraws, success_mass, 0.05);
  }
}

TEST(AdaptiveGlitchSampler, IgnoresOtherKindAndOffGridPilotRecords) {
  for (const faultsim::TechniqueKind kind : kGlitchKinds) {
    SCOPED_TRACE(faultsim::technique_kind_name(kind));
    const faultsim::TechniqueKind other =
        kind == faultsim::TechniqueKind::kClockGlitch
            ? faultsim::TechniqueKind::kVoltageGlitch
            : faultsim::TechniqueKind::kClockGlitch;
    const faultsim::GlitchAttackModel model = glitch_grid(kind);
    SsfResult noisy = glitch_pilot(kind);
    for (int i = 0; i < 8; ++i) {
      noisy.records.push_back(glitch_record(other, 3, 0.2, true));
      noisy.records.push_back(glitch_record(kind, 7, 0.3, true));  // off-grid
      noisy.records.push_back(glitch_record(kind, 12, 0.4, true));  // t > max
    }
    noisy.successes += 24;
    const AdaptiveGlitchSampler clean(model, 100, glitch_pilot(kind));
    const AdaptiveGlitchSampler refit(model, 100, noisy);
    for (int t = model.t_min; t <= model.t_max; ++t) {
      for (std::size_t k = 0; k < model.levels.size(); ++k) {
        EXPECT_EQ(refit.g_pmf(t, k), clean.g_pmf(t, k)) << t << " " << k;
      }
    }
  }
}

TEST(AdaptiveGlitchSampler, TagsAndNamesFollowTheKind) {
  for (const faultsim::TechniqueKind kind : kGlitchKinds) {
    SCOPED_TRACE(faultsim::technique_kind_name(kind));
    AdaptiveGlitchSampler sampler(glitch_grid(kind), 100, glitch_pilot(kind));
    EXPECT_EQ(sampler.name(), kind == faultsim::TechniqueKind::kClockGlitch
                                  ? "glitch-adaptive"
                                  : "voltage-adaptive");
    Rng rng(5);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler.draw(rng).technique, kind);
  }
}

TEST(AdaptiveGlitchSampler, RejectsUnusablePilotsAndModels) {
  const faultsim::GlitchAttackModel model =
      glitch_grid(faultsim::TechniqueKind::kVoltageGlitch);
  EXPECT_THROW(AdaptiveGlitchSampler(model, 100, SsfResult{}),
               fav::CheckError);
  SsfResult no_success;
  no_success.records.push_back(glitch_record(model.kind, 3, 0.2, false));
  EXPECT_THROW(AdaptiveGlitchSampler(model, 100, no_success),
               fav::CheckError);
  // A timing range past the target cycle has no cycle to glitch.
  EXPECT_THROW(AdaptiveGlitchSampler(model, 5, glitch_pilot(model.kind)),
               fav::CheckError);
}

}  // namespace
}  // namespace fav::mc
