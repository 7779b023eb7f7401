// Timing-glitch simulator and technique tests: the clock- and voltage-glitch
// setup analysis of the single-sample reference on a netlist with known path
// depths, attack-model validation, and the enumerable-fault-space contract
// (index-stable, chunk-invariant, t-major) the exhaustive sweep keys on.
// The suites keep the names of the per-kind classes they were written for;
// every one now drives GlitchSimulator / GlitchTechnique / GlitchAttackModel
// with the kind as a parameter.
#include "faultsim/glitch.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faultsim/technique.h"
#include "gen/builder.h"
#include "util/check.h"

namespace fav::faultsim {
namespace {

using netlist::CellType;
using netlist::LogicSimulator;
using netlist::Netlist;
using netlist::NodeId;

constexpr TechniqueKind kClock = TechniqueKind::kClockGlitch;
constexpr TechniqueKind kVoltage = TechniqueKind::kVoltageGlitch;

// Two registers with very different path depths:
//   fast: in -> r_fast (arrival 0)
//   slow: in -> NOT^8 -> r_slow (arrival 8 * delay_inv)
// Nominal period = critical path * margin = 8 * 1.15 = 9.2; with setup 0.6
// the slow path misses setup once 8 / (1 - droop) + 0.6 > 9.2, i.e. for
// droop > ~0.0698. The fast path (arrival 0) can never miss under droop.
struct TwoPaths {
  Netlist nl;
  NodeId in, r_fast, r_slow;
  TwoPaths() {
    in = nl.add_input("in");
    r_fast = nl.add_dff("r_fast");
    nl.connect_dff(r_fast, in);
    NodeId cur = in;
    for (int i = 0; i < 8; ++i) cur = nl.add_gate(CellType::kNot, {cur});
    r_slow = nl.add_dff("r_slow");
    nl.connect_dff(r_slow, cur);
  }
};

TEST(ClockGlitchSimulator, NominalPeriodNeverFlips) {
  TwoPaths c;
  GlitchSimulator glitch(c.nl);
  LogicSimulator sim(c.nl);
  sim.set_input("in", true);
  sim.evaluate_comb();
  // Depth 1: the glitched period is the nominal one.
  EXPECT_TRUE(glitch.flipped_dffs(sim, kClock, 1.0).empty());
}

TEST(ClockGlitchSimulator, DeepGlitchFlipsSlowPathOnly) {
  TwoPaths c;
  const TimingModel tm;
  GlitchSimulator glitch(c.nl, tm);
  LogicSimulator sim(c.nl);
  sim.set_input("in", true);  // r_fast D = 1, r_slow D = NOT^8(1) = 1
  sim.evaluate_comb();
  // Glitch between the fast and slow arrivals: only the slow register
  // misses timing, and it flips because its old Q (0) != new D (1).
  const double mid = 4 * tm.delay_inv / glitch.timing().clock_period();
  const auto flips = glitch.flipped_dffs(sim, kClock, mid);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], c.r_slow);
}

TEST(ClockGlitchSimulator, HoldOfSameValueIsNoError) {
  TwoPaths c;
  const TimingModel tm;
  GlitchSimulator glitch(c.nl, tm);
  LogicSimulator sim(c.nl);
  // Preload r_slow with the value it would capture anyway: holding it is
  // not an error.
  sim.set_input("in", true);
  sim.set_register(c.r_slow, true);
  sim.evaluate_comb();
  const double mid = 4 * tm.delay_inv / glitch.timing().clock_period();
  EXPECT_TRUE(glitch.flipped_dffs(sim, kClock, mid).empty());
}

TEST(ClockGlitchSimulator, VeryDeepGlitchFlipsEveryChangingRegister) {
  TwoPaths c;
  GlitchSimulator glitch(c.nl);
  LogicSimulator sim(c.nl);
  sim.set_input("in", true);  // both registers would change 0 -> 1
  sim.evaluate_comb();
  const auto flips =
      glitch.flipped_dffs(sim, kClock, 1e-6 / glitch.timing().clock_period());
  EXPECT_EQ(flips.size(), 2u);
}

TEST(ClockGlitchSimulator, CriticalDArrival) {
  TwoPaths c;
  const TimingModel tm;
  GlitchSimulator glitch(c.nl, tm);
  EXPECT_DOUBLE_EQ(glitch.critical_d_arrival(), 8 * tm.delay_inv);
}

TEST(ClockGlitchSimulator, InvalidPeriodThrows) {
  TwoPaths c;
  GlitchSimulator glitch(c.nl);
  LogicSimulator sim(c.nl);
  sim.evaluate_comb();
  EXPECT_THROW(glitch.flipped_dffs(sim, kClock, 0.0), fav::CheckError);
}

TEST(ClockGlitchAttackModel, Validation) {
  GlitchAttackModel m;
  EXPECT_EQ(m.kind, kClock);
  EXPECT_EQ(m.levels, (std::vector<double>{0.55, 0.65, 0.75, 0.85}));
  EXPECT_NO_THROW(m.check_valid());
  EXPECT_EQ(m.t_count(), 50);
  m.levels = {1.5};
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.levels = {};
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.levels = {0.5};
  m.t_max = -1;
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.t_max = 49;
  EXPECT_THROW(m.check_valid(30), fav::CheckError);  // range past Tt
  EXPECT_NO_THROW(m.check_valid(60));
}

TEST(VoltageGlitchSimulator, TinyDroopNeverFlips) {
  TwoPaths c;
  GlitchSimulator droop(c.nl);
  LogicSimulator sim(c.nl);
  sim.set_input("in", true);
  sim.evaluate_comb();
  // 8 / 0.95 + 0.6 = 9.02 < 9.2: even the slow path still meets setup.
  EXPECT_TRUE(droop.flipped_dffs(sim, kVoltage, 0.05).empty());
}

TEST(VoltageGlitchSimulator, ModerateDroopFlipsSlowPathOnly) {
  TwoPaths c;
  GlitchSimulator droop(c.nl);
  LogicSimulator sim(c.nl);
  sim.set_input("in", true);  // r_fast D = 1, r_slow D = NOT^8(1) = 1
  sim.evaluate_comb();
  // 8 / 0.8 + 0.6 = 10.6 > 9.2: the slow register holds its old Q (0),
  // which differs from the new D (1) — a captured error. The fast register
  // (arrival 0) always meets setup, whatever the droop.
  const auto flips = droop.flipped_dffs(sim, kVoltage, 0.2);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], c.r_slow);
}

TEST(VoltageGlitchSimulator, HoldOfSameValueIsNoError) {
  TwoPaths c;
  GlitchSimulator droop(c.nl);
  LogicSimulator sim(c.nl);
  // Preload r_slow with the value it would capture anyway: holding it
  // through the droop is not an error.
  sim.set_input("in", true);
  sim.set_register(c.r_slow, true);
  sim.evaluate_comb();
  EXPECT_TRUE(droop.flipped_dffs(sim, kVoltage, 0.2).empty());
}

TEST(VoltageGlitchSimulator, SevereDroopFlipsEveryChangingSlowRegister) {
  TwoPaths c;
  GlitchSimulator droop(c.nl);
  LogicSimulator sim(c.nl);
  sim.set_input("in", true);
  sim.evaluate_comb();
  // Even at 99% droop only the slow register can miss: the fast register's
  // D arrives at 0, and 0 / (1 - d) is still 0.
  const auto flips = droop.flipped_dffs(sim, kVoltage, 0.99);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], c.r_slow);
}

TEST(VoltageGlitchSimulator, CriticalDArrival) {
  TwoPaths c;
  const TimingModel tm;
  GlitchSimulator droop(c.nl, tm);
  EXPECT_DOUBLE_EQ(droop.critical_d_arrival(), 8 * tm.delay_inv);
}

TEST(VoltageGlitchSimulator, InvalidDroopThrows) {
  TwoPaths c;
  GlitchSimulator droop(c.nl);
  LogicSimulator sim(c.nl);
  sim.evaluate_comb();
  EXPECT_THROW(droop.flipped_dffs(sim, kVoltage, 0.0), fav::CheckError);
  EXPECT_THROW(droop.flipped_dffs(sim, kVoltage, 1.0), fav::CheckError);
  EXPECT_THROW(droop.flipped_dffs(sim, kVoltage, -0.3), fav::CheckError);
}

TEST(VoltageGlitchAttackModel, Validation) {
  GlitchAttackModel m(kVoltage);
  EXPECT_EQ(m.kind, kVoltage);
  EXPECT_EQ(m.levels, (std::vector<double>{0.15, 0.25, 0.35, 0.45}));
  EXPECT_NO_THROW(m.check_valid());
  EXPECT_EQ(m.t_count(), 50);
  m.levels = {1.5};
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.levels = {};
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.levels = {0.5};
  m.t_max = -1;
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.t_max = 49;
  EXPECT_THROW(m.check_valid(30), fav::CheckError);  // range past Tt
  EXPECT_NO_THROW(m.check_valid(60));
}

TEST(VoltageGlitchTechnique, RejectsForeignAndOutOfRangeSamples) {
  TwoPaths c;
  GlitchSimulator droop(c.nl);
  GlitchTechnique technique(droop, kVoltage);
  EXPECT_EQ(technique.kind(), TechniqueKind::kVoltageGlitch);
  FaultSample s;
  s.technique = TechniqueKind::kVoltageGlitch;
  s.t = 3;
  s.depth = 0.4;
  EXPECT_NO_THROW(technique.check_sample(s));
  s.depth = 1.0;
  EXPECT_THROW(technique.check_sample(s), fav::CheckError);
  s.depth = 0.4;
  s.technique = TechniqueKind::kRadiation;
  EXPECT_THROW(technique.check_sample(s), fav::CheckError);
}

TEST(VoltageGlitchTechnique, EnumerateWithoutBoundSpaceThrows) {
  TwoPaths c;
  GlitchSimulator droop(c.nl);
  GlitchTechnique technique(droop, kVoltage);
  EXPECT_EQ(technique.space_size(), 0u);
  std::vector<FaultSample> out;
  EXPECT_THROW(technique.enumerate(0, 1, out), fav::CheckError);
}

TEST(VoltageGlitchTechnique, EnumerationIsTMajorIndexStableAndChunkInvariant) {
  TwoPaths c;
  GlitchSimulator droop(c.nl);
  GlitchTechnique technique(droop, kVoltage);
  GlitchAttackModel model(kVoltage);
  model.t_min = 2;
  model.t_max = 6;
  model.levels = {0.2, 0.4, 0.6};
  technique.bind_space(model);
  ASSERT_EQ(technique.space_size(), 15u);

  std::vector<FaultSample> whole;
  technique.enumerate(0, 15, whole);
  ASSERT_EQ(whole.size(), 15u);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    // t-major with the droop grid innermost, weight exactly 1.
    EXPECT_EQ(whole[i].t, 2 + static_cast<int>(i / 3)) << i;
    EXPECT_EQ(whole[i].depth, model.levels[i % 3]) << i;
    EXPECT_EQ(whole[i].weight, 1.0) << i;
    EXPECT_EQ(whole[i].technique, TechniqueKind::kVoltageGlitch) << i;
  }

  // Chunked enumeration (any chunking) must reproduce the same index ->
  // sample mapping — the contract journaled resume and sharding key on.
  for (const std::uint64_t chunk : {1ull, 4ull, 7ull}) {
    std::vector<FaultSample> piece;
    std::uint64_t index = 0;
    for (std::uint64_t lo = 0; lo < 15; lo += chunk) {
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, 15);
      technique.enumerate(lo, hi, piece);
      ASSERT_EQ(piece.size(), hi - lo);
      for (const FaultSample& s : piece) {
        EXPECT_EQ(s.t, whole[index].t) << "chunk=" << chunk << " i=" << index;
        EXPECT_EQ(s.depth, whole[index].depth)
            << "chunk=" << chunk << " i=" << index;
        ++index;
      }
    }
  }

  std::vector<FaultSample> out;
  EXPECT_THROW(technique.enumerate(10, 16, out), fav::CheckError);
  EXPECT_THROW(technique.enumerate(5, 4, out), fav::CheckError);
}

/// The message of the CheckError `fn` throws ("" when it does not throw).
template <class Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const fav::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(GlitchTechnique, PerKindMessagesKeepTheirBytes) {
  TwoPaths c;
  const GlitchSimulator simulator(c.nl);
  const struct {
    TechniqueKind kind;
    const char* sample;
    const char* no_levels;
    const char* level;
    const char* timing;
  } kCases[] = {
      {kClock, "depth must be in (0, 1)", "no glitch depths",
       "glitch depth must be in (0, 1)", "glitch timing range [0, 49]"},
      {kVoltage, "droop must be in (0, 1)", "no droop levels",
       "droop must be in (0, 1)", "droop timing range [0, 49]"},
  };
  for (const auto& k : kCases) {
    SCOPED_TRACE(technique_kind_name(k.kind));
    const GlitchTechnique technique(simulator, k.kind);
    FaultSample s;
    s.technique = k.kind;
    s.depth = 1.0;
    EXPECT_NE(error_of([&] { technique.check_sample(s); }).find(k.sample),
              std::string::npos);
    GlitchAttackModel m(k.kind);
    EXPECT_NE(error_of([&] { m.check_valid(10); }).find(k.timing),
              std::string::npos);
    m.levels = {1.0};
    EXPECT_NE(error_of([&] { m.check_valid(); }).find(k.level),
              std::string::npos);
    m.levels = {};
    EXPECT_NE(error_of([&] { m.check_valid(); }).find(k.no_levels),
              std::string::npos);
  }
  EXPECT_STREQ(glitch_strings(kClock).uniform, "glitch-uniform");
  EXPECT_STREQ(glitch_strings(kVoltage).uniform, "voltage-uniform");
  EXPECT_STREQ(glitch_strings(kClock).adaptive, "glitch-adaptive");
  EXPECT_THROW(glitch_strings(TechniqueKind::kRadiation), fav::CheckError);
  EXPECT_THROW(GlitchTechnique(simulator, TechniqueKind::kRadiation),
               fav::CheckError);
}

TEST(GlitchTechnique, BindSpaceRejectsModelOfTheOtherKind) {
  TwoPaths c;
  const GlitchSimulator simulator(c.nl);
  GlitchTechnique clock(simulator, kClock);
  EXPECT_THROW(clock.bind_space(GlitchAttackModel(kVoltage)),
               fav::CheckError);
  EXPECT_EQ(clock.space_size(), 0u);
  clock.bind_space(GlitchAttackModel(kClock));
  EXPECT_EQ(clock.space_size(), 200u);
  std::vector<FaultSample> out;
  clock.enumerate(0, 4, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].technique, kClock);
    EXPECT_EQ(out[i].depth, GlitchAttackModel(kClock).levels[i]);
  }
}

}  // namespace
}  // namespace fav::faultsim
