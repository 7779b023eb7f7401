// Lane kernels of the glitch techniques: ClockGlitchTechnique::flip_set and
// VoltageGlitchTechnique::flip_set evaluate up to 64 samples per call, one
// per lane of a WordSimulator. Each lane must reproduce the single-sample
// reference (ClockGlitchSimulator / VoltageGlitchSimulator::flipped_dffs)
// against that lane's own settled values — the glitch counterpart of
// InjectionSimulator.InjectBatchMatchesScalarLaneByLane.
#include "faultsim/technique.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace fav::faultsim {
namespace {

using netlist::CellType;
using netlist::LogicSimulator;
using netlist::Netlist;
using netlist::NodeId;

/// Random mixed-gate netlist whose registers sample D inputs at many
/// different depths, so every glitch severity splits them into registers
/// that meet timing and registers that miss it.
struct RandomNetlist {
  Netlist nl;
  explicit RandomNetlist(std::mt19937& gen) {
    std::vector<NodeId> pool;
    for (int i = 0; i < 4; ++i) {
      pool.push_back(nl.add_input("in" + std::to_string(i)));
    }
    std::vector<NodeId> dffs;
    for (int i = 0; i < 12; ++i) {
      dffs.push_back(nl.add_dff("r" + std::to_string(i)));
      pool.push_back(dffs.back());
    }
    static constexpr CellType kTypes[] = {
        CellType::kBuf, CellType::kNot,  CellType::kAnd,
        CellType::kOr,  CellType::kNand, CellType::kNor,
        CellType::kXor, CellType::kXnor, CellType::kMux};
    std::vector<NodeId> gates;
    for (int i = 0; i < 60; ++i) {
      const CellType t = kTypes[gen() % std::size(kTypes)];
      std::vector<NodeId> fanins;
      for (int a = 0; a < netlist::cell_arity(t); ++a) {
        // Favour recent nodes so paths get deep.
        const std::size_t window = std::min<std::size_t>(pool.size(), 8);
        fanins.push_back(pool[pool.size() - 1 - gen() % window]);
      }
      gates.push_back(
          nl.add_gate(t, std::move(fanins), "g" + std::to_string(i)));
      pool.push_back(gates.back());
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      nl.connect_dff(dffs[i], gates[(i * 5 + gen() % 5) % gates.size()]);
    }
  }
};

/// Per-lane divergent states: lane l of `words` and `lanes[l]` hold the
/// same random inputs and registers, settled.
struct LaneStates {
  netlist::WordSimulator words;
  std::vector<LogicSimulator> lanes;
  LaneStates(const Netlist& nl, int count, std::mt19937& gen) : words(nl) {
    lanes.reserve(count);
    for (int l = 0; l < count; ++l) {
      lanes.emplace_back(nl);
      for (const NodeId in : nl.inputs()) {
        const bool v = gen() & 1;
        lanes[l].set_input(in, v);
        words.set_input_lane(in, l, v);
      }
      for (const NodeId r : nl.dffs()) {
        const bool v = gen() & 1;
        lanes[l].set_register(r, v);
        words.set_register_lane(r, l, v);
      }
      lanes[l].evaluate_comb();
    }
    words.evaluate_comb();
  }
};

FaultSample glitch_sample(TechniqueKind kind, double depth) {
  FaultSample s;
  s.technique = kind;
  s.t = 3;
  s.depth = depth;
  return s;
}

TEST(GlitchTechniques, FlipSetMatchesReferenceLaneByLane) {
  std::mt19937 gen(4321);
  TechniqueScratch scratch;
  std::size_t clock_flips = 0;
  std::size_t voltage_flips = 0;
  for (const int lanes : {1, 7, 64}) {
    for (int trial = 0; trial < 3; ++trial) {
      const RandomNetlist net(gen);
      const LaneStates states(net.nl, lanes, gen);
      const ClockGlitchSimulator glitch(net.nl);
      const VoltageGlitchSimulator droop(net.nl);
      const ClockGlitchTechnique clock_technique(glitch);
      const VoltageGlitchTechnique voltage_technique(droop);
      std::uniform_real_distribution<double> severity(0.02, 0.98);
      std::vector<FaultSample> clock_samples;
      std::vector<FaultSample> voltage_samples;
      for (int l = 0; l < lanes; ++l) {
        clock_samples.push_back(
            glitch_sample(TechniqueKind::kClockGlitch, severity(gen)));
        voltage_samples.push_back(
            glitch_sample(TechniqueKind::kVoltageGlitch, severity(gen)));
      }

      std::vector<std::vector<NodeId>> flipped;
      clock_technique.flip_set(states.words, scratch, clock_samples, flipped);
      ASSERT_EQ(flipped.size(), static_cast<std::size_t>(lanes));
      const double period = glitch.timing().clock_period();
      for (int l = 0; l < lanes; ++l) {
        const auto ref = glitch.flipped_dffs(states.lanes[l],
                                             period * clock_samples[l].depth);
        EXPECT_EQ(flipped[l], ref)
            << "clock glitch, lanes " << lanes << " trial " << trial
            << " lane " << l;
        clock_flips += ref.size();
      }

      voltage_technique.flip_set(states.words, scratch, voltage_samples,
                                 flipped);
      ASSERT_EQ(flipped.size(), static_cast<std::size_t>(lanes));
      for (int l = 0; l < lanes; ++l) {
        const auto ref =
            droop.flipped_dffs(states.lanes[l], voltage_samples[l].depth);
        EXPECT_EQ(flipped[l], ref)
            << "voltage glitch, lanes " << lanes << " trial " << trial
            << " lane " << l;
        voltage_flips += ref.size();
      }
    }
  }
  // The comparison must not hold vacuously.
  EXPECT_GT(clock_flips, 0u);
  EXPECT_GT(voltage_flips, 0u);
}

}  // namespace
}  // namespace fav::faultsim
