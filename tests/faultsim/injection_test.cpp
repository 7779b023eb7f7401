#include "faultsim/injection.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "netlist/logicsim.h"

namespace fav::faultsim {
namespace {

using netlist::CellType;
using netlist::LogicSimulator;
using netlist::Netlist;
using netlist::NodeId;

// Inverter chain of `depth` gates into a DFF: in -> NOT^depth -> r.
struct Chain {
  Netlist nl;
  NodeId in;
  std::vector<NodeId> gates;
  NodeId r;
  explicit Chain(int depth) {
    in = nl.add_input("in");
    NodeId cur = in;
    for (int i = 0; i < depth; ++i) {
      cur = nl.add_gate(CellType::kNot, {cur},
                        std::string("g").append(std::to_string(i)));
      gates.push_back(cur);
    }
    r = nl.add_dff("r");
    nl.connect_dff(r, cur);
  }
};

LogicSimulator settled(const Netlist& nl) {
  LogicSimulator sim(nl);
  sim.evaluate_comb();
  return sim;
}

TEST(InjectionSimulator, NoStrikeIsMasked) {
  Chain c(5);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  const auto result = inj.inject(sim, {});
  EXPECT_TRUE(result.masked());
  EXPECT_EQ(result.struck_gates, 0u);
  EXPECT_EQ(result.struck_dffs, 0u);
}

TEST(InjectionSimulator, DirectDffStrikeAlwaysFlips) {
  Chain c(5);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  const std::vector<NodeId> struck = {c.r};
  const auto result = inj.inject(sim, struck, /*strike_time=*/0.0);
  ASSERT_EQ(result.flipped_dffs.size(), 1u);
  EXPECT_EQ(result.flipped_dffs[0], c.r);
  EXPECT_EQ(result.struck_dffs, 1u);
  EXPECT_EQ(result.direct_flips, 1u);
  EXPECT_EQ(result.latched_flips, 0u);
}

TEST(InjectionSimulator, StrikeNearClockEdgeLatches) {
  Chain c(5);
  const TimingModel tm;
  InjectionSimulator inj(c.nl, tm);
  const LogicSimulator sim = settled(c.nl);
  // Strike the first gate so the pulse arrives at the D input right around
  // the latching window: choose strike_time so that
  // start + 4*delay_inv hits window_lo.
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  const double strike = window_lo - 4 * tm.delay_inv - 0.1;
  const std::vector<NodeId> struck = {c.gates[0]};
  const auto result = inj.inject(sim, struck, strike);
  ASSERT_EQ(result.flipped_dffs.size(), 1u);
  EXPECT_EQ(result.flipped_dffs[0], c.r);
  EXPECT_EQ(result.latched_flips, 1u);
  EXPECT_EQ(result.struck_gates, 1u);
}

TEST(InjectionSimulator, LateStrikeMissesWindow) {
  Chain c(5);
  const TimingModel tm;
  InjectionSimulator inj(c.nl, tm);
  const LogicSimulator sim = settled(c.nl);
  // Pulse arrives entirely after the hold window closes.
  const double window_hi = inj.timing().clock_period() + tm.hold_time;
  const double strike = window_hi - 4 * tm.delay_inv + 0.1;
  const std::vector<NodeId> struck = {c.gates[0]};
  const auto result = inj.inject(sim, struck, strike);
  EXPECT_TRUE(result.masked());
}

TEST(InjectionSimulator, EarlyStrikeDiesBeforeWindow) {
  // Long chain: generous slack between pulse arrival and the clock edge.
  Chain c(30);
  TimingModel tm;
  tm.attenuation = 0.0;  // isolate temporal masking from electrical
  InjectionSimulator inj(c.nl, tm);
  const LogicSimulator sim = settled(c.nl);
  // Strike the last gate early: pulse [29+1, +3] = [30, 33]; window starts at
  // (30 + 0.6) * 1.15 - 0.6 ≈ 34.6 — the pulse is long gone.
  const std::vector<NodeId> struck = {c.gates[29]};
  const auto result = inj.inject(sim, struck, /*strike_time=*/0.0);
  EXPECT_TRUE(result.masked());
}

TEST(InjectionSimulator, ElectricalMaskingKillsNarrowPulses) {
  // With default attenuation 0.15 and width 3.0, a pulse survives at most
  // (3.0 - 0.5) / 0.15 ≈ 16 stages. A 25-deep chain masks it regardless of
  // timing.
  Chain c(25);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  bool any_flip = false;
  for (double frac : {0.0, 0.25, 0.5, 0.75, 0.95}) {
    const auto result = inj.inject(
        sim, std::vector<NodeId>{c.gates[0]},
        frac * inj.timing().clock_period());
    any_flip |= !result.masked();
  }
  EXPECT_FALSE(any_flip);
}

TEST(InjectionSimulator, LogicalMaskingByControllingSideInput) {
  // glitch -> AND(g, side); side = 0 masks, side = 1 sensitizes.
  Netlist nl;
  const NodeId in = nl.add_input("in");
  const NodeId side = nl.add_input("side");
  const NodeId g1 = nl.add_gate(CellType::kNot, {in}, "g1");
  const NodeId g2 = nl.add_gate(CellType::kAnd, {g1, side}, "g2");
  const NodeId r = nl.add_dff("r");
  nl.connect_dff(r, g2);

  const TimingModel tm;
  InjectionSimulator inj(nl, tm);
  // Aim the pulse at the window through 1 AND delay.
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  const double strike = window_lo - tm.delay_and_or - 0.1;

  LogicSimulator sim(nl);
  sim.set_input("side", false);
  sim.evaluate_comb();
  EXPECT_TRUE(inj.inject(sim, std::vector<NodeId>{g1}, strike).masked());

  sim.set_input("side", true);
  sim.evaluate_comb();
  EXPECT_FALSE(inj.inject(sim, std::vector<NodeId>{g1}, strike).masked());
}

TEST(InjectionSimulator, MuxSelectGlitchNeedsDifferingData) {
  Netlist nl;
  const NodeId sel = nl.add_input("sel");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId selbuf = nl.add_gate(CellType::kBuf, {sel}, "selbuf");
  const NodeId m = nl.add_gate(CellType::kMux, {selbuf, a, b}, "m");
  const NodeId r = nl.add_dff("r");
  nl.connect_dff(r, m);

  const TimingModel tm;
  InjectionSimulator inj(nl, tm);
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  const double strike = window_lo - tm.delay_mux - 0.05;

  LogicSimulator sim(nl);
  sim.set_input("a", true);
  sim.set_input("b", true);  // equal data: select glitch is invisible
  sim.evaluate_comb();
  EXPECT_TRUE(inj.inject(sim, std::vector<NodeId>{selbuf}, strike).masked());

  sim.set_input("b", false);  // differing data: glitch reaches the output
  sim.evaluate_comb();
  EXPECT_FALSE(inj.inject(sim, std::vector<NodeId>{selbuf}, strike).masked());
}

TEST(InjectionSimulator, MuxUnselectedDataPinMasked) {
  Netlist nl;
  const NodeId sel = nl.add_input("sel");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId abuf = nl.add_gate(CellType::kBuf, {a}, "abuf");
  const NodeId m = nl.add_gate(CellType::kMux, {sel, abuf, b}, "m");
  const NodeId r = nl.add_dff("r");
  nl.connect_dff(r, m);

  const TimingModel tm;
  InjectionSimulator inj(nl, tm);
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  const double strike = window_lo - tm.delay_mux - 0.05;

  LogicSimulator sim(nl);
  sim.set_input("sel", true);  // selects b: glitch on a-path is masked
  sim.evaluate_comb();
  EXPECT_TRUE(inj.inject(sim, std::vector<NodeId>{abuf}, strike).masked());

  sim.set_input("sel", false);
  sim.evaluate_comb();
  EXPECT_FALSE(inj.inject(sim, std::vector<NodeId>{abuf}, strike).masked());
}

TEST(InjectionSimulator, FanoutReachesMultipleRegisters) {
  // One struck gate fans out to two DFFs: both can flip.
  Netlist nl;
  const NodeId in = nl.add_input("in");
  const NodeId g = nl.add_gate(CellType::kBuf, {in}, "g");
  const NodeId r1 = nl.add_dff("r1");
  const NodeId r2 = nl.add_dff("r2");
  nl.connect_dff(r1, g);
  nl.connect_dff(r2, g);

  const TimingModel tm;
  InjectionSimulator inj(nl, tm);
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  LogicSimulator sim(nl);
  sim.evaluate_comb();
  const auto result =
      inj.inject(sim, std::vector<NodeId>{g}, window_lo - 0.05);
  EXPECT_EQ(result.flipped_dffs.size(), 2u);
  EXPECT_EQ(result.latched_flips, 2u);
}

TEST(InjectionSimulator, DeterministicForSameInputs) {
  Chain c(8);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  const std::vector<NodeId> struck = {c.gates[0], c.gates[3], c.r};
  const auto r1 = inj.inject(sim, struck, 2.0);
  const auto r2 = inj.inject(sim, struck, 2.0);
  EXPECT_EQ(r1.flipped_dffs, r2.flipped_dffs);
  EXPECT_EQ(r1.struck_gates, r2.struck_gates);
}

TEST(InjectionSimulator, NegativeStrikeTimeThrows) {
  Chain c(3);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  EXPECT_THROW(inj.inject(sim, std::vector<NodeId>{c.gates[0]}, -1.0),
               fav::CheckError);
}

TEST(InjectionSimulator, AddPulseMergesTransitively) {
  Chain c(3);
  InjectionSimulator inj(c.nl);
  std::vector<Pulse> list;
  inj.add_pulse(list, {0.0, 1.0});
  inj.add_pulse(list, {2.0, 1.0});
  ASSERT_EQ(list.size(), 2u);  // disjoint so far
  // [0.8, 2.2] bridges both: its union with [0, 1] is [0, 2.2], which in
  // turn overlaps [2, 3]. A single merge pass stopped there and left two
  // overlapping entries on the list; the merge must rescan until stable.
  inj.add_pulse(list, {0.8, 1.4});
  ASSERT_EQ(list.size(), 1u);
  EXPECT_DOUBLE_EQ(list[0].start, 0.0);
  EXPECT_DOUBLE_EQ(list[0].width, 3.0);
}

TEST(InjectionSimulator, AddPulseKeepsListDisjointAndCapped) {
  Chain c(3);
  InjectionSimulator inj(c.nl);
  std::mt19937 gen(7);
  std::uniform_real_distribution<double> start(0.0, 20.0);
  std::uniform_real_distribution<double> width(0.1, 4.0);
  std::vector<Pulse> list;
  const auto cap = static_cast<std::size_t>(inj.params().max_pulses_per_node);
  for (int i = 0; i < 200; ++i) {
    inj.add_pulse(list, {start(gen), width(gen)});
    ASSERT_LE(list.size(), cap);
    for (std::size_t a = 0; a < list.size(); ++a) {
      for (std::size_t b = a + 1; b < list.size(); ++b) {
        const bool overlap =
            list[a].start <= list[b].start + list[b].width &&
            list[b].start <= list[a].start + list[a].width;
        ASSERT_FALSE(overlap) << "entries " << a << " and " << b
                              << " overlap after insertion " << i;
      }
    }
  }
}

// Random mixed-gate netlists with per-lane divergent inputs, registers,
// struck sets and strike times: inject_batch must reproduce the scalar
// inject() flip set lane by lane. The scratch is reused across trials with
// different node counts to exercise its shrink/grow path too.
TEST(InjectionSimulator, InjectBatchMatchesScalarLaneByLane) {
  std::mt19937 gen(1234);
  BatchInjectionScratch scratch;
  for (int trial = 0; trial < 5; ++trial) {
    Netlist nl;
    std::vector<NodeId> pool;
    std::vector<NodeId> dffs;
    for (int i = 0; i < 3; ++i)
      pool.push_back(nl.add_input("in" + std::to_string(i)));
    for (int i = 0; i < 3; ++i) {
      dffs.push_back(nl.add_dff(std::string("r").append(std::to_string(i))));
      pool.push_back(dffs.back());
    }
    static constexpr CellType kTypes[] = {
        CellType::kBuf, CellType::kNot,  CellType::kAnd,
        CellType::kOr,  CellType::kNand, CellType::kNor,
        CellType::kXor, CellType::kXnor, CellType::kMux};
    std::vector<NodeId> gates;
    const int n_gates = 24 + 8 * trial;
    for (int i = 0; i < n_gates; ++i) {
      const CellType t = kTypes[gen() % std::size(kTypes)];
      std::vector<NodeId> fanins;
      for (int a = 0; a < netlist::cell_arity(t); ++a)
        fanins.push_back(pool[gen() % pool.size()]);
      gates.push_back(nl.add_gate(t, std::move(fanins),
                                  std::string("g").append(std::to_string(i))));
      pool.push_back(gates.back());
    }
    for (NodeId r : dffs) nl.connect_dff(r, gates[gen() % gates.size()]);

    InjectionSimulator inj(nl);
    const double period = inj.timing().clock_period();
    std::vector<NodeId> candidates = gates;
    candidates.insert(candidates.end(), dffs.begin(), dffs.end());

    const int lanes = trial == 0 ? 1 : (trial == 1 ? 7 : 64);
    netlist::WordSimulator words(nl);
    std::vector<LogicSimulator> scalar;
    scalar.reserve(lanes);
    std::vector<std::vector<NodeId>> struck(lanes);
    std::vector<double> strike(lanes);
    for (int l = 0; l < lanes; ++l) {
      scalar.emplace_back(nl);
      for (NodeId in : nl.inputs()) {
        const bool v = gen() & 1;
        scalar[l].set_input(in, v);
        words.set_input_lane(in, l, v);
      }
      for (NodeId r : nl.dffs()) {
        const bool v = gen() & 1;
        scalar[l].set_register(r, v);
        words.set_register_lane(r, l, v);
      }
      scalar[l].evaluate_comb();
      const std::size_t n_struck = gen() % 5;
      for (std::size_t k = 0; k < n_struck; ++k)
        struck[l].push_back(candidates[gen() % candidates.size()]);
      strike[l] = static_cast<double>(gen() % 1000) / 1000.0 * period;
    }
    words.evaluate_comb();

    std::vector<std::vector<NodeId>> flipped;
    inj.inject_batch(words, struck, strike, scratch, flipped);
    ASSERT_EQ(flipped.size(), static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      const auto ref = inj.inject(scalar[l], struck[l], strike[l]);
      EXPECT_EQ(flipped[l], ref.flipped_dffs)
          << "trial " << trial << " lane " << l;
    }
  }
}

TEST(InjectionSimulator, InjectBatchRejectsBadLaneCounts) {
  Chain c(3);
  InjectionSimulator inj(c.nl);
  netlist::WordSimulator words(c.nl);
  words.broadcast_from(settled(c.nl));
  BatchInjectionScratch scratch;
  std::vector<std::vector<NodeId>> flipped;
  const std::vector<std::vector<NodeId>> none;
  const std::vector<double> no_times;
  EXPECT_THROW(inj.inject_batch(words, none, no_times, scratch, flipped),
               fav::CheckError);
  const std::vector<std::vector<NodeId>> one(1);
  EXPECT_THROW(inj.inject_batch(words, one, no_times, scratch, flipped),
               fav::CheckError);  // strike_times size mismatch
}

TEST(InjectionSimulator, BadParamsThrow) {
  Chain c(3);
  TransientParams tp;
  tp.initial_width = 0.0;
  EXPECT_THROW(InjectionSimulator(c.nl, TimingModel{}, tp), fav::CheckError);
  tp.initial_width = 1.0;
  tp.max_pulses_per_node = 0;
  EXPECT_THROW(InjectionSimulator(c.nl, TimingModel{}, tp), fav::CheckError);
}

}  // namespace
}  // namespace fav::faultsim
