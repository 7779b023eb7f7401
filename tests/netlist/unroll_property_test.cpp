// Property test: evaluating the explicitly unrolled netlist must agree with
// sequential simulation of the original, cycle for cycle, on randomly
// generated sequential circuits with random stimulus.
#include <gtest/gtest.h>

#include "netlist/logicsim.h"
#include "netlist/unroll.h"
#include "util/rng.h"

namespace fav::netlist {
namespace {

struct RandomCircuit {
  Netlist nl;
  std::vector<NodeId> inputs;
  std::vector<NodeId> dffs;

  RandomCircuit(std::uint64_t seed, int n_inputs, int n_dffs, int gates) {
    Rng rng(seed);
    std::vector<NodeId> pool;
    for (int i = 0; i < n_inputs; ++i) {
      inputs.push_back(nl.add_input("in" + std::to_string(i)));
      pool.push_back(inputs.back());
    }
    for (int i = 0; i < n_dffs; ++i) {
      dffs.push_back(nl.add_dff(std::string("r").append(std::to_string(i))));
      pool.push_back(dffs.back());
    }
    const CellType kinds[] = {CellType::kAnd,  CellType::kOr,
                              CellType::kXor,  CellType::kNand,
                              CellType::kNor,  CellType::kXnor,
                              CellType::kNot,  CellType::kMux};
    for (int i = 0; i < gates; ++i) {
      const CellType t = kinds[rng.uniform_below(8)];
      std::vector<NodeId> fanins;
      for (int k = 0; k < cell_arity(t); ++k) {
        fanins.push_back(pool[rng.uniform_below(pool.size())]);
      }
      pool.push_back(nl.add_gate(t, std::move(fanins)));
    }
    for (const NodeId d : dffs) {
      nl.connect_dff(d, pool[rng.uniform_below(pool.size())]);
    }
    nl.validate();
  }
};

class UnrollProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnrollProperty, UnrolledMatchesSequentialSimulation) {
  RandomCircuit c(GetParam(), 3, 5, 40);
  constexpr int kFrames = 6;
  const Unroller unrolled(c.nl, kFrames);
  Rng rng(GetParam() * 7919 + 13);

  // Random stimulus and initial state.
  std::vector<std::vector<bool>> stim(kFrames,
                                      std::vector<bool>(c.inputs.size()));
  std::vector<bool> init(c.dffs.size());
  for (auto& frame : stim) {
    for (auto&& b : frame) b = rng.bernoulli(0.5);
  }
  for (auto&& b : init) b = rng.bernoulli(0.5);

  // Sequential reference.
  LogicSimulator seq(c.nl);
  for (std::size_t i = 0; i < c.dffs.size(); ++i) {
    seq.set_register(c.dffs[i], init[i]);
  }
  std::vector<std::vector<bool>> reg_trace;  // register state per frame
  for (int f = 0; f < kFrames; ++f) {
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      seq.set_input(c.inputs[i], stim[static_cast<std::size_t>(f)][i]);
    }
    reg_trace.push_back(seq.register_state());
    seq.step();
  }

  // Combinational evaluation of the unrolled netlist.
  LogicSimulator comb(unrolled.unrolled());
  for (std::size_t i = 0; i < c.dffs.size(); ++i) {
    comb.set_input(unrolled.initial_state_input(c.dffs[i]), init[i]);
  }
  for (int f = 0; f < kFrames; ++f) {
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      comb.set_input(
          "in" + std::to_string(i) + "@f" + std::to_string(f),
          stim[static_cast<std::size_t>(f)][i]);
    }
  }
  comb.evaluate_comb();

  for (int f = 0; f < kFrames; ++f) {
    for (std::size_t i = 0; i < c.dffs.size(); ++i) {
      EXPECT_EQ(comb.value(unrolled.at(c.dffs[i], f)),
                reg_trace[static_cast<std::size_t>(f)][i])
          << "seed " << GetParam() << " frame " << f << " reg " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnrollProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18, 19,
                                           20));

}  // namespace
}  // namespace fav::netlist
