// Property test: UnrolledCone's implicit unrolled-netlist traversal must
// agree with brute-force reachability computed independently on randomly
// generated sequential circuits.
#include <gtest/gtest.h>

#include <set>

#include "netlist/cones.h"
#include "util/rng.h"

namespace fav::netlist {
namespace {

// Random sequential netlist: `gates` random 2-input gates over a growing
// net pool, `dffs` registers with random D inputs (feedback allowed via the
// DFF outputs being in the pool from the start).
struct RandomCircuit {
  Netlist nl;
  std::vector<NodeId> pool;
  std::vector<NodeId> dffs;

  RandomCircuit(std::uint64_t seed, int inputs, int n_dffs, int gates) {
    Rng rng(seed);
    for (int i = 0; i < inputs; ++i) {
      pool.push_back(nl.add_input("in" + std::to_string(i)));
    }
    for (int i = 0; i < n_dffs; ++i) {
      const NodeId d = nl.add_dff(std::string("r").append(std::to_string(i)));
      dffs.push_back(d);
      pool.push_back(d);
    }
    const CellType kinds[] = {CellType::kAnd, CellType::kOr, CellType::kXor,
                              CellType::kNand, CellType::kNor,
                              CellType::kXnor};
    for (int i = 0; i < gates; ++i) {
      const NodeId a = pool[rng.uniform_below(pool.size())];
      const NodeId b = pool[rng.uniform_below(pool.size())];
      pool.push_back(nl.add_gate(kinds[rng.uniform_below(6)], {a, b}));
    }
    for (const NodeId d : dffs) {
      nl.connect_dff(d, pool[rng.uniform_below(pool.size())]);
    }
    nl.validate();
  }
};

// Brute-force fanin reachability on the conceptually unrolled netlist:
// frame-0 cone of `target`, crossing a DFF boundary increments the frame.
std::set<std::pair<int, NodeId>> brute_fanin(const Netlist& nl, NodeId target,
                                             int depth) {
  std::set<std::pair<int, NodeId>> visited;
  std::vector<std::pair<int, NodeId>> stack = {{0, target}};
  while (!stack.empty()) {
    const auto [frame, id] = stack.back();
    stack.pop_back();
    if (!visited.insert({frame, id}).second) continue;
    const Node& n = nl.node(id);
    if (n.type == CellType::kDff) {
      if (frame + 1 <= depth) {
        for (const NodeId f : n.fanins) stack.push_back({frame + 1, f});
      }
    } else if (is_combinational_gate(n.type)) {
      for (const NodeId f : n.fanins) stack.push_back({frame, f});
    }
  }
  return visited;
}

// Same-cycle combinational fanout of the target (joins frame 0 by design:
// timing distance 0, see cones.h).
std::set<NodeId> brute_comb_fanout(const Netlist& nl, NodeId target) {
  std::set<NodeId> visited;
  std::vector<NodeId> stack = {target};
  const auto& fanouts = nl.fanouts();
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (const auto& e : fanouts[id]) {
      if (!is_combinational_gate(nl.node(e.consumer).type)) continue;
      if (visited.insert(e.consumer).second) stack.push_back(e.consumer);
    }
  }
  return visited;
}

class ConesProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConesProperty, ImplicitTraversalMatchesBruteForce) {
  RandomCircuit c(GetParam(), 4, 6, 60);
  Rng rng(GetParam() * 31 + 7);
  // Pick a few responding-signal candidates: gates and registers.
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId rs = c.pool[rng.uniform_below(c.pool.size())];
    if (!c.nl.is_comb_gate(rs) && !c.nl.is_dff(rs)) continue;
    constexpr int kDepth = 5;
    const UnrolledCone cone(c.nl, rs, kDepth, 0);
    const auto truth = brute_fanin(c.nl, rs, kDepth);
    const auto fanout0 = brute_comb_fanout(c.nl, rs);
    // Every brute-force member (gate or DFF) must be in the cone and
    // vice versa, frame by frame.
    for (const auto& [frame, id] : truth) {
      if (!c.nl.is_comb_gate(id) && !c.nl.is_dff(id)) continue;
      EXPECT_TRUE(cone.contains(frame, id))
          << "seed " << GetParam() << " rs=" << rs << " missing frame "
          << frame << " node " << id;
    }
    for (int frame = 0; frame <= kDepth; ++frame) {
      const ConeFrame& f = cone.frame(frame);
      for (const NodeId g : f.gates) {
        EXPECT_TRUE(truth.count({frame, g}) ||
                    (frame == 0 && fanout0.count(g)))
            << "seed " << GetParam() << " extra gate " << g << " in frame "
            << frame;
      }
      for (const NodeId r : f.registers) {
        EXPECT_TRUE(truth.count({frame, r}))
            << "seed " << GetParam() << " extra register " << r
            << " in frame " << frame;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConesProperty,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108));

}  // namespace
}  // namespace fav::netlist
