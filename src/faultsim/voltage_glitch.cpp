#include "faultsim/voltage_glitch.h"

#include <algorithm>

namespace fav::faultsim {

using netlist::NodeId;

VoltageGlitchSimulator::VoltageGlitchSimulator(const netlist::Netlist& nl,
                                               const TimingModel& timing_model)
    : nl_(&nl), timing_(nl, timing_model) {
  for (const NodeId dff : nl.dffs()) {
    FAV_ENSURE_MSG(!nl.node(dff).fanins.empty(),
                  "DFF '" << nl.node(dff).name << "' has no D input");
    critical_d_ =
        std::max(critical_d_, timing_.arrival(nl.node(dff).fanins[0]));
  }
}

std::vector<NodeId> VoltageGlitchSimulator::flipped_dffs(
    const netlist::LogicSimulator& sim, double droop) const {
  FAV_ENSURE_MSG(droop > 0.0 && droop < 1.0, "droop must be in (0, 1)");
  const double period = timing_.clock_period();
  const double setup = timing_.model().setup_time;
  std::vector<NodeId> flips;
  for (const NodeId dff : nl_->dffs()) {
    const NodeId d = nl_->node(dff).fanins[0];
    if (timing_.arrival(d) / (1.0 - droop) + setup <= period) continue;
    // Too slow under droop: the register holds its old value. It is an
    // *error* only if the new D actually differs.
    if (sim.value(d) != sim.value(dff)) flips.push_back(dff);
  }
  std::sort(flips.begin(), flips.end());
  return flips;
}

}  // namespace fav::faultsim
