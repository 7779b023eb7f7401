#include "faultsim/glitch.h"

#include <algorithm>

namespace fav::faultsim {

using netlist::NodeId;

const GlitchStrings& glitch_strings(TechniqueKind kind) {
  static const GlitchStrings kClock = {
      "no glitch depths", "glitch depth must be in (0, 1)",
      "depth must be in (0, 1)", "glitch", "glitch-uniform",
      "glitch-adaptive"};
  static const GlitchStrings kVoltage = {
      "no droop levels", "droop must be in (0, 1)", "droop must be in (0, 1)",
      "droop", "voltage-uniform", "voltage-adaptive"};
  FAV_ENSURE_MSG(kind == TechniqueKind::kClockGlitch ||
                     kind == TechniqueKind::kVoltageGlitch,
                 "'" << technique_kind_name(kind)
                     << "' is not a timing-glitch technique");
  return kind == TechniqueKind::kClockGlitch ? kClock : kVoltage;
}

GlitchSimulator::GlitchSimulator(const netlist::Netlist& nl,
                                 const TimingModel& timing_model)
    : nl_(&nl), timing_(nl, timing_model) {
  for (const NodeId dff : nl.dffs()) {
    FAV_ENSURE_MSG(!nl.node(dff).fanins.empty(),
                  "DFF '" << nl.node(dff).name << "' has no D input");
    critical_d_ =
        std::max(critical_d_, timing_.arrival(nl.node(dff).fanins[0]));
  }
}

std::vector<NodeId> GlitchSimulator::flipped_dffs(
    const netlist::LogicSimulator& sim, TechniqueKind kind,
    double level) const {
  glitch_strings(kind);  // rejects a non-glitch kind
  const bool clock = kind == TechniqueKind::kClockGlitch;
  const double period = timing_.clock_period();
  const double glitch_period = period * level;
  if (clock) {
    FAV_ENSURE_MSG(glitch_period > 0.0, "glitch period must be positive");
  } else {
    FAV_ENSURE_MSG(level > 0.0 && level < 1.0, "droop must be in (0, 1)");
  }
  const double setup = timing_.model().setup_time;
  std::vector<NodeId> flips;
  for (const NodeId dff : nl_->dffs()) {
    const NodeId d = nl_->node(dff).fanins[0];
    const double arrival = timing_.arrival(d);
    const bool met = clock ? arrival + setup <= glitch_period
                           : arrival / (1.0 - level) + setup <= period;
    if (met) continue;
    // Too slow: the register holds its old value. It is an *error* only if
    // the new D actually differs.
    if (sim.value(d) != sim.value(dff)) flips.push_back(dff);
  }
  std::sort(flips.begin(), flips.end());
  return flips;
}

GlitchAttackModel::GlitchAttackModel(TechniqueKind kind) : kind(kind) {
  if (kind == TechniqueKind::kClockGlitch) {
    levels = {0.55, 0.65, 0.75, 0.85};
  } else if (kind == TechniqueKind::kVoltageGlitch) {
    levels = {0.15, 0.25, 0.35, 0.45};
  }
}

void GlitchAttackModel::check_valid() const {
  const GlitchStrings& strings = glitch_strings(kind);
  FAV_ENSURE_MSG(t_min >= 0 && t_max >= t_min, "bad timing range");
  FAV_ENSURE_MSG(!levels.empty(), strings.no_levels);
  for (const double level : levels) {
    FAV_ENSURE_MSG(level > 0.0 && level < 1.0, strings.level_range);
  }
}

void GlitchAttackModel::check_valid(std::uint64_t target_cycle) const {
  check_valid();
  FAV_ENSURE_MSG(static_cast<std::uint64_t>(t_max) <= target_cycle,
                 glitch_strings(kind).timing
                     << " timing range [" << t_min << ", " << t_max
                     << "] exceeds the target cycle " << target_cycle);
}

}  // namespace fav::faultsim
