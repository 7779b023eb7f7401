#include "faultsim/technique.h"

namespace fav::faultsim {

void AttackTechnique::enumerate(std::uint64_t begin, std::uint64_t end,
                                std::vector<FaultSample>& out) const {
  (void)begin;
  (void)end;
  (void)out;
  FAV_ENSURE_MSG(false, "technique '" << name()
                                      << "' has no bound fault space to "
                                      << "enumerate (call bind_space first)");
}

namespace {

// Shared by every enumerate(): the [begin, end) range must sit inside the
// bound space.
void check_enumeration_range(std::uint64_t begin, std::uint64_t end,
                             std::uint64_t space) {
  FAV_ENSURE_MSG(begin <= end, "bad enumeration range");
  FAV_ENSURE_MSG(end <= space, "enumeration range [" << begin << ", " << end
                                                     << ") exceeds the fault "
                                                     << "space of " << space
                                                     << " points");
}

}  // namespace

void AttackTechnique::check_common(const FaultSample& sample) const {
  FAV_ENSURE_MSG(sample.technique == kind(),
                 "sample carries '" << technique_kind_name(sample.technique)
                                    << "' parameters but the engine evaluates "
                                    << "the '" << name() << "' technique");
  FAV_ENSURE_MSG(sample.t >= 0, "negative timing distance not supported");
  FAV_ENSURE_MSG(sample.impact_cycles >= 1, "impact_cycles must be >= 1");
}

RadiationTechnique::RadiationTechnique(const layout::Placement& placement,
                                       const InjectionSimulator& injector)
    : placement_(&placement), injector_(&injector) {}

std::string RadiationTechnique::parameter_space() const {
  return "p = [center, radius, strike_frac] (radiated spot)";
}

void RadiationTechnique::check_sample(const FaultSample& sample) const {
  check_common(sample);
  FAV_ENSURE_MSG(sample.radius >= 0.0, "negative spot radius");
  FAV_ENSURE_MSG(sample.strike_frac >= 0.0 && sample.strike_frac < 1.0,
                 "strike_frac must be in [0, 1)");
}

void RadiationTechnique::flip_set(
    const netlist::WordSimulator& sim, TechniqueScratch& scratch,
    std::span<const FaultSample> samples,
    std::vector<std::vector<netlist::NodeId>>& flipped) const {
  const std::size_t lanes = samples.size();
  if (scratch.struck_lanes.size() < lanes) scratch.struck_lanes.resize(lanes);
  scratch.strike_times.resize(lanes);
  const double period = injector_->timing().clock_period();
  for (std::size_t l = 0; l < lanes; ++l) {
    placement_->nodes_within(samples[l].center, samples[l].radius,
                             scratch.struck_lanes[l]);
    scratch.strike_times[l] = samples[l].strike_frac * period;
  }
  injector_->inject_batch(
      sim, std::span<const std::vector<netlist::NodeId>>(
               scratch.struck_lanes.data(), lanes),
      scratch.strike_times, scratch.batch, flipped);
}

void RadiationTechnique::bind_space(const AttackModel& model) {
  model.check_valid();
  space_ = model;
  if (space_.strike_fracs.empty()) space_.strike_fracs = {0.0};
  has_space_ = true;
}

std::uint64_t RadiationTechnique::space_size() const {
  if (!has_space_) return 0;
  return static_cast<std::uint64_t>(space_.t_count()) *
         space_.candidate_centers.size() * space_.radii.size() *
         space_.strike_fracs.size();
}

void RadiationTechnique::enumerate(std::uint64_t begin, std::uint64_t end,
                                   std::vector<FaultSample>& out) const {
  check_enumeration_range(begin, end, space_size());
  out.clear();
  out.reserve(end - begin);
  // t-major, then center, radius, strike — the index decomposition below is
  // the stable enumeration contract; changing it invalidates journals.
  const std::uint64_t strikes = space_.strike_fracs.size();
  const std::uint64_t per_radius = strikes;
  const std::uint64_t per_center = space_.radii.size() * per_radius;
  const std::uint64_t per_t = space_.candidate_centers.size() * per_center;
  for (std::uint64_t i = begin; i < end; ++i) {
    FaultSample s;
    s.technique = TechniqueKind::kRadiation;
    s.t = space_.t_min + static_cast<int>(i / per_t);
    const std::uint64_t rem = i % per_t;
    s.center = space_.candidate_centers[rem / per_center];
    const std::uint64_t rem2 = rem % per_center;
    s.radius = space_.radii[rem2 / per_radius];
    s.strike_frac = space_.strike_fracs[rem2 % per_radius];
    s.impact_cycles = space_.impact_cycles;
    s.weight = 1.0;
    out.push_back(s);
  }
}

ClockGlitchTechnique::ClockGlitchTechnique(const ClockGlitchSimulator& glitch)
    : glitch_(&glitch) {}

std::string ClockGlitchTechnique::parameter_space() const {
  return "p = [depth] (glitched-period fraction)";
}

void ClockGlitchTechnique::check_sample(const FaultSample& sample) const {
  check_common(sample);
  FAV_ENSURE_MSG(sample.depth > 0.0 && sample.depth < 1.0,
                 "depth must be in (0, 1)");
}

void ClockGlitchTechnique::flip_set(
    const netlist::WordSimulator& sim, TechniqueScratch& scratch,
    std::span<const FaultSample> samples,
    std::vector<std::vector<netlist::NodeId>>& flipped) const {
  (void)scratch;
  const std::size_t lanes = samples.size();
  FAV_ENSURE_MSG(lanes >= 1 && lanes <= 64, "lane count must be in [1, 64]");
  flipped.resize(lanes);
  for (auto& f : flipped) f.clear();
  const auto& timing = glitch_->timing();
  const double nominal = timing.clock_period();
  const double setup = timing.model().setup_time;
  for (std::size_t l = 0; l < lanes; ++l) {
    FAV_ENSURE_MSG(nominal * samples[l].depth > 0.0,
                   "glitch period must be positive");
  }
  const auto& nl = sim.netlist();
  for (const netlist::NodeId dff : nl.dffs()) {
    const netlist::NodeId d = nl.node(dff).fanins[0];
    // A register flips only where its new D differs from the held Q; skip
    // the per-lane timing test entirely when no lane sees a difference.
    const std::uint64_t diff = sim.word(d) ^ sim.word(dff);
    if (diff == 0) continue;
    const double needed = timing.arrival(d) + setup;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (((diff >> l) & 1u) == 0) continue;
      if (needed > nominal * samples[l].depth) flipped[l].push_back(dff);
    }
  }
  // dffs() is ascending, so each lane's list is already sorted and unique.
}

void ClockGlitchTechnique::bind_space(const ClockGlitchAttackModel& model) {
  model.check_valid();
  space_ = model;
  has_space_ = true;
}

std::uint64_t ClockGlitchTechnique::space_size() const {
  if (!has_space_) return 0;
  return static_cast<std::uint64_t>(space_.t_count()) * space_.depths.size();
}

void ClockGlitchTechnique::enumerate(std::uint64_t begin, std::uint64_t end,
                                     std::vector<FaultSample>& out) const {
  check_enumeration_range(begin, end, space_size());
  out.clear();
  out.reserve(end - begin);
  const std::uint64_t depths = space_.depths.size();
  for (std::uint64_t i = begin; i < end; ++i) {
    FaultSample s;
    s.technique = TechniqueKind::kClockGlitch;
    s.t = space_.t_min + static_cast<int>(i / depths);
    s.depth = space_.depths[i % depths];
    s.weight = 1.0;
    out.push_back(s);
  }
}

VoltageGlitchTechnique::VoltageGlitchTechnique(
    const VoltageGlitchSimulator& droop)
    : droop_(&droop) {}

std::string VoltageGlitchTechnique::parameter_space() const {
  return "p = [droop] (supply-droop severity)";
}

void VoltageGlitchTechnique::check_sample(const FaultSample& sample) const {
  check_common(sample);
  FAV_ENSURE_MSG(sample.depth > 0.0 && sample.depth < 1.0,
                 "droop must be in (0, 1)");
}

void VoltageGlitchTechnique::flip_set(
    const netlist::WordSimulator& sim, TechniqueScratch& scratch,
    std::span<const FaultSample> samples,
    std::vector<std::vector<netlist::NodeId>>& flipped) const {
  (void)scratch;
  const std::size_t lanes = samples.size();
  FAV_ENSURE_MSG(lanes >= 1 && lanes <= 64, "lane count must be in [1, 64]");
  flipped.resize(lanes);
  for (auto& f : flipped) f.clear();
  const auto& timing = droop_->timing();
  const double nominal = timing.clock_period();
  const double setup = timing.model().setup_time;
  for (std::size_t l = 0; l < lanes; ++l) {
    FAV_ENSURE_MSG(samples[l].depth > 0.0 && samples[l].depth < 1.0,
                   "droop must be in (0, 1)");
  }
  const auto& nl = sim.netlist();
  for (const netlist::NodeId dff : nl.dffs()) {
    const netlist::NodeId d = nl.node(dff).fanins[0];
    // A register flips only where its new D differs from the held Q; skip
    // the per-lane timing test entirely when no lane sees a difference.
    const std::uint64_t diff = sim.word(d) ^ sim.word(dff);
    if (diff == 0) continue;
    const double arrival = timing.arrival(d);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (((diff >> l) & 1u) == 0) continue;
      if (arrival / (1.0 - samples[l].depth) + setup > nominal) {
        flipped[l].push_back(dff);
      }
    }
  }
  // dffs() is ascending, so each lane's list is already sorted and unique.
}

void VoltageGlitchTechnique::bind_space(const VoltageGlitchAttackModel& model) {
  model.check_valid();
  space_ = model;
  has_space_ = true;
}

std::uint64_t VoltageGlitchTechnique::space_size() const {
  if (!has_space_) return 0;
  return static_cast<std::uint64_t>(space_.t_count()) * space_.droops.size();
}

void VoltageGlitchTechnique::enumerate(std::uint64_t begin, std::uint64_t end,
                                       std::vector<FaultSample>& out) const {
  check_enumeration_range(begin, end, space_size());
  out.clear();
  out.reserve(end - begin);
  const std::uint64_t droops = space_.droops.size();
  for (std::uint64_t i = begin; i < end; ++i) {
    FaultSample s;
    s.technique = TechniqueKind::kVoltageGlitch;
    s.t = space_.t_min + static_cast<int>(i / droops);
    s.depth = space_.droops[i % droops];
    s.weight = 1.0;
    out.push_back(s);
  }
}

}  // namespace fav::faultsim
