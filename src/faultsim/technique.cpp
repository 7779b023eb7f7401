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

GlitchTechnique::GlitchTechnique(const GlitchSimulator& simulator,
                                 TechniqueKind kind)
    : simulator_(&simulator), kind_(kind), space_(kind) {
  glitch_strings(kind);  // rejects a non-glitch kind
}

void GlitchTechnique::check_sample(const FaultSample& sample) const {
  check_common(sample);
  FAV_ENSURE_MSG(sample.depth > 0.0 && sample.depth < 1.0,
                 glitch_strings(kind_).sample_range);
}

void GlitchTechnique::flip_set(
    const netlist::WordSimulator& sim, TechniqueScratch& scratch,
    std::span<const FaultSample> samples,
    std::vector<std::vector<netlist::NodeId>>& flipped) const {
  (void)scratch;
  const std::size_t lanes = samples.size();
  FAV_ENSURE_MSG(lanes >= 1 && lanes <= 64, "lane count must be in [1, 64]");
  flipped.resize(lanes);
  for (auto& f : flipped) f.clear();
  for (const FaultSample& s : samples) check_sample(s);
  const auto& timing = simulator_->timing();
  const double nominal = timing.clock_period();
  const double setup = timing.model().setup_time;
  const bool clock = kind_ == TechniqueKind::kClockGlitch;
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
      // The setup-miss predicate of each kind (see faultsim/glitch.h).
      const double level = samples[l].depth;
      const bool misses = clock ? arrival + setup > nominal * level
                                : arrival / (1.0 - level) + setup > nominal;
      if (misses) flipped[l].push_back(dff);
    }
  }
  // dffs() is ascending, so each lane's list is already sorted and unique.
}

void GlitchTechnique::bind_space(const GlitchAttackModel& model) {
  model.check_valid();
  FAV_ENSURE_MSG(model.kind == kind_,
                 "a '" << technique_kind_name(model.kind)
                       << "' model cannot bind the '" << name()
                       << "' fault space");
  space_ = model;
  has_space_ = true;
}

std::uint64_t GlitchTechnique::space_size() const {
  if (!has_space_) return 0;
  return static_cast<std::uint64_t>(space_.t_count()) * space_.levels.size();
}

void GlitchTechnique::enumerate(std::uint64_t begin, std::uint64_t end,
                                std::vector<FaultSample>& out) const {
  check_enumeration_range(begin, end, space_size());
  out.clear();
  out.reserve(end - begin);
  const std::uint64_t levels = space_.levels.size();
  for (std::uint64_t i = begin; i < end; ++i) {
    FaultSample s;
    s.technique = kind_;
    s.t = space_.t_min + static_cast<int>(i / levels);
    s.depth = space_.levels[i % levels];
    s.weight = 1.0;
    out.push_back(s);
  }
}

}  // namespace fav::faultsim
