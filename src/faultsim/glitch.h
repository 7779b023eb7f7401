// Timing-glitch fault techniques: clock glitch and voltage glitch (paper
// Section 3.2 lists clock/voltage modification alongside radiation).
//
// Both are timing-violation faults over the same parameter shape — a timing
// distance t times a severity level — and differ only in how the level
// makes a register miss setup for one cycle:
//  * clock glitch: the cycle is shortened to `depth` x the nominal period,
//    so a register misses when arrival(D) + setup > nominal * depth;
//  * voltage glitch: a supply droop scales every gate delay (and therefore
//    every arrival, a maximum over path delay sums) by 1/(1 - droop), so a
//    register misses when arrival(D) / (1 - droop) + setup > nominal.
// A register that misses setup holds its previous value; the captured error
// is the difference between the correct next value and the held one. The
// outcome is a deterministic function of (cycle, level): no spatial
// parameters, so the fault space is a finite grid and exact SSF enumeration
// is feasible (technique.h GlitchTechnique::enumerate).
#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/attack_model.h"
#include "faultsim/timing.h"
#include "netlist/logicsim.h"

namespace fav::faultsim {

/// The per-kind strings of the glitch techniques. Every one is user-visible
/// (check messages, run reports, journal fingerprints), so the bytes are
/// stable.
struct GlitchStrings {
  const char* no_levels;     // model validation: empty level grid
  const char* level_range;   // model validation: level outside (0, 1)
  const char* sample_range;  // check_sample: level outside (0, 1)
  const char* timing;        // model validation: "<timing> timing range ..."
  const char* uniform;       // uniform sampler name
  const char* adaptive;      // adaptive sampler name
};

/// The string table of a glitch kind; throws for radiation.
const GlitchStrings& glitch_strings(TechniqueKind kind);

/// Static timing of a netlist plus the single-sample glitch reference.
class GlitchSimulator {
 public:
  explicit GlitchSimulator(const netlist::Netlist& nl,
                           const TimingModel& timing_model = {});

  const TimingAnalysis& timing() const { return timing_; }

  /// DFFs whose captured value is wrong when the current cycle is glitched
  /// by `kind` at severity `level` (clock: the glitched period as a fraction
  /// of the nominal one; voltage: the droop). `sim` must hold the settled
  /// values of the glitched cycle (see soc::GateLevelMachine::settle_inputs):
  /// a register that misses setup holds its old Q, so it flips iff its new D
  /// differs from Q. Results are sorted by node id. The single-sample
  /// reference the lane kernel (GlitchTechnique::flip_set) is tested
  /// against; its timing tests are written out here independently.
  std::vector<netlist::NodeId> flipped_dffs(const netlist::LogicSimulator& sim,
                                            TechniqueKind kind,
                                            double level) const;

  /// The slowest D-input arrival at nominal supply; clock glitches above
  /// (critical_d_arrival() + setup) / period and droops below
  /// 1 - critical_d_arrival() / (period - setup) never flip anything.
  double critical_d_arrival() const { return critical_d_; }

 private:
  const netlist::Netlist* nl_;
  TimingAnalysis timing_;
  double critical_d_ = 0;
};

/// Holistic model of a timing glitch: timing distance t (as for radiation)
/// plus the severity level of the glitch kind — clock glitch depth or
/// voltage droop, carried in FaultSample::depth. Both uniform (temporal
/// accuracy / supply or regulator variation).
struct GlitchAttackModel {
  /// A model of `kind` over its default level grid.
  explicit GlitchAttackModel(TechniqueKind kind = TechniqueKind::kClockGlitch);

  TechniqueKind kind;
  int t_min = 0;
  int t_max = 49;
  std::vector<double> levels;

  int t_count() const { return t_max - t_min + 1; }

  void check_valid() const;

  /// Validation against a concrete benchmark: a timing distance beyond the
  /// target cycle Tt lands before the program starts, so there is no cycle
  /// to glitch. Such samples used to be silently recorded as masked with
  /// te = 0, quietly diluting the estimate; samplers reject the model up
  /// front instead, and callers binding an exhaustive space check it the
  /// same way.
  void check_valid(std::uint64_t target_cycle) const;

  /// Joint pmf of (t, level) under the uniform holistic model.
  double f_pmf() const {
    return 1.0 / (static_cast<double>(t_count()) *
                  static_cast<double>(levels.size()));
  }
};

}  // namespace fav::faultsim
