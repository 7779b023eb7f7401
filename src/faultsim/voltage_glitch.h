// Voltage-glitch fault technique (paper Section 3.2 lists clock/voltage
// modification alongside radiation; this is the framework's third concrete
// technique model).
//
// A supply droop slows every gate for one cycle: propagation delays scale by
// 1/(1 - droop), so arrival times — maxima over path delay sums — scale by
// exactly the same factor. A register whose scaled D arrival no longer meets
// setup against the *nominal* clock period holds its previous value; the
// captured error is the difference between the correct next value and the
// held one. Like the clock glitch, the outcome is a deterministic function
// of (cycle, droop), so the fault space is a finite grid and exact SSF
// enumeration is feasible (technique.h enumerate()).
#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/timing.h"
#include "netlist/logicsim.h"

namespace fav::faultsim {

class VoltageGlitchSimulator {
 public:
  explicit VoltageGlitchSimulator(const netlist::Netlist& nl,
                                  const TimingModel& timing_model = {});

  const TimingAnalysis& timing() const { return timing_; }

  /// DFFs whose captured value is wrong when every gate delay is scaled by
  /// 1/(1-droop) for the current cycle. `sim` must hold the settled values
  /// of the glitched cycle: a register with arrival(D)/(1-droop) + setup >
  /// clock_period holds its old Q, so it flips iff its new D differs from Q.
  /// Results are sorted by node id. The single-sample reference the lane
  /// kernel (VoltageGlitchTechnique::flip_set) is tested against.
  std::vector<netlist::NodeId> flipped_dffs(const netlist::LogicSimulator& sim,
                                            double droop) const;

  /// The slowest D-input arrival at nominal supply; droops below
  /// 1 - critical_d_arrival() / (clock_period - setup) never flip anything.
  double critical_d_arrival() const { return critical_d_; }

 private:
  const netlist::Netlist* nl_;
  TimingAnalysis timing_;
  double critical_d_ = 0;
};

/// Holistic model for the voltage-glitch technique: timing distance t (as
/// for radiation) plus the droop severity — the fractional supply drop that
/// scales every gate delay by 1/(1-droop). Both uniform (temporal accuracy /
/// regulator variation).
struct VoltageGlitchAttackModel {
  int t_min = 0;
  int t_max = 49;
  std::vector<double> droops = {0.15, 0.25, 0.35, 0.45};

  int t_count() const { return t_max - t_min + 1; }

  void check_valid() const {
    FAV_ENSURE_MSG(t_min >= 0 && t_max >= t_min, "bad timing range");
    FAV_ENSURE_MSG(!droops.empty(), "no droop levels");
    for (const double d : droops) {
      FAV_ENSURE_MSG(d > 0.0 && d < 1.0, "droop must be in (0, 1)");
    }
  }

  /// Validation against a concrete benchmark; see
  /// ClockGlitchAttackModel::check_valid(target_cycle) for the rationale.
  void check_valid(std::uint64_t target_cycle) const {
    check_valid();
    FAV_ENSURE_MSG(static_cast<std::uint64_t>(t_max) <= target_cycle,
                   "droop timing range [" << t_min << ", " << t_max
                                          << "] exceeds the target cycle "
                                          << target_cycle);
  }

  /// Joint pmf of (t, droop) under the uniform holistic model.
  double f_pmf() const {
    return 1.0 / (static_cast<double>(t_count()) *
                  static_cast<double>(droops.size()));
  }
};

}  // namespace fav::faultsim
