// Clock-glitch fault technique (paper Section 3.2 lists clock/voltage
// modification alongside radiation; this is the framework's second concrete
// technique model).
//
// A glitch shortens one clock cycle to `glitch_period`. Registers whose D
// input has not settled by (glitch_period - setup) miss the new value and
// hold their previous state; the captured error is the difference between
// the correct next value and the held one. Unlike radiation, the outcome is
// a deterministic function of (cycle, depth): the per-cycle flip set needs
// no spatial parameters, which also makes exact SSF enumeration feasible
// (see mc::ClockGlitchEvaluator).
#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/timing.h"
#include "netlist/logicsim.h"

namespace fav::faultsim {

class ClockGlitchSimulator {
 public:
  explicit ClockGlitchSimulator(const netlist::Netlist& nl,
                                const TimingModel& timing_model = {});

  const TimingAnalysis& timing() const { return timing_; }

  /// DFFs whose captured value is wrong when the current cycle's period is
  /// shortened to `glitch_period`. `sim` must hold the settled values of the
  /// glitched cycle (see soc::GateLevelMachine::settle_inputs): a register
  /// with arrival(D) + setup > glitch_period holds its old Q, so it flips
  /// iff its new D differs from Q. Results are sorted by node id. The
  /// single-sample reference the lane kernel
  /// (ClockGlitchTechnique::flip_set) is tested against.
  std::vector<netlist::NodeId> flipped_dffs(const netlist::LogicSimulator& sim,
                                            double glitch_period) const;

  /// The slowest D-input arrival; glitch periods above
  /// critical_d_arrival() + setup never flip anything.
  double critical_d_arrival() const { return critical_d_; }

 private:
  const netlist::Netlist* nl_;
  TimingAnalysis timing_;
  double critical_d_ = 0;
};

/// Holistic model for the glitch technique: timing distance t (as for
/// radiation) plus the glitch depth — the shortened period as a fraction of
/// the nominal period. Both uniform (temporal accuracy / supply jitter).
struct ClockGlitchAttackModel {
  int t_min = 0;
  int t_max = 49;
  std::vector<double> depths = {0.55, 0.65, 0.75, 0.85};

  int t_count() const { return t_max - t_min + 1; }

  void check_valid() const {
    FAV_ENSURE_MSG(t_min >= 0 && t_max >= t_min, "bad timing range");
    FAV_ENSURE_MSG(!depths.empty(), "no glitch depths");
    for (const double d : depths) {
      FAV_ENSURE_MSG(d > 0.0 && d < 1.0, "glitch depth must be in (0, 1)");
    }
  }

  /// Validation against a concrete benchmark: a timing distance beyond the
  /// target cycle Tt lands before the program starts, so there is no cycle
  /// to glitch. Such samples used to be silently recorded as masked with
  /// te = 0, quietly diluting the estimate; samplers and the enumeration
  /// driver reject the model up front instead.
  void check_valid(std::uint64_t target_cycle) const {
    check_valid();
    FAV_ENSURE_MSG(static_cast<std::uint64_t>(t_max) <= target_cycle,
                   "glitch timing range [" << t_min << ", " << t_max
                                           << "] exceeds the target cycle "
                                           << target_cycle);
  }

  /// Joint pmf of (t, depth) under the uniform holistic model.
  double f_pmf() const {
    return 1.0 / (static_cast<double>(t_count()) *
                  static_cast<double>(depths.size()));
  }
};

}  // namespace fav::faultsim
