// Gate-level fault-injection-cycle simulator (paper Section 5.3).
//
// Given the settled logic values of the injection cycle and the set of cells
// inside the radiated spot, this simulator:
//  1. seeds voltage transients at the outputs of the struck combinational
//     gates (struck DFF cells upset directly, like an SEU),
//  2. propagates the transients to the registers in topological order,
//     applying logical masking (controlling side inputs) and electrical
//     masking (per-stage pulse-width attenuation), and
//  3. applies latching-window masking: a pulse reaching a D input flips the
//     captured bit only if it overlaps the setup/hold window of the edge.
// The output is the set of DFFs whose latched value differs from the golden
// run — the cross-level hand-off back to RTL level (Fig. 5).
//
// The simulator is generic over any netlist; the SoC binding (DFF -> flat
// register-map bit) happens in the Monte Carlo layer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faultsim/timing.h"
#include "netlist/logicsim.h"

namespace fav::faultsim {

struct TransientParams {
  /// Pulse width induced at a struck gate's output (same units as delays).
  double initial_width = 3.0;
  /// Bound on tracked pulses per net; overlapping pulses are merged first,
  /// and the widest survivors are kept (protects against pathological fanout
  /// reconvergence blow-up).
  int max_pulses_per_node = 4;
};

/// A voltage transient on a net: [start, start + width) within the cycle.
struct Pulse {
  double start = 0;
  double width = 0;
};

/// Reusable per-thread buffers for inject_batch(). The per-node pulse lists
/// keep their capacity across calls; only the lists touched by the previous
/// call are cleared, so a mostly-masked campaign allocates nothing in steady
/// state. Pulse lists are shared across lanes: each entry is tagged with its
/// lane, and same-lane entries keep the relative order a dedicated per-lane
/// list would have, which is what makes the batch merge/cap policy
/// bit-identical to the single-sample reference inject(). The frontier is a
/// bitmap over topological positions: the gates still to visit because a
/// fanin carries a pulse.
class BatchInjectionScratch {
 public:
  BatchInjectionScratch() = default;

 private:
  friend class InjectionSimulator;
  struct LanePulse {
    Pulse pulse;
    int lane = 0;
  };
  void prepare(std::size_t node_count, std::size_t gate_count);

  std::vector<std::vector<LanePulse>> pulses_;
  std::vector<netlist::NodeId> touched_;  // nodes with non-empty pulse lists
  std::vector<std::uint64_t> frontier_;
};

struct InjectionResult {
  /// DFFs whose latched value flipped at the cycle edge (sorted, unique).
  std::vector<netlist::NodeId> flipped_dffs;
  std::size_t struck_gates = 0;   // combinational cells in the spot
  std::size_t struck_dffs = 0;    // sequential cells in the spot
  std::size_t latched_flips = 0;  // flips caused by latched transients
  std::size_t direct_flips = 0;   // flips caused by direct DFF upsets

  bool masked() const { return flipped_dffs.empty(); }
};

class InjectionSimulator {
 public:
  explicit InjectionSimulator(const netlist::Netlist& nl,
                              const TimingModel& timing_model = {},
                              const TransientParams& params = {});

  /// Single-sample reference for inject_batch(), kept for tests and the
  /// error-pattern study (bench_fig7_error_patterns): it also counts how
  /// each flip arose. `sim` must hold the injection cycle's settled
  /// combinational values (see soc::GateLevelMachine::settle_inputs).
  /// `struck` lists the cells inside the radiated region (from
  /// layout::Placement::nodes_within). `strike_time` is the radiation hit
  /// instant within the cycle, in
  /// [0, clock_period): it models the intra-cycle technique-parameter
  /// variation — a struck gate's transient begins at
  /// max(strike_time, arrival(gate)) because glitches that fire before the
  /// gate recomputes are overwritten. Struck DFF cells upset unconditionally.
  InjectionResult inject(const netlist::LogicSimulator& sim,
                         std::span<const netlist::NodeId> struck,
                         double strike_time = 0.0) const;

  /// Bit-parallel injection: one topological sweep computes the flip sets of
  /// up to 64 independent samples. Lane `l` uses struck set `struck[l]` and
  /// strike time `strike_times[l]` against `sim`'s lane-`l` values (all
  /// lanes typically broadcast from one settled scalar state). On return
  /// `flipped[l]` holds lane l's flipped DFFs (sorted, unique) — bitwise
  /// identical to what the reference inject() produces for that lane's
  /// inputs. This is the radiation technique's flip-set kernel.
  ///
  /// The sweep is event-driven: it visits, in topological order, only the
  /// gates with a fanin that carries a pulse, and latch-checks only the DFFs
  /// whose D net carries one. Every other gate would add nothing, so every
  /// add_pulse_lane call — and with it every pulse list — is the one a walk
  /// over the whole order makes.
  void inject_batch(const netlist::WordSimulator& sim,
                    std::span<const std::vector<netlist::NodeId>> struck,
                    std::span<const double> strike_times,
                    BatchInjectionScratch& scratch,
                    std::vector<std::vector<netlist::NodeId>>& flipped) const;

  const TimingAnalysis& timing() const { return timing_; }
  const TransientParams& params() const { return params_; }

  /// Canonical pulse-list insertion of inject() (inject_batch() applies the
  /// same policy per lane, see add_pulse_lane):
  /// transitively merges `p` with every overlapping entry (a union can grow
  /// into a neighbour, so merging rescans until stable), then appends the
  /// result, evicting the narrowest entry when the list is at
  /// max_pulses_per_node and the new pulse is wider. Exposed for tests.
  void add_pulse(std::vector<Pulse>& list, Pulse p) const;

 private:
  /// True if a wrong value on `pin` of `node` reaches the output, given the
  /// golden values of the other pins.
  bool sensitized(const netlist::LogicSimulator& sim, netlist::NodeId node,
                  int pin) const;

  /// Word-wise sensitization: bit l of the result says whether lane l's
  /// side-input values let a glitch on `pin` of `node` through.
  std::uint64_t sensitized_mask(const netlist::WordSimulator& sim,
                                netlist::NodeId node, int pin) const;

  /// Per-lane add_pulse over the shared lane-tagged list; same merge, cap,
  /// and eviction policy as add_pulse restricted to entries of `lane`.
  void add_pulse_lane(std::vector<BatchInjectionScratch::LanePulse>& list,
                      Pulse p, int lane) const;

  const netlist::Netlist* nl_;
  TimingAnalysis timing_;
  TransientParams params_;
  // Each net's consumers, split for the event-driven sweep (CSR, indexed by
  // node id): the topological positions of its combinational consumers, and
  // the DFFs it drives.
  std::vector<std::uint32_t> gate_fanout_begin_;
  std::vector<std::uint32_t> gate_fanout_pos_;
  std::vector<std::uint32_t> dff_fanout_begin_;
  std::vector<netlist::NodeId> dff_fanout_;
};

}  // namespace fav::faultsim
