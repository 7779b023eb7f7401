// Technique-generic attack abstraction (paper Section 3.2).
//
// The holistic fault model is parameterized by the concrete fault-injection
// technique: the cross-level evaluation flow (restore -> settle the injection
// cycle at gate level -> latch the errors -> classify at RTL level) is
// identical for every technique, and only the step that turns a sample's
// technique parameters into latched register flips differs. AttackTechnique
// is that step, with one kernel per technique: given the settled gate-level
// values of the injection cycle in every lane of a 64-bit word and one
// FaultSample per lane, it produces each lane's set of DFFs whose latched
// value flipped. A sample evaluated alone is a batch of one lane; there is
// no separate scalar flow. Everything around it — te-grouping, worker pool,
// scratch reuse, budgets, isolation, journaled resume, metrics — lives once
// in mc::SsfEvaluator and is inherited by every technique (the SYNFI-style
// "one analysis core, many fault models" layering).
//
// Implementations are immutable after construction and shared read-only
// across worker threads; all per-sample mutable state lives in the
// TechniqueScratch the caller passes in (one per thread).
//
// The flip set is expressed in netlist DFF node ids: like InjectionSimulator,
// techniques are generic over any netlist, and the SoC binding (DFF -> flat
// register-map bit) stays in the Monte Carlo layer.
#pragma once

#include <span>
#include <vector>

#include "faultsim/attack_model.h"
#include "faultsim/glitch.h"
#include "faultsim/injection.h"
#include "layout/placement.h"
#include "netlist/logicsim.h"

namespace fav::faultsim {

/// Reusable per-thread buffers for flip-set computation (spatial query
/// results, pulse lists). Not thread-safe: one scratch per worker thread.
struct TechniqueScratch {
  BatchInjectionScratch batch;
  std::vector<std::vector<netlist::NodeId>> struck_lanes;
  std::vector<double> strike_times;
};

class AttackTechnique {
 public:
  virtual ~AttackTechnique() = default;

  virtual TechniqueKind kind() const = 0;
  const char* name() const { return technique_kind_name(kind()); }

  /// Validates the sample against this technique's parameter space. Throws
  /// EnsureError on a foreign technique tag or out-of-range parameters; the
  /// campaign isolation layer turns that into a kFailed record.
  virtual void check_sample(const FaultSample& sample) const = 0;

  /// DFFs whose latched value flips during the injection cycle, for 1..64
  /// samples at once: lane l evaluates `samples[l]` against lane l of
  /// `sim`, which holds the cycle's settled values (the evaluator
  /// broadcasts one settled state to every lane, see
  /// netlist::WordSimulator::broadcast_packed). `flipped` is resized to the
  /// lane count and flipped[l] overwritten (sorted, unique node ids). A
  /// lane's flip set depends only on its sample and its lane's values —
  /// never on the other lanes or the lane count — so a batch of one is the
  /// scalar case.
  virtual void flip_set(const netlist::WordSimulator& sim,
                        TechniqueScratch& scratch,
                        std::span<const FaultSample> samples,
                        std::vector<std::vector<netlist::NodeId>>& flipped)
      const = 0;

  /// Former name of flip_set(). The benchmark harness's per-layer tracer
  /// (perfbench/native/trace.cpp) builds against it.
  void flip_set_batch(const netlist::WordSimulator& sim,
                      TechniqueScratch& scratch,
                      std::span<const FaultSample> samples,
                      std::vector<std::vector<netlist::NodeId>>& flipped)
      const {
    flip_set(sim, scratch, samples, flipped);
  }

  /// --- enumerable fault space -------------------------------------------
  /// Number of points in the technique's bound fault space; 0 means no
  /// space is bound and the exhaustive driver must reject. Each concrete
  /// technique exposes a bind_space(model) setter that defines the grid;
  /// binding is NOT thread-safe — bind before the technique is shared with
  /// worker threads, never during a run.
  virtual std::uint64_t space_size() const { return 0; }

  /// Writes the samples at enumeration indices [begin, end) into `out`
  /// (overwritten). The mapping index -> FaultSample is deterministic and
  /// index-stable: independent of chunking, thread count and process
  /// boundaries, which is the contract journaled resume and supervised
  /// sharding key on (DESIGN.md §6l). Enumeration is t-major so equal-t
  /// (equal injection cycle) samples are consecutive and the engine's
  /// word-parallel batcher packs full lanes. Every emitted sample carries
  /// weight 1.0 — an exhaustive sweep averages the uniform holistic model
  /// exactly. The default implementation throws; only call when
  /// space_size() > 0.
  virtual void enumerate(std::uint64_t begin, std::uint64_t end,
                         std::vector<FaultSample>& out) const;

 protected:
  /// Technique-independent sample checks shared by every implementation.
  void check_common(const FaultSample& sample) const;
};

/// The paper's radiation instance p = [g, r]: a radiated spot upsets struck
/// DFFs directly and seeds transients in struck combinational gates, which
/// propagate to the registers under logical/electrical/latching-window
/// masking (see faultsim/injection.h).
class RadiationTechnique final : public AttackTechnique {
 public:
  /// References must outlive the technique.
  RadiationTechnique(const layout::Placement& placement,
                     const InjectionSimulator& injector);

  TechniqueKind kind() const override { return TechniqueKind::kRadiation; }
  void check_sample(const FaultSample& sample) const override;
  void flip_set(const netlist::WordSimulator& sim, TechniqueScratch& scratch,
                std::span<const FaultSample> samples,
                std::vector<std::vector<netlist::NodeId>>& flipped)
      const override;

  const InjectionSimulator& injector() const { return *injector_; }

  /// Binds the enumerable space: every (t, center, radius, strike) tuple of
  /// the model. An empty model.strike_fracs grid is normalized to the single
  /// instant {0.0} — the continuous Unif[0, 1) strike draw has no finite
  /// enumeration, so exhaustive sweeps pin the hit to the cycle start unless
  /// the model configures a grid.
  void bind_space(const AttackModel& model);
  std::uint64_t space_size() const override;
  void enumerate(std::uint64_t begin, std::uint64_t end,
                 std::vector<FaultSample>& out) const override;

 private:
  const layout::Placement* placement_;
  const InjectionSimulator* injector_;
  AttackModel space_;
  bool has_space_ = false;
};

/// The timing-glitch instances p = [level] (see faultsim/glitch.h): a
/// clock glitch shortens one cycle to `depth` x the nominal period, a voltage
/// glitch scales every gate delay by 1/(1 - droop) for one cycle; registers
/// that then miss setup hold their previous value. The level rides in
/// FaultSample::depth for both kinds, so journal frames and the supervisor
/// wire protocol carry it unchanged. No spatial parameters; the flip set is
/// a deterministic function of (cycle, level), which makes exact SSF
/// enumeration feasible (bind_space + mc::SsfEvaluator::run_exhaustive).
class GlitchTechnique final : public AttackTechnique {
 public:
  /// `kind` is kClockGlitch or kVoltageGlitch. The simulator must outlive
  /// the technique.
  GlitchTechnique(const GlitchSimulator& simulator, TechniqueKind kind);

  TechniqueKind kind() const override { return kind_; }
  void check_sample(const FaultSample& sample) const override;
  void flip_set(const netlist::WordSimulator& sim, TechniqueScratch& scratch,
                std::span<const FaultSample> samples,
                std::vector<std::vector<netlist::NodeId>>& flipped)
      const override;

  const GlitchSimulator& simulator() const { return *simulator_; }

  /// Binds the enumerable space: the model's full (t, level) grid. The
  /// model's kind must be this technique's.
  void bind_space(const GlitchAttackModel& model);
  std::uint64_t space_size() const override;
  void enumerate(std::uint64_t begin, std::uint64_t end,
                 std::vector<FaultSample>& out) const override;

 private:
  const GlitchSimulator* simulator_;
  TechniqueKind kind_;
  GlitchAttackModel space_;
  bool has_space_ = false;
};

}  // namespace fav::faultsim
