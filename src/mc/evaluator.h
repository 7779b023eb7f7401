// Cross-level Monte Carlo SSF evaluation engine (paper Fig. 5).
//
// For each fault sample (t, p):
//   1. Te = Tt - t; restore the RTL machine from the nearest golden
//      checkpoint and warm up to Te,
//   2. hand the state to the gate level, settle the injection cycle, and ask
//      the AttackTechnique for the latched bit errors its parameters p cause
//      (radiation: transient simulation; clock or voltage glitch:
//      setup-miss analysis),
//   3. if no bits flipped            -> masked, e = 0,
//      if only memory-type bits flip -> analytical evaluation,
//      otherwise                     -> inject the errors back into the RTL
//                                       model, resume to completion, apply
//                                       the benchmark's success oracle,
//   4. accumulate e * (f/g) into the importance-weighted SSF estimate.
//
// Steps 1 and 2 run once per te-group: up to 64 samples that share Te are
// restored together, seeded with the injection cycle's settled values (a
// golden settle, computed once per Te per evaluator), and the technique's
// lane kernel computes every lane's latched errors in one bit-parallel
// sweep; each lane then finishes step 3 on its own, and only diverging
// lanes resume at RTL level. A sample that cannot share a group (a unique Te, multi-cycle
// impact, a direct evaluate_sample call) is a group of one — there is no
// separate scalar flow.
//
// The engine is technique-generic: only step 2's flip-set computation is
// delegated (see faultsim/technique.h), so every technique inherits the
// grouping, worker pool, scratch reuse, isolation/budgets, journaled resume
// and observability below.
//
// Robustness: a campaign of 1e4–1e6 samples must survive individual
// pathological samples. Each evaluation inside run()/run_journaled() is
// isolated — it executes under a configurable RTL cycle budget and wall-clock
// deadline, exceptions and overruns are captured, retried once on fresh
// scratch, and otherwise recorded as OutcomePath::kFailed with the reason.
// The estimate stays well-defined over completed samples; the failed-weight
// fraction is reported in SsfResult.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "faultsim/injection.h"
#include "faultsim/technique.h"
#include "layout/placement.h"
#include "mc/analytical.h"
#include "mc/samplers.h"
#include "precharac/characterize.h"
#include "rtl/golden.h"
#include "soc/gate_machine.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/status.h"

namespace fav::mc {

class JournalWriter;

enum class OutcomePath {
  kMasked,      // no latched error
  kAnalytical,  // memory-type-only error, decided without simulation
  kRtl,         // required RTL-level resumption
  kFailed,      // evaluation failed (budget overrun or captured exception)
};

/// Stable lowercase name ("masked" / "analytical" / "rtl" / "failed") used
/// for metric and trace-event names.
const char* outcome_path_name(OutcomePath path);

struct SampleRecord {
  faultsim::FaultSample sample;
  std::uint64_t te = 0;
  std::vector<int> flipped_bits;  // flat register-map bits
  OutcomePath path = OutcomePath::kMasked;
  bool success = false;
  double contribution = 0.0;  // e * importance weight
  /// Isolation metadata: why the evaluation failed (kOk for completed
  /// samples) and whether it was re-attempted on fresh scratch.
  ErrorCode fail_code = ErrorCode::kOk;
  std::string fail_reason;
  bool retried = false;
};

struct SsfResult {
  RunningStats stats;  // over per-sample contributions of *completed* samples
  std::size_t masked = 0;
  std::size_t analytical = 0;
  std::size_t rtl = 0;
  std::size_t successes = 0;
  /// Isolation counters: samples whose evaluation failed (excluded from
  /// stats) and samples that needed a retry (whether it then succeeded).
  std::size_t failed = 0;
  std::size_t retried = 0;
  /// Importance weight drawn by failed samples vs. the whole batch: bounds
  /// the estimate mass the failures could have carried.
  double failed_weight = 0.0;
  double total_weight = 0.0;
  /// Failure reasons, keyed by error code.
  std::map<ErrorCode, std::size_t> failure_counts;
  /// Σw and Σw² over *completed* samples, accumulated in sample-index order
  /// by the reduction (so they are bitwise-identical at every thread count).
  /// They define the importance-sampling effective sample size below.
  double completed_weight = 0.0;
  double completed_weight_sq = 0.0;
  /// Running estimate recorded every `trace_stride` samples (Fig. 9a).
  std::vector<double> trace;
  std::vector<SampleRecord> records;
  /// Samples this result actually covers. Equals the requested batch size
  /// unless a cooperative stop (EvaluatorConfig::stop) cut the run short, in
  /// which case every field above covers only the prefix [0, evaluated).
  std::size_t evaluated = 0;
  /// True when EvaluatorConfig::stop ended the run before all samples were
  /// evaluated (graceful SIGINT/SIGTERM). A journaled interrupted run can be
  /// continued later with JournalOptions::resume.
  bool interrupted = false;
  /// Exhaustive sweeps (run_exhaustive): the total size of the enumerable
  /// fault space this result was swept against. 0 for sampled campaigns,
  /// where no finite space is bound and coverage() is meaningless.
  std::uint64_t fault_space_size = 0;
  /// SSF attribution: each success's contribution is split equally among
  /// the flipped bits (= DFF cells) and, in parallel, among the flipped
  /// register fields. Bit granularity drives hardening (each bit is a
  /// standard cell that can be swapped for a resilient one); field
  /// granularity is for human-readable reports.
  std::map<int, double> bit_contribution;
  std::map<int, double> field_contribution;

  double ssf() const { return stats.mean(); }
  double sample_variance() const { return stats.variance(); }
  /// ESS = (Σw)²/Σw² (Kong 1992): how many unweighted samples the
  /// importance-weighted run is worth. Equals the completed-sample count for
  /// an unweighted (w == 1) campaign; a low ESS flags a proposal mismatch.
  double effective_sample_size() const {
    return completed_weight_sq > 0.0
               ? completed_weight * completed_weight / completed_weight_sq
               : 0.0;
  }
  double failed_weight_fraction() const {
    return total_weight > 0.0 ? failed_weight / total_weight : 0.0;
  }
  /// Fraction of the bound fault space this result covers: 1.0 for a
  /// completed exhaustive sweep, less under --space-limit or interruption,
  /// 0.0 for sampled campaigns (fault_space_size == 0).
  double coverage() const {
    return fault_space_size > 0
               ? static_cast<double>(evaluated) /
                     static_cast<double>(fault_space_size)
               : 0.0;
  }
};

struct EvaluatorConfig {
  /// Enables the analytical shortcut for memory-type-only errors.
  bool use_analytical = true;
  /// Record the running estimate every this many samples.
  std::size_t trace_stride = 50;
  /// Keep full per-sample records (needed for hardening re-evaluation).
  bool keep_records = true;
  /// Cap on SsfResult::records (0 = unlimited). With keep_records on, a
  /// 1e6-sample campaign otherwise accumulates every record in memory; the
  /// reduction keeps the first `record_capacity` records (sample-index
  /// order, so the kept prefix is thread-count independent) and counts the
  /// rest in the "eval.records_dropped" metric. Estimates, counters and
  /// contribution maps always cover every sample regardless of the cap.
  std::size_t record_capacity = 0;
  /// Worker threads for run(): 1 = sequential, 0 = hardware concurrency.
  /// Results are bitwise-identical for every value — samples are pre-drawn
  /// on the calling thread and reduced in sample-index order.
  std::size_t threads = 1;
  /// Per-sample RTL cycle budget (warm-up + injection + resume cycles);
  /// 0 = unlimited. Deterministic: a sample that overruns does so at the
  /// same cycle on every run and thread count.
  std::uint64_t cycle_budget = 0;
  /// Per-sample wall-clock deadline in milliseconds; 0 = unlimited.
  /// A fired deadline depends on machine load, so enabling it trades the
  /// bitwise-determinism contract for hang protection — prefer cycle_budget
  /// when journaled resume must be bit-exact.
  std::uint64_t sample_deadline_ms = 0;
  /// Retry a failed evaluation once on fresh scratch before recording
  /// kFailed (cycle-budget overruns are deterministic and never retried).
  bool retry_failed = true;
  /// --- observability (util/metrics.h; all optional, null = disabled) ----
  /// Aggregated campaign metrics. Per-worker sinks are created inside
  /// run()/run_journaled() and merged into *metrics in worker-index order
  /// when the run completes; sample-derived statistics (outcome-path
  /// counters, ESS) are recorded during the sample-index-ordered reduction.
  /// Enabling metrics never changes SSF results — counters are
  /// schedule-independent, timers are wall-clock and only feed reports.
  /// Successive runs through the same config accumulate into the same sink.
  MetricsSink* metrics = nullptr;
  /// Chrome-trace events: one complete event per evaluated sample (lane =
  /// worker index, args.sample = sample index), merged per worker and
  /// written in sample-index order by TraceBuffer::write_json.
  TraceBuffer* trace = nullptr;
  /// Throttled live progress; record() is invoked once per completed sample
  /// in completion order (see ProgressMeter for the determinism caveat on
  /// the *displayed* running mean).
  ProgressMeter* progress = nullptr;

  /// --- cooperative control (all optional) -------------------------------
  /// Graceful-stop flag, polled by every worker between te-groups (about
  /// 0.4 ms of work for a full 64-lane group) in every run entry point. When
  /// it flips true each worker finishes the group in hand, the run reduces
  /// the contiguous evaluated prefix — cut back to whole journal shards on
  /// journaled runs, after committing them — and returns with
  /// SsfResult::interrupted set; journaled work stays valid for a later
  /// resume. Null disables polling entirely.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked once per evaluated sample, from the worker thread that finished
  /// it, right after its record slot is written (completion order, not
  /// sample order). Supervised workers use it for heartbeat frames. Must be
  /// thread-safe and must not throw; null disables.
  std::function<void(const SampleRecord&, std::size_t)> on_sample;
  /// Emit the reduce-derived eval.* counters/gauges into `metrics`. A
  /// supervised worker sets this false: its shards are re-reduced by the
  /// supervisor, which would double-count every sample-derived aggregate
  /// after merging the worker's shipped sink.
  bool reduce_metrics = true;
};

/// Per-evaluation resource budget. charge_cycles() throws StatusError with
/// kCycleBudgetExceeded / kDeadlineExceeded when exhausted; the isolation
/// layer converts that into a kFailed sample record.
class EvalBudget {
 public:
  EvalBudget(std::uint64_t cycle_budget, std::uint64_t deadline_ms);

  void charge_cycles(std::uint64_t cycles);

 private:
  std::uint64_t cycles_left_;
  bool limit_cycles_;
  bool limit_time_;
  std::uint64_t ticks_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
};

class SsfEvaluator;

/// Reusable per-worker evaluation state: one RTL machine, one gate-level
/// machine, and the technique/flip-set query buffers, constructed once and
/// re-loaded for every sample. Constructing a GateLevelMachine allocates the
/// full logic-simulator state (~every net of the SoC) and a 64K-word RAM;
/// doing that per sample dominates the masked-sample path, so the engine
/// keeps one scratch per worker thread. Not thread-safe: one scratch per
/// thread.
class EvalScratch {
 public:
  explicit EvalScratch(const SsfEvaluator& evaluator);

 private:
  friend class SsfEvaluator;
  rtl::Machine machine_;
  soc::GateLevelMachine gate_;
  faultsim::TechniqueScratch technique_;
  /// Te-group state: the 64-lane simulator the settled injection cycle is
  /// broadcast into, the per-lane sample, flipped-DFF and flipped-bit
  /// buffers, and the machine a diverging lane's RTL resume runs on (copied
  /// from the shared post-injection state so machine_ stays valid for the
  /// other lanes).
  netlist::WordSimulator words_;
  rtl::Machine resume_;
  std::vector<faultsim::FaultSample> lane_samples_;
  std::vector<std::vector<netlist::NodeId>> lane_flips_;
  std::vector<std::vector<int>> lane_bits_;
};

/// Sets the "eval.lane_occupancy" gauge (gate-evaluated samples per
/// restore: eval.batch_lanes / eval.batch_groups, groups of one included)
/// from the counters already in `metrics`; a no-op while no group was
/// evaluated.
void update_lane_occupancy(MetricsSink& metrics);

/// Default samples per journal shard (JournalOptions::shard_size, the CLI's
/// --shard-size).
constexpr std::size_t kDefaultShardSize = 256;

/// Options for crash-safe journaled campaigns (see mc/journal.h for the
/// on-disk format). The journal directory accumulates completed sample-index
/// shards with checksums; a resumed run replays them and continues from the
/// first missing index, bitwise-identical to an uninterrupted run.
struct JournalOptions {
  std::string dir;
  /// Replay an existing journal and continue; false starts a fresh journal
  /// (overwriting any previous one in `dir`).
  bool resume = false;
  /// Samples per journal shard: the commit granularity. Shards are
  /// appended after each scheduling wave (SsfEvaluator::kWaveSamples,
  /// rounded to whole shards), so a crash loses at most one wave of work; a
  /// stop commits every whole shard it finished. Does not limit te-groups.
  std::size_t shard_size = kDefaultShardSize;
  /// Campaign identity (hash of benchmark/sampler/seed/config); a resume
  /// against a journal with a different fingerprint is rejected.
  std::uint64_t fingerprint = 0;
  /// Human-readable campaign description stored in the journal header.
  std::string context;
};

class SsfEvaluator {
 public:
  /// Scheduling wave: every run entry point evaluates its samples in waves
  /// of this many consecutive indices (rounded to whole journal shards),
  /// with te-groups formed across the whole wave so they can fill all 64
  /// lanes. Journal shards are committed after each wave.
  static constexpr std::size_t kWaveSamples = 64 * 256;
  /// Most samples one te-group evaluates: the word width of the lane
  /// kernels (faultsim::AttackTechnique::flip_set).
  static constexpr std::size_t kMaxLanes = 64;

  /// Produces the samples of indices [lo, hi) — a slice of a pre-drawn
  /// batch or a streamed enumeration; valid until the next call.
  using SampleSource =
      std::function<const faultsim::FaultSample*(std::size_t, std::size_t)>;

  /// Technique-generic engine: evaluates samples of `technique`'s family.
  /// `characterization` may be null: the analytical path is then disabled
  /// (every unmasked sample resumes at RTL level). All references must
  /// outlive the evaluator.
  SsfEvaluator(const soc::SocNetlist& soc,
               const faultsim::AttackTechnique& technique,
               const soc::SecurityBenchmark& bench,
               const rtl::GoldenRun& golden,
               const precharac::RegisterCharacterization* characterization,
               const EvaluatorConfig& config = {});

  /// Radiation convenience: builds and owns a RadiationTechnique over
  /// `placement` + `injector` (the common case and the historical
  /// constructor signature).
  SsfEvaluator(const soc::SocNetlist& soc, const layout::Placement& placement,
               const faultsim::InjectionSimulator& injector,
               const soc::SecurityBenchmark& bench,
               const rtl::GoldenRun& golden,
               const precharac::RegisterCharacterization* characterization,
               const EvaluatorConfig& config = {});

  std::uint64_t target_cycle() const { return target_cycle_; }
  const rtl::GoldenRun& golden() const { return *golden_; }
  const soc::SecurityBenchmark& benchmark() const { return *bench_; }
  const soc::SocNetlist& soc() const { return *soc_; }
  const faultsim::AttackTechnique& technique() const { return *technique_; }
  const precharac::RegisterCharacterization* characterization() const {
    return charac_;
  }
  const EvaluatorConfig& config() const { return config_; }

  /// Full evaluation of one fault sample, as a te-group of one (convenience:
  /// builds a fresh scratch; use the scratch overload inside sampling
  /// loops). Throws on invalid samples and budget overruns — campaign loops
  /// use the isolated variant below instead.
  SampleRecord evaluate_sample(const faultsim::FaultSample& sample) const;
  /// Same, reusing `scratch`'s machines and buffers. Thread-safe as long as
  /// each thread uses its own scratch: the evaluator's only mutable state is
  /// its golden settle table, whose entries are filled once each under
  /// std::call_once. A non-null `sink` receives the per-phase time split of
  /// this sample (eval.restore_ns / eval.gate_inject_ns, with its
  /// eval.gate_settle_ns / eval.gate_flip_set_ns parts / eval.rtl_resume_ns /
  /// eval.analytical_ns) and simulation-cost counters (rtl.warmup_cycles,
  /// rtl.restore_bytes, rtl.resume_cycles, gate.injection_cycles,
  /// gate.settle_passes, and the eval.batch_* counters of its group of
  /// one); the sink must be private to the calling thread.
  SampleRecord evaluate_sample(const faultsim::FaultSample& sample,
                               EvalScratch& scratch,
                               MetricsSink* sink = nullptr) const;

  /// Fault-isolated evaluation: never throws on a per-sample failure.
  /// Exceptions and budget overruns are captured; non-deterministic failures
  /// are retried once on a fresh scratch (replacing `scratch`), and a sample
  /// that still fails returns a record with path == OutcomePath::kFailed
  /// carrying the error code and reason.
  SampleRecord evaluate_sample_isolated(
      const faultsim::FaultSample& sample,
      std::unique_ptr<EvalScratch>& scratch,
      MetricsSink* sink = nullptr) const;

  /// Decides the outcome of a given flipped-bit set injected at the end of
  /// cycle `te` (used by evaluate_sample and by hardening re-evaluation,
  /// which filters flip sets).
  bool outcome_for_flips(std::uint64_t te, const std::vector<int>& flips,
                         OutcomePath* path = nullptr) const;

  /// Draws `n` samples from `sampler` and accumulates the SSF estimate.
  ///
  /// With config.threads != 1 the samples are evaluated on a worker pool.
  /// Determinism contract: the sample batch is pre-drawn sequentially from
  /// `sampler` (the stateful Rng stream is untouched by the workers), each
  /// worker evaluates into its sample's slot using per-thread scratch state,
  /// and the result is reduced in sample-index order — so ssf(), variance,
  /// trace, records, and the contribution maps are bitwise-identical for
  /// every thread count, including the sequential engine.
  ///
  /// Per-sample failures are isolated (see evaluate_sample_isolated) and
  /// surface as SsfResult counters, not exceptions. A sampler that throws
  /// while drawing the batch aborts the run with StatusError(kSamplerFailed).
  SsfResult run(Sampler& sampler, Rng& rng, std::size_t n) const;

  /// Evaluates an explicit, pre-drawn batch through the full pipeline
  /// (worker pool, isolation, observability, sample-index-ordered
  /// reduction). The seam run() uses after drawing its batch, and the
  /// supervisor's workers use for their assigned shards. A stop covers the
  /// contiguous prefix of samples evaluated before it.
  SsfResult run_batch(std::vector<faultsim::FaultSample> samples) const;

  /// Exhaustively sweeps the technique's bound fault space (see
  /// AttackTechnique::bind_space / enumerate): every enumeration index in
  /// [0, min(space_size, space_limit)) is evaluated exactly once, streamed
  /// through the batch pipeline wave by wave — the full space is never
  /// materialized, so memory stays O(wave) regardless of grid size. The
  /// result carries fault_space_size so coverage() reports the swept
  /// fraction, and is bitwise-identical to run_batch over the materialized
  /// enumeration at every thread count. space_limit == 0 sweeps everything.
  /// Throws StatusError(kInvalidArgument) when no space is bound.
  SsfResult run_exhaustive(std::uint64_t space_limit = 0) const;

  /// Crash-safe variant of run_exhaustive(): completed enumeration-index
  /// shards are appended to the journal as they finish. Resume re-enumerates
  /// the journaled prefix from the bound space (the index -> sample mapping
  /// is the determinism contract) and cross-checks it before continuing from
  /// the first missing index — the final result is bitwise-identical to an
  /// uninterrupted sweep.
  Result<SsfResult> run_exhaustive_journaled(const JournalOptions& options,
                                             std::uint64_t space_limit =
                                                 0) const;

  /// Crash-safe variant of run(): completed sample shards are appended to
  /// the journal in `options.dir` as they finish. With options.resume, the
  /// journal is replayed first and evaluation continues from the first
  /// missing sample index — the returned SsfResult is bitwise-identical to
  /// an uninterrupted run at every thread count (samples are re-drawn from
  /// the same sampler/rng state and cross-checked against the journal).
  /// Journal integrity/IO failures are reported as a non-ok Result.
  Result<SsfResult> run_journaled(Sampler& sampler, Rng& rng, std::size_t n,
                                  const JournalOptions& options) const;

  /// Draws the whole batch sequentially (determinism contract: the stateful
  /// Rng stream is consumed on the calling thread only); wraps sampler
  /// exceptions into StatusError(kSamplerFailed). Public seam for the
  /// supervisor, whose processes each re-derive the identical sample stream
  /// from the same seed.
  std::vector<faultsim::FaultSample> draw_batch(Sampler& sampler, Rng& rng,
                                                std::size_t n) const;

  /// Folds externally-evaluated records (e.g. merged supervised-worker
  /// journal shards) through the same sample-index-ordered reduction as
  /// run_batch, so the resulting SsfResult is bitwise-identical to the
  /// single-process engine evaluating the same samples.
  SsfResult reduce_records(std::vector<SampleRecord> records) const;

 private:
  /// Per-worker observability buffers for one run. The vectors are empty
  /// when the corresponding config pointer is null; otherwise they hold one
  /// slot per scratch/worker, merged in worker-index order by
  /// merge_observers() so the aggregate is schedule-independent.
  struct WorkerObservers {
    std::vector<MetricsSink> sinks;
    std::vector<TraceBuffer> traces;
  };

  /// Evaluates one wave, samples[0, n) into records[0, n), on the worker
  /// pool: te-groups of up to kMaxLanes samples are formed across the whole
  /// wave, and the stop flag is polled before every group. Returns the
  /// length of the contiguous evaluated prefix (n unless the stop flag cut
  /// the wave). `base` is the wave's first sample index, reported to
  /// on_sample and the trace.
  std::size_t evaluate_wave(const faultsim::FaultSample* samples,
                            SampleRecord* records, std::size_t n,
                            std::size_t base,
                            std::vector<std::unique_ptr<EvalScratch>>& scratch,
                            WorkerObservers& observers) const;
  /// What the shared phase of a te-group leaves for its lanes' finalization.
  struct GroupInjection {
    /// False for a sample that lands before the program starts: masked,
    /// te 0, nothing simulated.
    bool injected = false;
    std::uint64_t te = 0;
    std::uint64_t warmup = 0;  // cycles restore_into ran past a checkpoint
    std::uint64_t cycles = 0;  // injection cycles executed
    /// Multi-cycle impact: the lane's errors are already overlaid on the
    /// scratch machine (a group of one), instead of on a per-lane copy.
    bool overlaid = false;
  };
  /// Shared phase of the te-group in sc.lane_samples_ (1..64 samples with
  /// the same te, or one sample with impact_cycles > 1): validates every
  /// lane, restores the checkpoint, seeds each injection cycle's settled
  /// gate-level values (the first from the golden settle table, later ones
  /// by a settle of the corrupted state), computes every lane's flip set in
  /// one bit-parallel sweep, and leaves each lane's flipped flat bits in
  /// sc.lane_bits_ (sorted, unique) with sc.machine_ just past the
  /// injection cycle(s). Throws on an invalid sample.
  GroupInjection inject_group(EvalScratch& sc, MetricsSink* sink) const;
  /// Golden cycle te's settled node values, packed 1 bit per node. The
  /// first call for a te fills its entry from sc.machine_, which must hold
  /// the golden state of cycle te, settled on sc.gate_; later calls (from
  /// any thread) read it.
  const std::vector<std::uint64_t>& golden_settle(EvalScratch& sc,
                                                  std::uint64_t te,
                                                  MetricsSink* sink) const;
  /// Finalizes lane `lane` of the group: replays the budget charges a
  /// sample evaluated alone would see, and decides the outcome (RTL resume
  /// on a copy of the shared machine for diverging lanes). Throws on budget
  /// overruns and other per-lane failures.
  SampleRecord finish_lane(EvalScratch& sc, const GroupInjection& group,
                           std::size_t lane, MetricsSink* sink) const;
  /// Second half of the isolation protocol for a sample whose evaluation
  /// failed with (code, reason): retries it once as a group of one on a
  /// fresh scratch (replacing `scratch`) unless the failure is a
  /// deterministic budget overrun or retries are off, and otherwise returns
  /// its kFailed record.
  SampleRecord retry_or_fail(const faultsim::FaultSample& sample,
                             ErrorCode code, std::string reason,
                             std::unique_ptr<EvalScratch>& scratch,
                             MetricsSink* sink) const;
  /// Evaluates one te-group (unit = sample indices, see evaluate_wave)
  /// with full isolation: inject_group once, finish_lane per lane, then a
  /// retry_or_fail for each lane that threw — after every other lane is
  /// final, because a retry may replace `scratch` and with it the shared
  /// machine.
  void evaluate_group(const faultsim::FaultSample* samples,
                      SampleRecord* records,
                      const std::vector<std::size_t>& unit, std::size_t base,
                      std::unique_ptr<EvalScratch>& scratch, MetricsSink* sink,
                      TraceBuffer* trace_buf, std::uint32_t worker) const;
  /// Per-sample completion: path timer and trace event (the span
  /// [start, start + dur)), progress tick and on_sample callback.
  void complete_sample(const SampleRecord& rec, std::size_t index,
                       std::uint32_t worker, std::uint64_t start,
                       std::uint64_t dur, MetricsSink* sink,
                       TraceBuffer* trace_buf) const;
  WorkerObservers make_observers(std::size_t workers) const;
  /// Folds the per-worker sinks/traces into config_.metrics/config_.trace
  /// in worker-index order, then refreshes the eval.lane_occupancy gauge.
  void merge_observers(WorkerObservers&& observers) const;
  /// Builds one scratch per resolved worker (capped by `n` work items).
  std::vector<std::unique_ptr<EvalScratch>> make_scratch_pool(
      std::size_t n) const;
  /// Incremental reduction state: fold_record() accumulates one record at a
  /// time in sample-index order, finish_reduce() seals the result and emits
  /// the reduce-derived metrics. Folding records wave by wave performs the
  /// exact accumulation one reduce() over the concatenation would — the seam
  /// every run streams through without materializing every record.
  struct ReduceState {
    SsfResult result;
    std::uint64_t records_dropped = 0;
    std::size_t index = 0;  // records folded so far
  };
  void fold_record(ReduceState& state, SampleRecord&& rec) const;
  SsfResult finish_reduce(ReduceState&& state) const;
  /// Seed-order accumulation of evaluated records into an SsfResult; the
  /// single reduction path shared by the sequential and parallel engines.
  SsfResult reduce(std::vector<SampleRecord>&& records) const;
  /// The wave loop every run entry point drives: evaluates indices
  /// [state.index, n) wave by wave, appends each wave's shards to `writer`
  /// (null = in-memory run, shard = 1) in index order, then folds them into
  /// `state`. A stop or a full disk ends the run after the last whole
  /// committed shard. Fails only on a journal write error.
  Result<SsfResult> run_waves(std::size_t n, std::size_t shard,
                              ReduceState state, JournalWriter* writer,
                              const SampleSource& wave_samples) const;
  /// open_campaign_journal (mc/journal.h), folding the journaled prefix
  /// into `state`.
  Status open_journal(const JournalOptions& options, std::size_t n,
                      const SampleSource& wave_samples, ReduceState& state,
                      JournalWriter& writer) const;
  /// Streams the bound fault space's enumeration, clipped to `space_limit`
  /// (its length goes to *n). Throws StatusError(kInvalidArgument) when no
  /// space is bound.
  SampleSource enumerator(std::uint64_t space_limit, std::size_t* n) const;
  /// Shared outcome decision on a machine already positioned just past the
  /// (last) injection cycle with the errors overlaid.
  bool decide_outcome(rtl::Machine& machine, const std::vector<int>& flips,
                      std::uint64_t first_faulty_cycle, OutcomePath* path,
                      EvalBudget& budget, MetricsSink* sink = nullptr) const;

  const soc::SocNetlist* soc_;
  /// Owns the technique only for the radiation convenience constructor;
  /// technique_ always points at the active one.
  std::unique_ptr<faultsim::AttackTechnique> owned_technique_;
  const faultsim::AttackTechnique* technique_;
  const soc::SecurityBenchmark* bench_;
  const rtl::GoldenRun* golden_;
  const precharac::RegisterCharacterization* charac_;
  EvaluatorConfig config_;
  AnalyticalEvaluator analytical_;
  std::uint64_t target_cycle_ = 0;
  /// Golden settle table, one entry per injection cycle te in [0, Tt]: the
  /// settled values depend only on the golden run, so each te is settled
  /// once per evaluator instead of once per te-group.
  struct SettledCycle {
    std::once_flag filled;
    std::vector<std::uint64_t> bits;
  };
  std::unique_ptr<SettledCycle[]> golden_settles_;
};

}  // namespace fav::mc
