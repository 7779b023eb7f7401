#include "mc/evaluator.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_set>

#include "mc/journal.h"
#include "util/parallel.h"

namespace fav::mc {

using rtl::Machine;
using rtl::RegisterMap;

const char* outcome_path_name(OutcomePath path) {
  switch (path) {
    case OutcomePath::kMasked: return "masked";
    case OutcomePath::kAnalytical: return "analytical";
    case OutcomePath::kRtl: return "rtl";
    case OutcomePath::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// Per-outcome-path latency timer name ("eval.sample.<path>_ns").
std::string path_timer_name(OutcomePath path) {
  return std::string("eval.sample.") + outcome_path_name(path) + "_ns";
}

}  // namespace

void update_lane_occupancy(MetricsSink& metrics) {
  const std::uint64_t groups = metrics.counter("eval.batch_groups");
  if (groups == 0) return;
  metrics.set_gauge("eval.lane_occupancy",
                    static_cast<double>(metrics.counter("eval.batch_lanes")) /
                        static_cast<double>(groups));
}

EvalBudget::EvalBudget(std::uint64_t cycle_budget, std::uint64_t deadline_ms)
    : cycles_left_(cycle_budget),
      limit_cycles_(cycle_budget > 0),
      limit_time_(deadline_ms > 0) {
  if (limit_time_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(deadline_ms);
  }
}

void EvalBudget::charge_cycles(std::uint64_t cycles) {
  if (limit_cycles_) {
    if (cycles > cycles_left_) {
      cycles_left_ = 0;
      throw StatusError(ErrorCode::kCycleBudgetExceeded,
                        "per-sample RTL cycle budget exhausted");
    }
    cycles_left_ -= cycles;
  }
  // The clock read is amortized: one probe every 64 charges.
  if (limit_time_ && (++ticks_ & 63u) == 0 &&
      std::chrono::steady_clock::now() > deadline_) {
    throw StatusError(ErrorCode::kDeadlineExceeded,
                      "per-sample wall-clock deadline exhausted");
  }
}

EvalScratch::EvalScratch(const SsfEvaluator& evaluator)
    : machine_(evaluator.golden().program()),
      gate_(evaluator.soc(), evaluator.golden().program()),
      words_(evaluator.soc().netlist()),
      resume_(evaluator.golden().program()) {}

SsfEvaluator::SsfEvaluator(
    const soc::SocNetlist& soc, const faultsim::AttackTechnique& technique,
    const soc::SecurityBenchmark& bench, const rtl::GoldenRun& golden,
    const precharac::RegisterCharacterization* characterization,
    const EvaluatorConfig& config)
    : soc_(&soc),
      technique_(&technique),
      bench_(&bench),
      golden_(&golden),
      charac_(characterization),
      config_(config),
      analytical_(bench, golden) {
  target_cycle_ = analytical_.target_cycle();
  FAV_ENSURE(config.trace_stride > 0);
}

SsfEvaluator::SsfEvaluator(
    const soc::SocNetlist& soc, const layout::Placement& placement,
    const faultsim::InjectionSimulator& injector,
    const soc::SecurityBenchmark& bench, const rtl::GoldenRun& golden,
    const precharac::RegisterCharacterization* characterization,
    const EvaluatorConfig& config)
    : soc_(&soc),
      owned_technique_(
          std::make_unique<faultsim::RadiationTechnique>(placement, injector)),
      technique_(owned_technique_.get()),
      bench_(&bench),
      golden_(&golden),
      charac_(characterization),
      config_(config),
      analytical_(bench, golden) {
  target_cycle_ = analytical_.target_cycle();
  FAV_ENSURE(config.trace_stride > 0);
}

bool SsfEvaluator::decide_outcome(rtl::Machine& machine,
                                  const std::vector<int>& flips,
                                  std::uint64_t first_faulty_cycle,
                                  OutcomePath* path, EvalBudget& budget,
                                  MetricsSink* sink) const {
  if (flips.empty()) {
    if (path != nullptr) *path = OutcomePath::kMasked;
    return false;
  }
  if (config_.use_analytical && charac_ != nullptr) {
    bool all_memory_type = true;
    for (const int bit : flips) {
      if (!charac_->is_memory_type(bit)) {
        all_memory_type = false;
        break;
      }
    }
    if (all_memory_type) {
      ScopeTimer timer(sink, "eval.analytical_ns");
      const auto verdict =
          analytical_.evaluate(machine.state(), first_faulty_cycle);
      if (verdict.has_value()) {
        if (path != nullptr) *path = OutcomePath::kAnalytical;
        return *verdict;
      }
    }
  }
  if (path != nullptr) *path = OutcomePath::kRtl;
  ScopeTimer timer(sink, "eval.rtl_resume_ns");
  const std::uint64_t resume_from = machine.cycle();
  while (!machine.halted() && machine.cycle() < bench_->max_cycles) {
    budget.charge_cycles(1);
    machine.step();
  }
  if (sink != nullptr) {
    sink->add_counter("rtl.resume_cycles", machine.cycle() - resume_from);
  }
  return bench_->attack_succeeded(machine.state(), machine.ram());
}

bool SsfEvaluator::outcome_for_flips(std::uint64_t te,
                                     const std::vector<int>& flips,
                                     OutcomePath* path) const {
  const RegisterMap& map = Machine::reg_map();
  if (flips.empty()) {
    if (path != nullptr) *path = OutcomePath::kMasked;
    return false;
  }
  // Execute the injection cycle at RTL level, then overlay the latched
  // errors: they take effect from cycle te+1 (Fig. 5 step 5).
  EvalBudget budget(config_.cycle_budget, config_.sample_deadline_ms);
  std::uint64_t warmup = 0;
  Machine machine = golden_->restore(te, &warmup);
  budget.charge_cycles(warmup + 1);
  machine.step();
  for (const int bit : flips) map.flip_bit(machine.mutable_state(), bit);
  return decide_outcome(machine, flips, te + 1, path, budget);
}

SampleRecord SsfEvaluator::evaluate_sample(
    const faultsim::FaultSample& sample) const {
  EvalScratch scratch(*this);
  return evaluate_sample(sample, scratch);
}

SampleRecord SsfEvaluator::evaluate_sample(const faultsim::FaultSample& sample,
                                           EvalScratch& scratch,
                                           MetricsSink* sink) const {
  SampleRecord rec;
  rec.sample = sample;
  technique_->check_sample(sample);
  if (static_cast<std::uint64_t>(sample.t) > target_cycle_) {
    // Injection before the program starts: nothing to strike.
    rec.te = 0;
    rec.path = OutcomePath::kMasked;
    return rec;
  }
  rec.te = target_cycle_ - static_cast<std::uint64_t>(sample.t);

  // Gate-level injection cycle(s). Multi-cycle impact (sample.impact_cycles
  // > 1) applies the same technique parameters on consecutive cycles: each
  // cycle is settled on the *already-corrupted* state, its latched errors
  // overlaid, and the machine advanced — the paper's "multi-cycle impact"
  // extension.
  EvalBudget budget(config_.cycle_budget, config_.sample_deadline_ms);
  const RegisterMap& map = Machine::reg_map();

  // The scratch machines are fully re-loaded here: restore_into rewrites the
  // RTL state/RAM/cycle, and load_state + settle_inputs rewrite every
  // register, input, and combinational value of the gate-level simulator —
  // no state survives from the previous sample.
  Machine& machine = scratch.machine_;
  std::uint64_t warmup = 0;
  {
    ScopeTimer timer(sink, "eval.restore_ns");
    golden_->restore_into(machine, rec.te, &warmup);
  }
  if (sink != nullptr) {
    sink->add_counter("rtl.warmup_cycles", warmup);
    sink->add_counter("rtl.restore_bytes", golden_->restore_byte_size());
  }
  budget.charge_cycles(warmup);
  soc::GateLevelMachine& gate = scratch.gate_;
  std::set<int> flipped;
  {
    ScopeTimer timer(sink, "eval.gate_inject_ns");
    const std::uint64_t settles_before = gate.total_settles();
    std::uint64_t injection_cycles = 0;
    for (int j = 0; j < sample.impact_cycles && !machine.halted(); ++j) {
      budget.charge_cycles(1);
      ++injection_cycles;
      gate.load_state(machine.state());
      gate.mutable_ram() = machine.ram();
      gate.settle_inputs();
      technique_->flip_set(gate.sim(), scratch.technique_, sample,
                           scratch.flipped_dffs_);
      machine.step();
      for (const netlist::NodeId dff : scratch.flipped_dffs_) {
        const int bit = soc_->flat_bit_for_dff(dff);
        FAV_CHECK(bit >= 0);
        map.flip_bit(machine.mutable_state(), bit);
        flipped.insert(bit);
      }
    }
    if (sink != nullptr) {
      sink->add_counter("gate.injection_cycles", injection_cycles);
      sink->add_counter("gate.settle_passes",
                        gate.total_settles() - settles_before);
    }
  }
  rec.flipped_bits.assign(flipped.begin(), flipped.end());

  // `machine` is already positioned just past the last injection cycle with
  // every latched error overlaid; for impact_cycles == 1 this is exactly the
  // state outcome_for_flips would reconstruct.
  rec.success = decide_outcome(
      machine, rec.flipped_bits,
      rec.te + static_cast<std::uint64_t>(sample.impact_cycles), &rec.path,
      budget, sink);
  rec.contribution = rec.success ? sample.weight : 0.0;
  return rec;
}

SampleRecord SsfEvaluator::evaluate_sample_isolated(
    const faultsim::FaultSample& sample,
    std::unique_ptr<EvalScratch>& scratch, MetricsSink* sink) const {
  auto classify = [](const std::exception& e) {
    if (const auto* se = dynamic_cast<const StatusError*>(&e)) {
      return se->code();
    }
    return ErrorCode::kSampleEvalFailed;
  };
  ErrorCode code;
  std::string reason;
  try {
    return evaluate_sample(sample, *scratch, sink);
  } catch (const std::exception& e) {
    code = classify(e);
    reason = e.what();
  }
  // A cycle-budget overrun is deterministic — the retry would burn the same
  // cycles and fail identically, so only other failures are re-attempted,
  // on a *fresh* scratch in case the failed attempt left the machines in an
  // inconsistent state.
  bool retried = false;
  if (config_.retry_failed && code != ErrorCode::kCycleBudgetExceeded) {
    retried = true;
    {
      ScopeTimer timer(sink, "eval.scratch_rebuild_ns");
      scratch = std::make_unique<EvalScratch>(*this);
    }
    try {
      SampleRecord rec = evaluate_sample(sample, *scratch, sink);
      rec.retried = true;
      return rec;
    } catch (const std::exception& e) {
      code = classify(e);
      reason = e.what();
    }
  }
  SampleRecord rec;
  rec.sample = sample;
  rec.path = OutcomePath::kFailed;
  rec.fail_code = code;
  rec.fail_reason = reason;
  rec.retried = retried;
  return rec;
}

void SsfEvaluator::fold_record(ReduceState& state, SampleRecord&& rec) const {
  const RegisterMap& map = Machine::reg_map();
  SsfResult& result = state.result;
  result.total_weight += rec.sample.weight;
  if (rec.retried) ++result.retried;
  if (rec.path == OutcomePath::kFailed) {
    // Failed samples carry no estimate: the mean stays well-defined over
    // completed samples, and the failed weight bounds what was lost.
    ++result.failed;
    result.failed_weight += rec.sample.weight;
    ++result.failure_counts[rec.fail_code];
  } else {
    result.completed_weight += rec.sample.weight;
    result.completed_weight_sq += rec.sample.weight * rec.sample.weight;
    result.stats.add(rec.contribution);
    switch (rec.path) {
      case OutcomePath::kMasked: ++result.masked; break;
      case OutcomePath::kAnalytical: ++result.analytical; break;
      case OutcomePath::kRtl: ++result.rtl; break;
      case OutcomePath::kFailed: break;  // unreachable
    }
  }
  if (rec.success) {
    ++result.successes;
    std::unordered_set<int> fields;
    for (const int bit : rec.flipped_bits) {
      fields.insert(map.locate(bit).first);
    }
    if (!fields.empty()) {
      const double share =
          rec.contribution / static_cast<double>(fields.size());
      for (const int f : fields) result.field_contribution[f] += share;
    }
    if (!rec.flipped_bits.empty()) {
      const double share =
          rec.contribution / static_cast<double>(rec.flipped_bits.size());
      for (const int bit : rec.flipped_bits) {
        result.bit_contribution[bit] += share;
      }
    }
  }
  if ((state.index + 1) % config_.trace_stride == 0) {
    result.trace.push_back(result.stats.mean());
  }
  if (config_.keep_records) {
    // The capacity cap keeps the first N records in sample-index order:
    // a deterministic prefix, not a sampling of the run.
    if (config_.record_capacity == 0 ||
        result.records.size() < config_.record_capacity) {
      result.records.push_back(std::move(rec));
    } else {
      ++state.records_dropped;
    }
  }
  ++state.index;
}

SsfResult SsfEvaluator::finish_reduce(ReduceState&& state) const {
  SsfResult result = std::move(state.result);
  result.evaluated = state.index;
  // Sample-derived aggregates land in the caller's sink here, inside the
  // sample-index-ordered reduction, so they are deterministic at every
  // thread count (unlike the wall-clock timers merged from worker sinks).
  // reduce_metrics is off inside supervised workers, whose records are
  // re-reduced (and re-counted) by the supervisor.
  if (config_.metrics != nullptr && config_.reduce_metrics) {
    MetricsSink& m = *config_.metrics;
    m.add_counter("eval.samples", state.index);
    m.add_counter("eval.path.masked", result.masked);
    m.add_counter("eval.path.analytical", result.analytical);
    m.add_counter("eval.path.rtl", result.rtl);
    m.add_counter("eval.path.failed", result.failed);
    m.add_counter("eval.retried", result.retried);
    m.add_counter("eval.successes", result.successes);
    m.add_counter("eval.records_dropped", state.records_dropped);
    m.set_gauge("eval.ess", result.effective_sample_size());
    m.set_gauge("eval.ssf", result.ssf());
    m.set_gauge("eval.failed_weight_fraction",
                result.failed_weight_fraction());
  }
  return result;
}

SsfResult SsfEvaluator::reduce(std::vector<SampleRecord>&& records) const {
  ReduceState state;
  for (SampleRecord& rec : records) fold_record(state, std::move(rec));
  return finish_reduce(std::move(state));
}

std::vector<faultsim::FaultSample> SsfEvaluator::draw_batch(
    Sampler& sampler, Rng& rng, std::size_t n) const {
  // Pre-draw the whole batch sequentially. Sampler and Rng are stateful and
  // not thread-safe; drawing on the calling thread keeps the random stream
  // bitwise-identical to the sequential engine for every thread count
  // (evaluation itself consumes no randomness).
  std::vector<faultsim::FaultSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      samples.push_back(sampler.draw(rng));
    } catch (const std::exception& e) {
      throw StatusError(ErrorCode::kSamplerFailed,
                        "sampler '" + sampler.name() + "' failed at draw " +
                            std::to_string(i) + ": " + e.what());
    }
  }
  return samples;
}

std::vector<std::unique_ptr<EvalScratch>> SsfEvaluator::make_scratch_pool(
    std::size_t n) const {
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(resolve_thread_count(config_.threads),
                                        std::max<std::size_t>(n, 1)));
  if (workers > 1) {
    // Materialize the netlist's lazily-derived data (topological order,
    // levels, fanouts) before the workers share it read-only.
    soc_->netlist().levels();
  }
  std::vector<std::unique_ptr<EvalScratch>> scratch;
  scratch.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    scratch.push_back(std::make_unique<EvalScratch>(*this));
  }
  return scratch;
}

SsfEvaluator::WorkerObservers SsfEvaluator::make_observers(
    std::size_t workers) const {
  WorkerObservers obs;
  if (config_.metrics != nullptr) obs.sinks.resize(workers);
  if (config_.trace != nullptr) obs.traces.resize(workers);
  return obs;
}

void SsfEvaluator::merge_observers(WorkerObservers&& observers) const {
  // Worker-index order: the merged counter totals are schedule-independent
  // anyway (each sample contributes the same increments wherever it ran),
  // but a fixed fold order keeps the aggregation itself deterministic.
  if (config_.metrics != nullptr) {
    for (const MetricsSink& sink : observers.sinks) {
      config_.metrics->merge(sink);
    }
    update_lane_occupancy(*config_.metrics);
  }
  if (config_.trace != nullptr) {
    for (TraceBuffer& buf : observers.traces) {
      config_.trace->merge(std::move(buf));
    }
  }
}

void SsfEvaluator::complete_sample(const SampleRecord& rec, std::size_t index,
                                   std::uint32_t worker, std::uint64_t t0,
                                   MetricsSink* sink,
                                   TraceBuffer* trace_buf) const {
  if (sink != nullptr || trace_buf != nullptr) {
    const std::uint64_t dur = monotonic_ns() - t0;
    if (sink != nullptr) sink->add_timer_ns(path_timer_name(rec.path), dur);
    if (trace_buf != nullptr) {
      trace_buf->record(outcome_path_name(rec.path), "sample", t0, dur, worker,
                        index);
    }
  }
  if (config_.progress != nullptr) {
    const bool failed = rec.path == OutcomePath::kFailed;
    config_.progress->record(failed ? 0.0 : rec.contribution,
                             rec.sample.weight, failed);
  }
  if (config_.on_sample) config_.on_sample(rec, index);
}

std::size_t SsfEvaluator::evaluate_wave(
    const faultsim::FaultSample* samples, SampleRecord* records, std::size_t n,
    std::size_t base, std::vector<std::unique_ptr<EvalScratch>>& scratch,
    WorkerObservers& observers) const {
  // Word-parallel batching: group samples that share an injection cycle te
  // so one restore + settle + bit-parallel sweep serves the whole group.
  // Eligibility mirrors the scalar flow exactly — a sample whose parameters
  // fail check_sample, that lands before the program starts, or that needs
  // multi-cycle impact keeps its scalar evaluation (a singleton unit).
  // Grouping is computed sequentially over the whole wave, so the unit list
  // — and with it every record — is identical at every thread count. Units
  // are numbered in order of their first (smallest) index.
  const std::size_t lane_cap = std::min<std::size_t>(config_.batch_lanes, 64);
  const bool batching = lane_cap >= 2 && technique_->supports_batch();
  std::vector<std::vector<std::size_t>> units;
  std::unordered_map<std::uint64_t, std::size_t> open;  // te -> open unit
  for (std::size_t i = 0; i < n; ++i) {
    const faultsim::FaultSample& s = samples[i];
    bool eligible = batching && s.impact_cycles == 1;
    if (eligible) {
      try {
        technique_->check_sample(s);
      } catch (const std::exception&) {
        eligible = false;  // the scalar path records the failure
      }
    }
    if (eligible && static_cast<std::uint64_t>(s.t) > target_cycle_) {
      eligible = false;  // early-masked: nothing to strike, stays scalar
    }
    if (!eligible) {
      units.push_back({i});
      continue;
    }
    const std::uint64_t te = target_cycle_ - static_cast<std::uint64_t>(s.t);
    const auto it = open.find(te);
    if (it != open.end() && units[it->second].size() < lane_cap) {
      units[it->second].push_back(i);
    } else {
      open[te] = units.size();  // full units are sealed and replaced
      units.push_back({i});
    }
  }

  // Workers pull units dynamically (sample cost varies by outcome path) and
  // write each record into its own slot with per-thread scratch, so the
  // schedule never reaches the results. Instrumentation writes only the
  // worker's own sink/trace slot (merged later), so observing a run cannot
  // perturb it. The stop flag is polled before every unit: once it flips,
  // each worker finishes at most the group in hand.
  std::vector<std::uint8_t> skipped(units.size(), 0);
  auto eval_units = [&](std::size_t worker, std::size_t b, std::size_t e) {
    MetricsSink* sink =
        observers.sinks.empty() ? nullptr : &observers.sinks[worker];
    TraceBuffer* trace_buf =
        observers.traces.empty() ? nullptr : &observers.traces[worker];
    const auto w = static_cast<std::uint32_t>(worker);
    auto eval_one = [&](std::size_t, std::size_t i) {
      const bool timing = sink != nullptr || trace_buf != nullptr;
      const std::uint64_t t0 = timing ? monotonic_ns() : 0;
      records[i] = evaluate_sample_isolated(samples[i], scratch[worker], sink);
      complete_sample(records[i], base + i, w, t0, sink, trace_buf);
    };
    for (std::size_t u = b; u < e; ++u) {
      if (config_.stop != nullptr &&
          config_.stop->load(std::memory_order_relaxed)) {
        skipped[u] = 1;
      } else if (units[u].size() == 1) {
        eval_one(worker, units[u][0]);
      } else {
        evaluate_group(samples, records, units[u], base, scratch[worker], sink,
                       trace_buf, w, eval_one);
      }
    }
  };
  parallel_for(units.size(), scratch.size(), /*grain=*/1, eval_units);
  // Every sample below the first skipped unit's first index belongs to an
  // earlier, evaluated unit: that index ends the contiguous prefix.
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (skipped[u] != 0) return units[u][0];
  }
  return n;
}

void SsfEvaluator::evaluate_group(
    const faultsim::FaultSample* samples, SampleRecord* records,
    const std::vector<std::size_t>& unit, std::size_t base,
    std::unique_ptr<EvalScratch>& scratch, MetricsSink* sink,
    TraceBuffer* trace_buf, std::uint32_t worker,
    const std::function<void(std::size_t, std::size_t)>& scalar_eval) const {
  const bool timing = sink != nullptr || trace_buf != nullptr;
  const std::uint64_t t0 = timing ? monotonic_ns() : 0;
  const std::uint64_t te =
      target_cycle_ - static_cast<std::uint64_t>(samples[unit[0]].t);

  // Shared phase: one restore, one gate-level settle, one bit-parallel
  // flip-set sweep for the whole group. No budget is charged here — the
  // per-lane finalization below replays the scalar charge sequence exactly,
  // so budget overruns fail lane-by-lane with scalar-identical records.
  EvalScratch& sc = *scratch;
  std::uint64_t warmup = 0;
  bool halted_at_te = false;
  bool shared_ok = true;
  try {
    {
      ScopeTimer timer(sink, "eval.restore_ns");
      golden_->restore_into(sc.machine_, te, &warmup);
    }
    if (sink != nullptr) {
      sink->add_counter("rtl.warmup_cycles", warmup);
      sink->add_counter("rtl.restore_bytes", golden_->restore_byte_size());
    }
    halted_at_te = sc.machine_.halted();
    if (!halted_at_te) {
      ScopeTimer timer(sink, "eval.gate_inject_ns");
      const std::uint64_t settles_before = sc.gate_.total_settles();
      sc.gate_.load_state(sc.machine_.state());
      sc.gate_.mutable_ram() = sc.machine_.ram();
      sc.gate_.settle_inputs();
      sc.gate_.broadcast_settled(sc.words_);
      sc.lane_samples_.clear();
      for (const std::size_t i : unit) sc.lane_samples_.push_back(samples[i]);
      technique_->flip_set_batch(sc.words_, sc.technique_, sc.lane_samples_,
                                 sc.lane_flips_);
      sc.machine_.step();
      if (sink != nullptr) {
        sink->add_counter("gate.injection_cycles", 1);
        sink->add_counter("gate.settle_passes",
                          sc.gate_.total_settles() - settles_before);
      }
    } else {
      // The loop body never runs in the scalar flow either: every lane is
      // masked with an empty flip set.
      sc.lane_flips_.assign(unit.size(), std::vector<netlist::NodeId>{});
    }
  } catch (const std::exception&) {
    shared_ok = false;
  }
  if (!shared_ok) {
    // The shared work failed deterministically (restore/settle/flip-set);
    // the scalar replay reproduces the identical failure — and its retry /
    // kFailed record — per sample.
    for (const std::size_t i : unit) scalar_eval(worker, i);
    return;
  }
  if (sink != nullptr) {
    sink->add_counter("eval.batch_groups", 1);
    sink->add_counter("eval.batch_lanes", unit.size());
    sink->add_counter("eval.batch_restore_saved", unit.size() - 1);
  }

  const RegisterMap& map = Machine::reg_map();
  for (std::size_t l = 0; l < unit.size(); ++l) {
    const std::size_t i = unit[l];
    const faultsim::FaultSample& s = samples[i];
    SampleRecord rec;
    bool done = false;
    try {
      rec.sample = s;
      rec.te = te;
      // Replay the scalar budget charges: warm-up after restore, then one
      // cycle for the injection cycle (skipped when the machine was already
      // halted, exactly as the scalar loop guard skips it).
      EvalBudget budget(config_.cycle_budget, config_.sample_deadline_ms);
      budget.charge_cycles(warmup);
      if (!halted_at_te) budget.charge_cycles(1);
      std::set<int> flipped;
      for (const netlist::NodeId dff : sc.lane_flips_[l]) {
        const int bit = soc_->flat_bit_for_dff(dff);
        FAV_CHECK(bit >= 0);
        flipped.insert(bit);
      }
      rec.flipped_bits.assign(flipped.begin(), flipped.end());
      if (rec.flipped_bits.empty()) {
        rec.path = OutcomePath::kMasked;
        rec.success = false;
      } else {
        // Only diverging lanes pay for an RTL resume: copy the shared
        // post-injection state, overlay this lane's errors, and decide.
        sc.resume_ = sc.machine_;
        for (const int bit : rec.flipped_bits) {
          map.flip_bit(sc.resume_.mutable_state(), bit);
        }
        rec.success = decide_outcome(sc.resume_, rec.flipped_bits, te + 1,
                                     &rec.path, budget, sink);
      }
      rec.contribution = rec.success ? s.weight : 0.0;
      done = true;
    } catch (const StatusError& e) {
      if (e.code() == ErrorCode::kCycleBudgetExceeded) {
        // Deterministic overrun: the scalar path records it without retry.
        rec = SampleRecord{};
        rec.sample = s;
        rec.path = OutcomePath::kFailed;
        rec.fail_code = e.code();
        rec.fail_reason = e.what();
        done = true;
      }
    } catch (const std::exception&) {
      // Fall through to the scalar replay below.
    }
    if (!done) {
      // Retryable failure (deadline, check failure, ...): the scalar replay
      // owns the full isolation protocol, including the fresh-scratch retry.
      scalar_eval(worker, i);
      continue;
    }
    records[i] = std::move(rec);
    complete_sample(records[i], base + i, worker, t0, sink, trace_buf);
  }
}

Result<SsfResult> SsfEvaluator::run_waves(
    std::size_t n, std::size_t shard, ReduceState state, JournalWriter* writer,
    const SampleSource& wave_samples) const {
  std::vector<std::unique_ptr<EvalScratch>> scratch;
  {
    ScopeTimer timer(config_.metrics, "run.scratch_setup_ns");
    scratch = make_scratch_pool(n - state.index);
  }
  WorkerObservers observers = make_observers(scratch.size());
  // A wave is a whole number of shards, so every wave starts on a shard
  // boundary and shard frames keep the byte layout of per-shard commits.
  const std::size_t wave =
      shard * std::max<std::size_t>(1, kWaveSamples / shard);
  std::uint64_t reduce_ns = 0;
  std::vector<SampleRecord> records;
  while (state.index < n) {
    const std::size_t lo = state.index;
    const std::size_t len = std::min(wave, n - lo);
    records.clear();
    records.resize(len);
    const faultsim::FaultSample* samples = wave_samples(lo, lo + len);
    const std::size_t evaluated =
        evaluate_wave(samples, records.data(), len, lo, scratch, observers);
    // Only whole shards of the evaluated prefix are committed and reduced
    // (the campaign's short last shard only once the wave completed), so an
    // interrupted run leaves exactly the journal a crash would and resume
    // continues from the first missing index either way.
    std::size_t keep = evaluated == len ? len : evaluated - evaluated % shard;
    for (std::size_t s = 0; writer != nullptr && s < keep; s += shard) {
      const Status appended =
          writer->append_shard(lo + s, &records[s], std::min(shard, keep - s));
      if (appended.is_ok()) continue;
      if (appended.code() != ErrorCode::kStorageFull) return appended;
      // The disk filled (or failed) mid-campaign. Everything journaled so
      // far is durable, so stop gracefully with a partial, resumable result
      // instead of erroring out — exactly like a stop-flag interruption.
      if (config_.metrics != nullptr) {
        config_.metrics->add_counter("journal.storage_full_stops");
      }
      keep = s;
      break;
    }
    const std::uint64_t t0 = monotonic_ns();
    for (std::size_t i = 0; i < keep; ++i) {
      fold_record(state, std::move(records[i]));
    }
    reduce_ns += monotonic_ns() - t0;
    if (keep < len) break;
  }
  merge_observers(std::move(observers));
  const std::uint64_t t0 = monotonic_ns();
  SsfResult result = finish_reduce(std::move(state));
  if (config_.metrics != nullptr) {
    config_.metrics->add_timer_ns("run.reduce_ns",
                                  reduce_ns + monotonic_ns() - t0);
  }
  result.interrupted = result.evaluated < n;
  return result;
}

Status SsfEvaluator::open_journal(const JournalOptions& options, std::size_t n,
                                  const SampleSource& wave_samples,
                                  ReduceState& state,
                                  JournalWriter& writer) const {
  JournalMeta meta;
  meta.fingerprint = options.fingerprint;
  meta.total_samples = n;
  meta.context = options.context;
  std::uint64_t valid_bytes = 0;
  if (options.resume) {
    Result<JournalContents> loaded = read_journal(options.dir);
    if (!loaded.is_ok()) return loaded.status();
    JournalContents& j = loaded.value();
    valid_bytes = j.valid_bytes;
    if (j.meta.fingerprint != meta.fingerprint ||
        j.meta.total_samples != meta.total_samples) {
      return Status(ErrorCode::kJournalCorrupt,
                    "journal belongs to a different campaign (fingerprint or "
                    "sample count mismatch)");
    }
    // Cross-check the journaled prefix against the re-drawn (or
    // re-enumerated) stream: a mismatch means the sampler, seed, config or
    // bound space changed under the journal.
    const std::size_t done = std::min(j.records.size(), n);
    for (std::size_t lo = 0; lo < done; lo += kWaveSamples) {
      const std::size_t hi = std::min(lo + kWaveSamples, done);
      const faultsim::FaultSample* expected = wave_samples(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) {
        if (!sample_matches(j.records[i].sample, expected[i - lo])) {
          return Status(ErrorCode::kJournalCorrupt,
                        "journaled sample " + std::to_string(i) +
                            " does not match the re-drawn sample stream");
        }
        fold_record(state, std::move(j.records[i]));
      }
    }
  }
  writer.set_metrics(config_.metrics);
  const Status open = options.resume && state.index > 0
                          ? writer.open_append(options.dir, valid_bytes)
                          : writer.open_fresh(options.dir, meta);
  if (!open.is_ok()) return open;
  if (config_.metrics != nullptr) {
    config_.metrics->add_counter("journal.resumed_records", state.index);
  }
  return Status::ok();
}

SsfResult SsfEvaluator::run_batch(
    std::vector<faultsim::FaultSample> samples) const {
  // The sample list is the whole contract: any caller that can enumerate or
  // draw FaultSamples (MC samplers, exact enumeration drivers, replay tools)
  // inherits the full pipeline — worker pool, isolation, observability and
  // the deterministic sample-index-ordered reduction.
  const SampleSource drawn = [&samples](std::size_t lo, std::size_t) {
    return samples.data() + lo;
  };
  return run_waves(samples.size(), 1, {}, nullptr, drawn).value();
}

SsfResult SsfEvaluator::run(Sampler& sampler, Rng& rng, std::size_t n) const {
  ScopeTimer run_timer(config_.metrics, "run.total_ns");
  std::vector<faultsim::FaultSample> samples;
  {
    ScopeTimer timer(config_.metrics, "run.draw_batch_ns");
    samples = draw_batch(sampler, rng, n);
  }
  return run_batch(std::move(samples));
}

namespace {

Status check_journal_options(const JournalOptions& options) {
  if (options.dir.empty()) {
    return Status(ErrorCode::kInvalidArgument, "journal directory is empty");
  }
  if (options.shard_size == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "journal shard_size must be > 0");
  }
  return Status::ok();
}

// Effective sweep length: the bound space clipped by --space-limit.
std::size_t exhaustive_total(std::uint64_t space, std::uint64_t space_limit) {
  const std::uint64_t n = space_limit == 0 ? space
                                           : std::min(space, space_limit);
  return static_cast<std::size_t>(n);
}

}  // namespace

Result<SsfResult> SsfEvaluator::run_journaled(
    Sampler& sampler, Rng& rng, std::size_t n,
    const JournalOptions& options) const {
  ScopeTimer run_timer(config_.metrics, "run.total_ns");
  const Status valid = check_journal_options(options);
  if (!valid.is_ok()) return valid;
  std::vector<faultsim::FaultSample> samples;
  try {
    ScopeTimer timer(config_.metrics, "run.draw_batch_ns");
    samples = draw_batch(sampler, rng, n);
  } catch (const StatusError& e) {
    return e.status();
  }
  const SampleSource drawn = [&samples](std::size_t lo, std::size_t) {
    return samples.data() + lo;
  };
  ReduceState state;
  JournalWriter writer;
  const Status opened = open_journal(options, n, drawn, state, writer);
  if (!opened.is_ok()) return opened;
  return run_waves(n, options.shard_size, std::move(state), &writer, drawn);
}

SsfResult SsfEvaluator::reduce_records(
    std::vector<SampleRecord> records) const {
  return reduce(std::move(records));
}

SsfEvaluator::SampleSource SsfEvaluator::enumerator(
    std::uint64_t space_limit, std::size_t* n) const {
  const std::uint64_t space = technique_->space_size();
  if (space == 0) {
    throw StatusError(ErrorCode::kInvalidArgument,
                      std::string("technique '") + technique_->name() +
                          "' has no bound fault space (call bind_space "
                          "before run_exhaustive)");
  }
  *n = exhaustive_total(space, space_limit);
  // The enumeration is streamed wave by wave into one reused buffer: memory
  // stays O(wave) no matter how large the grid is.
  auto buffer = std::make_shared<std::vector<faultsim::FaultSample>>();
  return [this, buffer](std::size_t lo, std::size_t hi) {
    ScopeTimer timer(config_.metrics, "run.draw_batch_ns");
    technique_->enumerate(lo, hi, *buffer);
    return buffer->data();
  };
}

SsfResult SsfEvaluator::run_exhaustive(std::uint64_t space_limit) const {
  ScopeTimer run_timer(config_.metrics, "run.total_ns");
  std::size_t n = 0;
  const SampleSource enumerate = enumerator(space_limit, &n);
  SsfResult result = run_waves(n, 1, {}, nullptr, enumerate).value();
  result.fault_space_size = technique_->space_size();
  return result;
}

Result<SsfResult> SsfEvaluator::run_exhaustive_journaled(
    const JournalOptions& options, std::uint64_t space_limit) const {
  ScopeTimer run_timer(config_.metrics, "run.total_ns");
  const Status valid = check_journal_options(options);
  if (!valid.is_ok()) return valid;
  std::size_t n = 0;
  SampleSource enumerate;
  try {
    enumerate = enumerator(space_limit, &n);
  } catch (const StatusError& e) {
    return e.status();
  }
  ReduceState state;
  JournalWriter writer;
  const Status opened = open_journal(options, n, enumerate, state, writer);
  if (!opened.is_ok()) return opened;
  Result<SsfResult> result =
      run_waves(n, options.shard_size, std::move(state), &writer, enumerate);
  if (result.is_ok()) {
    result.value().fault_space_size = technique_->space_size();
  }
  return result;
}

}  // namespace fav::mc
