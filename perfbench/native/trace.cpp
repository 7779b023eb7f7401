// Traced per-layer run of one benchmark workload.
//
// Times calls into each module's public functions on the workload's own
// inputs: its drawn batch, its te-groups (samples sharing one injection
// cycle), its flip sets and its journal records. Every timed call is a span
// (name, start, end, parent, run id) kept in memory and written to `--spans`
// when the run ends; the per-layer figures go to `--out` as one JSON object.
// Nothing here changes the program: it only calls what the library exports.
//
//   pb_trace --workload sampled-warm|exhaustive-cold|served-mix --seed S
//            --samples N --cache WARM_ARTIFACT --journal DIR --workdir DIR
//            --spans FILE --out FILE
//
// `--journal` is the journal a campaign of this workload wrote (one
// campaign.fj, or the worker-*.fj files of a supervised sweep); its records
// supply the flip sets and outcome paths. `--cache` must hold a valid
// pre-characterization artifact; `--workdir` receives scratch files.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/framework.h"
#include "mc/journal.h"
#include "mc/serve.h"
#include "precharac/artifact.h"
#include "soc/benchmark.h"
#include "soc/gate_machine.h"
#include "util/io.h"
#include "util/rng.h"

namespace {

using namespace fav;

using Batch = std::vector<faultsim::FaultSample>;
using Metrics = std::map<std::string, double>;
using NodeSet = std::vector<netlist::NodeId>;
using Words = netlist::WordSimulator;

/// The shard files of a supervised campaign's workers.
constexpr const char* kWorkerFiles = "worker-*.fj";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t samples = 0;
  std::string cache;
  std::string journal;
  std::string workdir;
  std::string spans;
  std::string out;
};

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "pb_trace: %s\n", msg.c_str());
  std::exit(1);
}

void check(const Status& status, const std::string& what) {
  if (!status.is_ok()) fail(what + ": " + status.to_string());
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--samples") {
      a.samples = std::stoul(value);
    } else if (flag == "--cache") {
      a.cache = value;
    } else if (flag == "--journal") {
      a.journal = value;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--out") {
      a.out = value;
    } else {
      fail("unknown option " + flag);
    }
  }
  if (a.workload != "sampled-warm" && a.workload != "exhaustive-cold" &&
      a.workload != "served-mix") {
    fail("unknown workload '" + a.workload + "'");
  }
  if (a.cache.empty() || a.journal.empty() || a.workdir.empty() ||
      a.spans.empty() || a.out.empty()) {
    fail("--cache, --journal, --workdir, --spans and --out are required");
  }
  return a;
}

/// In-memory span recorder. Spans nest by scope: the innermost open span is
/// the parent of the next one.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name)
        : tracer_(tracer), id_(tracer.spans_.size()), parent_(tracer.open_) {
      tracer_.spans_.push_back({name, now_ns(), 0, parent_});
      tracer_.open_ = static_cast<long>(id_);
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span now (once) and returns its duration in seconds.
    double close() {
      Span& s = tracer_.spans_[id_];
      if (s.end_ns == 0) {
        s.end_ns = now_ns();
        tracer_.open_ = parent_;
      }
      return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }

   private:
    Tracer& tracer_;
    std::size_t id_;
    long parent_;
  };

  /// Runs `body` `reps` times, each in a span named `name`; returns the
  /// median duration in seconds.
  double time(const std::string& name, int reps,
              const std::function<void()>& body) {
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
      Scope span(*this, name);
      body();
      secs.push_back(span.close());
    }
    return median(std::move(secs));
  }

  static double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }

  void write(const std::string& path, const std::string& run_id) const {
    const std::string run = io::json_escape(run_id);
    std::ofstream out(path, std::ios::trunc);
    out << "{\"run\": \"" << run << "\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out << ",\n";
      out << "{\"id\": " << i << ", \"name\": \"" << io::json_escape(s.name);
      out << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns;
      out << ", \"parent\": " << s.parent << ", \"run\": \"" << run << "\"}";
    }
    out << "\n]}\n";
    if (!out) fail("cannot write " + path);
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    long parent;
  };

  static std::uint64_t now_ns() {
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
  }

  std::vector<Span> spans_;
  long open_ = -1;
};

core::FrameworkConfig framework_config(const std::string& technique,
                                       const std::string& cache) {
  core::FrameworkConfig cfg;
  cfg.technique = technique;
  cfg.precharac_cache_path = cache;
  cfg.log = [](const std::string&) {};
  return cfg;
}

/// Up to 64 same-te samples: the unit one restore + settle + sweep serves.
struct TeGroup {
  std::uint64_t te = 0;
  std::vector<faultsim::FaultSample> lanes;
};

/// Groups `batch` by injection cycle and cuts each te's samples into chunks
/// of at most 64 lanes. Keeps at most `max_groups`: full groups first, taken
/// round-robin over te so a capped set still spans the attack window.
std::vector<TeGroup> te_groups(const Batch& batch, std::uint64_t target_cycle,
                               std::size_t max_groups) {
  std::map<std::uint64_t, Batch> by_te;
  for (const faultsim::FaultSample& s : batch) {
    by_te[target_cycle - static_cast<std::uint64_t>(s.t)].push_back(s);
  }
  struct Ranked {
    bool partial;
    std::size_t chunk;
    TeGroup group;
  };
  std::vector<Ranked> ranked;
  for (const auto& [te, all] : by_te) {
    for (std::size_t i = 0; i < all.size(); i += 64) {
      const std::size_t end = std::min(all.size(), i + 64);
      TeGroup group;
      group.te = te;
      group.lanes.assign(all.begin() + static_cast<std::ptrdiff_t>(i),
                         all.begin() + static_cast<std::ptrdiff_t>(end));
      ranked.push_back(Ranked{end - i < 64, i / 64, std::move(group)});
    }
  }
  const auto by_rank = [](const Ranked& x, const Ranked& y) {
    return std::tie(x.partial, x.chunk) < std::tie(y.partial, y.chunk);
  };
  std::stable_sort(ranked.begin(), ranked.end(), by_rank);
  std::vector<TeGroup> picked;
  for (Ranked& r : ranked) {
    if (picked.size() >= max_groups) break;
    picked.push_back(std::move(r.group));
  }
  return picked;
}

/// Per-group gate-layer timings in microseconds: checkpoint restore,
/// injection-cycle settle + broadcast, and the flip-set computation.
struct GroupTimes {
  std::vector<double> restore_us;
  std::vector<double> settle_us;
  std::vector<double> flip_us;       // per call
  std::vector<double> flip_us_full;  // per call, 64-lane groups only
  double flip_total_us = 0;
  double flip_lanes = 0;
};

using FlipFn = std::function<void(const Words&, const TeGroup&)>;

/// Restores, settles and runs `flips` (named `flip_name`) for every group on
/// one framework's machines, the way the evaluator's batch path does.
GroupTimes time_groups(Tracer& tracer, const core::FaultAttackEvaluator& fw,
                       const std::vector<TeGroup>& groups,
                       const std::string& flip_name, const FlipFn& flips) {
  GroupTimes t;
  rtl::Machine machine(fw.golden().program());
  soc::GateLevelMachine gate(fw.soc(), fw.golden().program());
  Words words(fw.soc().netlist());
  for (const TeGroup& g : groups) {
    Tracer::Scope group_span(tracer, "te_group");
    Tracer::Scope restore(tracer, "rtl.restore_into");
    fw.golden().restore_into(machine, g.te);
    t.restore_us.push_back(restore.close() * 1e6);
    if (machine.halted()) continue;
    gate.load_state(machine.state());
    gate.mutable_ram() = machine.ram();
    Tracer::Scope settle(tracer, "soc.settle");
    gate.settle_inputs();
    gate.broadcast_settled(words);
    t.settle_us.push_back(settle.close() * 1e6);
    Tracer::Scope flip(tracer, flip_name);
    flips(words, g);
    const double us = flip.close() * 1e6;
    t.flip_us.push_back(us);
    if (g.lanes.size() == 64) t.flip_us_full.push_back(us);
    t.flip_total_us += us;
    t.flip_lanes += static_cast<double>(g.lanes.size());
  }
  return t;
}

/// The records of the campaign journal at `dir`: campaign.fj when present,
/// else the merged worker-*.fj shard files of a supervised campaign.
std::vector<mc::SampleRecord> load_records(const std::string& dir) {
  if (std::filesystem::exists(std::filesystem::path(dir) / "campaign.fj")) {
    Result<mc::JournalContents> r = mc::read_journal(dir);
    check(r.status(), "read_journal " + dir);
    return std::move(r.value().records);
  }
  Result<mc::JournalContents> r = mc::JournalReader::merge(dir, kWorkerFiles);
  check(r.status(), "merge " + dir);
  return std::move(r.value().records);
}

precharac::PrecharacBundle bundle_of(const core::FaultAttackEvaluator& fw) {
  precharac::PrecharacBundle b;
  b.responding_signal = fw.cone().responding_signal();
  b.fanin_frames = fw.cone().fanin_frames();
  b.fanout_frames = fw.cone().fanout_frames();
  b.signature_cycles = fw.signatures().cycles();
  const netlist::NodeId nodes = fw.soc().netlist().node_count();
  for (netlist::NodeId id = 0; id < nodes; ++id) {
    b.signatures.push_back(fw.signatures().signature(id));
  }
  b.charac_config = fw.config().characterization;
  b.bits = fw.characterization().raw_bits();
  b.characterized = fw.characterization().raw_done();
  b.memory_bit_potency = fw.config().sampling.memory_bit_potency;
  return b;
}

/// core, gen+soc, layout, rtl, netlist, precharac: everything a framework
/// builds before evaluation, warm and cold.
void time_setup(Tracer& tracer, const Args& a,
                const core::FaultAttackEvaluator& fw, Metrics& m) {
  const soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  const std::string cold = a.workdir + "/cold-artifact.bin";
  const auto cold_framework = [&] {
    std::filesystem::remove(cold);
    std::filesystem::remove(cold + ".lock");
    core::FaultAttackEvaluator f(bench, framework_config("radiation", cold));
  };
  m["core.framework_cold_s"] = tracer.time("core.cold", 1, cold_framework);
  const auto warm_framework = [&] {
    core::FaultAttackEvaluator f(bench, framework_config("radiation", a.cache));
    if (f.precharac_cache().outcome != "hit") fail("warm cache missed");
  };
  m["core.framework_warm_s"] = tracer.time("core.warm", 3, warm_framework);

  const auto elaborate = [] { soc::SocNetlist soc; };
  m["soc.elaborate_s"] = tracer.time("soc.SocNetlist", 3, elaborate);
  const auto place = [&] { layout::Placement p(fw.soc().netlist()); };
  m["layout.place_s"] = tracer.time("layout.Placement", 3, place);
  const core::FrameworkConfig& cfg = fw.config();
  const auto golden = [&] {
    rtl::GoldenRun g(bench.program, bench.max_cycles, cfg.checkpoint_interval);
  };
  m["rtl.golden_s"] = tracer.time("rtl.GoldenRun", 3, golden);

  const netlist::Netlist& nl = fw.soc().netlist();
  const netlist::NodeId rs = nl.find_or_throw("mpu_viol");
  const auto cone = [&] {
    netlist::UnrolledCone c(nl, rs, cfg.cone_fanin_depth,
                            cfg.cone_fanout_depth);
  };
  m["netlist.cone_s"] = tracer.time("netlist.UnrolledCone", 1, cone);
  const rtl::Program synthetic = soc::make_synthetic_workload();
  const auto signatures = [&] {
    precharac::SignatureTrace s(fw.soc(), synthetic, cfg.precharac_cycles);
  };
  m["precharac.signatures_s"] =
      tracer.time("precharac.SignatureTrace", 1, signatures);
  const rtl::GoldenRun synthetic_golden(synthetic, cfg.precharac_cycles,
                                        cfg.checkpoint_interval);
  const auto characterize = [&] {
    precharac::RegisterCharacterization c(synthetic_golden,
                                          cfg.characterization);
  };
  m["precharac.characterization_s"] =
      tracer.time("precharac.RegisterCharacterization", 1, characterize);

  const std::uint64_t fingerprint =
      precharac::precharac_fingerprint(fw.precharac_key());
  const precharac::PrecharacBundle bundle = bundle_of(fw);
  const std::string saved = a.workdir + "/saved-artifact.bin";
  const auto save = [&] {
    check(precharac::save_artifact(saved, fingerprint, "pb_trace", bundle),
          "save_artifact");
  };
  m["precharac.artifact_save_s"] =
      tracer.time("precharac.save_artifact", 3, save);
  const auto load = [&] {
    if (precharac::load_artifact(a.cache, fingerprint).outcome !=
        precharac::ArtifactOutcome::kHit) {
      fail("load_artifact missed " + a.cache);
    }
  };
  m["precharac.artifact_load_s"] =
      tracer.time("precharac.load_artifact", 3, load);
}

/// mc: the workload's batch, drawn from its sampler (or enumerated for the
/// sweep) exactly as the campaign drew it.
Batch time_draw(Tracer& tracer, const Args& a,
                const core::FaultAttackEvaluator& fw, Metrics& m) {
  Batch batch;
  if (a.workload == "exhaustive-cold") {
    const std::uint64_t space = fw.bind_exhaustive_space(50, 1.5);
    const auto enumerate = [&] {
      batch.clear();
      fw.technique().enumerate(0, space, batch);
    };
    m["mc.draw_s"] = tracer.time("mc.enumerate", 3, enumerate);
    return batch;
  }
  const core::SamplerSelection sel = fw.make_sampler_with_fallback(
      fw.subblock_attack_model(1.5, 50), "importance");
  const auto draw = [&] {
    Rng rng(a.seed);
    batch = fw.evaluator().draw_batch(*sel.sampler, rng, a.samples);
  };
  m["mc.draw_s"] = tracer.time("mc.draw_batch", 3, draw);
  return batch;
}

/// rtl, soc, faultsim: restore, settle and radiation sweep per te-group.
void time_gate_layer(Tracer& tracer, const core::FaultAttackEvaluator& fw,
                     const Batch& batch, Metrics& m) {
  Tracer::Scope section(tracer, "gate_layer");
  const faultsim::InjectionSimulator& injector = fw.injector();
  const double period = injector.timing().clock_period();
  faultsim::BatchInjectionScratch scratch;
  std::vector<NodeSet> struck(64);
  std::vector<double> strike_times(64);
  std::vector<NodeSet> flipped;
  const FlipFn sweep = [&](const Words& words, const TeGroup& g) {
    const std::size_t lanes = g.lanes.size();
    for (std::size_t l = 0; l < lanes; ++l) {
      const faultsim::FaultSample& s = g.lanes[l];
      fw.placement().nodes_within(s.center, s.radius, struck[l]);
      strike_times[l] = s.strike_frac * period;
    }
    const std::span<const NodeSet> lane_struck(struck.data(), lanes);
    const std::span<const double> lane_times(strike_times.data(), lanes);
    injector.inject_batch(words, lane_struck, lane_times, scratch, flipped);
  };
  const std::vector<TeGroup> groups = te_groups(batch, fw.target_cycle(), 96);
  const GroupTimes t = time_groups(tracer, fw, groups, "faultsim.sweep", sweep);
  m["rtl.restore_us"] = Tracer::median(t.restore_us);
  m["soc.settle_us"] = Tracer::median(t.settle_us);
  m["faultsim.sweep64_us"] =
      Tracer::median(t.flip_us_full.empty() ? t.flip_us : t.flip_us_full);
  m["faultsim.sweep_lane_us"] = t.flip_total_us / std::max(1.0, t.flip_lanes);
}

/// Glitch flip sets: a framework of `technique`, a batch drawn from its
/// uniform sampler with the workload seed, timed per te-group.
double glitch_flip_us(Tracer& tracer, const Args& a,
                      const std::string& technique) {
  Tracer::Scope section(tracer, "faultsim." + technique);
  const core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark(),
                                      framework_config(technique, a.cache));
  const core::SamplerSelection sel =
      technique == "clock-glitch"
          ? fw.make_sampler_with_fallback(fw.glitch_attack_model(), "random")
          : fw.make_sampler_with_fallback(fw.voltage_attack_model(), "random");
  Rng rng(a.seed);
  const auto batch = fw.evaluator().draw_batch(*sel.sampler, rng, 2000);
  faultsim::TechniqueScratch scratch;
  std::vector<NodeSet> flipped;
  const FlipFn flip = [&](const Words& words, const TeGroup& g) {
    fw.technique().flip_set_batch(words, scratch, g.lanes, flipped);
  };
  const std::vector<TeGroup> groups = te_groups(batch, fw.target_cycle(), 48);
  const GroupTimes t = time_groups(tracer, fw, groups, "faultsim.flip", flip);
  return Tracer::median(t.flip_us);
}

/// mc: the outcome decision for recorded flip sets, split by the path it
/// returns. Returns the records it timed.
std::vector<const mc::SampleRecord*> time_outcomes(
    Tracer& tracer, const core::FaultAttackEvaluator& fw,
    const std::vector<mc::SampleRecord>& records, Metrics& m) {
  Tracer::Scope section(tracer, "mc.outcome_for_flips");
  std::vector<const mc::SampleRecord*> timed;
  std::vector<double> analytical_us;
  std::vector<double> rtl_us;
  for (const mc::SampleRecord& rec : records) {
    if (rec.flipped_bits.empty()) continue;
    if (analytical_us.size() >= 400 && rtl_us.size() >= 400) break;
    mc::OutcomePath path = mc::OutcomePath::kMasked;
    Tracer::Scope span(tracer, "outcome");
    fw.evaluator().outcome_for_flips(rec.te, rec.flipped_bits, &path);
    const double us = span.close() * 1e6;
    timed.push_back(&rec);
    if (path == mc::OutcomePath::kAnalytical) analytical_us.push_back(us);
    if (path == mc::OutcomePath::kRtl) rtl_us.push_back(us);
  }
  m["mc.outcome_analytical_us"] = Tracer::median(std::move(analytical_us));
  m["mc.outcome_rtl_us"] = Tracer::median(std::move(rtl_us));
  return timed;
}

/// tracing: what the tracer itself costs. The outcome calls of `calls` run
/// as one loop under a single clock, then as the same loop with a span per
/// call; passes alternate. Returns the ratio of the median pass times, minus
/// one.
double trace_overhead(Tracer& tracer, const core::FaultAttackEvaluator& fw,
                      const std::vector<const mc::SampleRecord*>& calls) {
  if (calls.empty()) fail("no recorded flip set to time the tracer on");
  const auto pass = [&](bool traced) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const mc::SampleRecord* rec : calls) {
      if (traced) {
        Tracer::Scope span(tracer, "outcome");
        fw.evaluator().outcome_for_flips(rec->te, rec->flipped_bits);
      } else {
        fw.evaluator().outcome_for_flips(rec->te, rec->flipped_bits);
      }
    }
    const auto t = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(t).count();
  };
  pass(false);  // warm-up
  std::vector<double> plain;
  std::vector<double> traced;
  for (int r = 0; r < 7; ++r) {
    plain.push_back(pass(false));
    traced.push_back(pass(true));
  }
  return Tracer::median(std::move(traced)) / Tracer::median(std::move(plain)) -
         1.0;
}

/// mc journal: the records journaled the way a two-worker supervised
/// campaign does (256-sample shards alternating over two files), then merged.
void time_journal(Tracer& tracer, const Args& a,
                  const std::vector<mc::SampleRecord>& records, Metrics& m) {
  Tracer::Scope section(tracer, "mc.journal");
  const std::string dir = a.workdir + "/journal-replay";
  std::filesystem::remove_all(dir);
  mc::JournalMeta meta;
  meta.fingerprint = 1;
  meta.total_samples = records.size();
  meta.context = "pb_trace";
  mc::JournalWriter writers[2];
  check(writers[0].open_fresh(dir, meta, "worker-0.fj"), "open_fresh");
  check(writers[1].open_fresh(dir, meta, "worker-1.fj"), "open_fresh");
  std::vector<double> commit_us;
  for (std::size_t first = 0; first < records.size(); first += 256) {
    const std::size_t count =
        std::min<std::size_t>(256, records.size() - first);
    mc::JournalWriter& writer = writers[(first / 256) % 2];
    Tracer::Scope span(tracer, "mc.journal_append");
    const Status s = writer.append_shard(first, &records[first], count);
    commit_us.push_back(span.close() * 1e6);
    check(s, "append_shard");
  }
  m["mc.journal_commit_us"] = Tracer::median(std::move(commit_us));
  const auto merge = [&] {
    Result<mc::JournalContents> r = mc::JournalReader::merge(dir, kWorkerFiles);
    check(r.status(), "merge");
    if (r.value().records.size() != records.size()) fail("merge lost records");
  };
  m["mc.journal_merge_s"] = tracer.time("mc.journal_merge", 1, merge);
  std::filesystem::remove_all(dir);
}

/// mc serve: the three fsynced ledger appends of each served campaign.
void time_ledger(Tracer& tracer, const Args& a, Metrics& m) {
  Tracer::Scope section(tracer, "mc.serve.ledger");
  const std::string path = a.workdir + "/ledger.fvl";
  std::filesystem::remove(path);
  Result<mc::CampaignLedger> opened = mc::CampaignLedger::open(path);
  check(opened.status(), "ledger open");
  mc::CampaignLedger& ledger = opened.value();
  const std::vector<std::string> argv = {"evaluate", "--samples", "2000"};
  std::vector<double> append_us;
  for (std::uint64_t id = 1; id <= 40; ++id) {
    for (int step = 0; step < 3; ++step) {
      Tracer::Scope span(tracer, "mc.serve.ledger_append");
      Status s;
      if (step == 0) {
        s = ledger.accepted(id, argv);
      } else if (step == 1) {
        s = ledger.running(id);
      } else {
        s = ledger.finished(id, 0);
      }
      append_us.push_back(span.close() * 1e6);
      check(s, "ledger append");
    }
  }
  m["mc.serve.ledger_append_us"] = Tracer::median(std::move(append_us));
}

void write_metrics(const std::string& path, const Metrics& m) {
  std::ofstream out(path, std::ios::trunc);
  const char* sep = "{";
  for (const auto& [name, value] : m) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << sep << "\"" << name << "\": " << buf;
    sep = ", ";
  }
  out << "}\n";
  if (!out) fail("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Tracer tracer;
  Metrics m;
  Tracer::Scope root(tracer, "pb_trace." + a.workload);
  const core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark(),
                                      framework_config("radiation", a.cache));
  time_setup(tracer, a, fw, m);
  const Batch batch = time_draw(tracer, a, fw, m);

  std::vector<mc::SampleRecord> records;
  {
    Tracer::Scope span(tracer, "load_records");
    records = load_records(a.journal);
  }
  if (records.size() != batch.size()) {
    fail("journal holds " + std::to_string(records.size()) +
         " records, the batch " + std::to_string(batch.size()));
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!mc::sample_matches(records[i].sample, batch[i])) {
      fail("journal record " + std::to_string(i) + " differs from the batch");
    }
  }
  std::vector<double> reduce_s;
  for (int r = 0; r < 3; ++r) {
    std::vector<mc::SampleRecord> copy = records;
    Tracer::Scope span(tracer, "mc.reduce_records");
    const mc::SsfResult res = fw.evaluator().reduce_records(std::move(copy));
    reduce_s.push_back(span.close());
    if (res.evaluated != records.size()) fail("reduce lost records");
  }
  m["mc.reduce_s"] = Tracer::median(std::move(reduce_s));

  time_gate_layer(tracer, fw, batch, m);
  m["faultsim.glitch_flip_us"] = glitch_flip_us(tracer, a, "clock-glitch");
  m["faultsim.voltage_flip_us"] = glitch_flip_us(tracer, a, "voltage-glitch");
  const std::vector<const mc::SampleRecord*> calls =
      time_outcomes(tracer, fw, records, m);
  m["trace.overhead_frac"] = trace_overhead(tracer, fw, calls);
  time_journal(tracer, a, records, m);
  time_ledger(tracer, a, m);

  root.close();
  tracer.write(a.spans, a.workload + "-seed" + std::to_string(a.seed));
  write_metrics(a.out, m);
  return 0;
}
