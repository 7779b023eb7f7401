// Multi-process campaign supervisor: hard worker isolation, watchdog
// restarts, and sample quarantine (DESIGN.md §6h).
//
// The in-process engine (mc/evaluator.h) isolates per-sample *exceptions*,
// but a sample that segfaults the simulator, is OOM-killed, or wedges in
// native code takes the whole campaign with it. The supervisor moves the
// isolation boundary to the OS process:
//
//   supervisor ──pipe──> worker 0   (fav worker --worker-id 0 ...)
//              ──pipe──> worker 1   ...
//
// Each worker re-elaborates the framework from the same CLI flags, re-draws
// the identical sample batch (the determinism contract makes the stream a
// pure function of the seed), and evaluates the contiguous sample-index
// ranges the supervisor assigns over a length-prefixed pipe protocol. One
// assignment is up to a scheduling wave of whole `shard_size` shards,
// evaluated as one batch so te-groups form across the whole wave. Workers
// keep no files: every evaluated sample goes back to the supervisor as its
// full journal record, in PROGRESS frames of up to 64 records that double
// as the heartbeat. The supervisor is the campaign's only journal writer:
// it keeps the records in memory and appends each shard that extends the
// contiguous resolved prefix to `<dir>/campaign.fj` as one fsynced record —
// the in-process engine's file, format and prefix-commit rule. A worker
// that misses its heartbeat deadline (or dies) is SIGKILLed and respawned
// with exponential backoff; a shard whose evaluation kills workers
// `max_shard_attempts` times is quarantined — its samples are recorded (and
// journaled) as OutcomePath::kFailed with ErrorCode::kWorkerCrashed instead
// of being retried forever.
//
// The final result folds the in-memory records through the engine's own
// reduction, so a supervised campaign — journal bytes included — is
// bitwise-identical to the single-process engine at every worker count,
// after worker crashes, and after the supervisor itself is SIGKILLed and
// resumed (in either mode).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mc/evaluator.h"
#include "mc/samplers.h"
#include "util/metrics.h"
#include "util/status.h"

namespace fav::mc {

/// --- wire protocol (exposed for tests) -----------------------------------
/// Every message is one subprocess frame (util/subprocess.h) whose payload
/// starts with a WireType byte. Values are part of the protocol; append new
/// types at the end only.
enum class WireType : std::uint8_t {
  kReady = 1,     // worker -> supervisor: elaborated
  kAssign = 2,    // supervisor -> worker: evaluate samples [lo, hi)
  kProgress = 3,  // worker -> supervisor: 1-64 records (heartbeat)
  kDone = 4,      // worker -> supervisor: every record of [lo, hi) sent
  kShutdown = 5,  // supervisor -> worker: ship metrics and exit
  kMetrics = 6,   // worker -> supervisor: serialized MetricsSink
};

/// Most entries one PROGRESS frame carries.
constexpr std::size_t kMaxProgressEntries = 64;

/// Decoded form of any protocol message; only the fields of the given type
/// are meaningful.
struct WireMessage {
  WireType type = WireType::kReady;
  std::uint64_t lo = 0;  // kAssign / kDone
  std::uint64_t hi = 0;  // kAssign / kDone
  /// kProgress: 1-64 (absolute sample index, full record) entries.
  std::vector<std::pair<std::uint64_t, SampleRecord>> progress;
  std::string blob;  // kMetrics: MetricsSink::serialize bytes
};

std::string encode_ready();
std::string encode_assign(std::uint64_t lo, std::uint64_t hi);
/// `entries` must hold 1..kMaxProgressEntries entries. Each is encoded as
/// `u64 index` then the record's journal encoding (serialize_record).
std::string encode_progress(
    const std::vector<std::pair<std::uint64_t, SampleRecord>>& entries);
std::string encode_done(std::uint64_t lo, std::uint64_t hi);
std::string encode_shutdown();
std::string encode_metrics(const MetricsSink& sink);
/// False on malformed payloads (unknown type byte, truncated fields, a
/// PROGRESS entry count outside 1..64, a record deserialize_record rejects).
bool decode_message(std::string_view payload, WireMessage* out);

/// --- supervisor ----------------------------------------------------------

struct SupervisorConfig {
  /// Worker processes to keep alive (>= 1).
  std::size_t workers = 1;
  /// A ready worker that produces no frame (progress or control) for this
  /// long is presumed wedged, SIGKILLed and restarted. Must comfortably
  /// exceed the time of the slowest 64 samples (one PROGRESS frame).
  std::uint64_t heartbeat_ms = 30000;
  /// Spawn -> READY deadline. Workers re-elaborate the whole framework
  /// before reporting ready, which takes seconds — this deadline is separate
  /// from (and much larger than) the per-sample heartbeat.
  std::uint64_t startup_ms = 120000;
  /// Exponential backoff between a worker's death and its respawn.
  std::uint64_t backoff_base_ms = 250;
  std::uint64_t backoff_max_ms = 5000;
  /// A shard that was assigned when a worker died this many times is
  /// quarantined instead of reassigned. A death charges every shard of the
  /// worker's assignment whose records did not all arrive; a charged shard
  /// is from then on only assigned alone, so only the shard that kills
  /// again is quarantined.
  int max_shard_attempts = 2;
  /// Consecutive deaths *before reaching READY* that disable a worker slot
  /// (a worker that cannot even elaborate will never make progress).
  int max_startup_failures = 3;

  /// argv of a worker process ("<fav> worker --worker-id <k>" is appended by
  /// the supervisor; everything identifying the campaign — benchmark, seed,
  /// flags — must already be present so the worker re-derives the identical
  /// batch).
  std::vector<std::string> worker_command;
  /// Extra argv appended only to worker 0's *first* spawn, dropped on
  /// restarts and never given to other slots. Carries test-only one-shot
  /// crash injection (--crash-after-samples): re-firing it after a restart
  /// would loop forever, and giving it to two slots could kill the same
  /// rescheduled shard twice and quarantine it.
  std::vector<std::string> first_spawn_args;

  /// The campaign journal (dir required), opened exactly like the
  /// in-process engine's (open_campaign_journal). `shard_size` is the
  /// commit and quarantine granularity; an assignment is a run of up to one
  /// scheduling wave of whole shards (SsfEvaluator::kWaveSamples).
  JournalOptions journal;

  /// Aggregated observability (all optional): worker sinks are merged in
  /// worker-index order, then the journal's counters, supervisor.*
  /// counters (assignments, restarts, quarantined) and the
  /// supervisor.merge_ns timer (the final reduction) are added; progress
  /// receives one record per evaluated sample.
  MetricsSink* metrics = nullptr;
  ProgressMeter* progress = nullptr;
  /// Invoked once per evaluated sample (one PROGRESS entry), from the
  /// supervisor's event-loop thread. The serving tier uses this to stream
  /// throttled progress to remote clients; counts are approximate under
  /// restarts (a respawned shard re-evaluates its samples).
  std::function<void()> on_sample;
  /// Graceful stop: nothing new is assigned, workers finish their in-flight
  /// assignment (up to one wave), ship metrics and exit; the result covers
  /// the journaled prefix and is marked interrupted.
  const std::atomic<bool>* stop = nullptr;
  /// Diagnostics sink (restarts, quarantines); null routes to stderr.
  std::function<void(const std::string&)> log;
};

struct SupervisedResult {
  SsfResult result;
  /// ASSIGN messages sent to workers.
  std::size_t assignments = 0;
  /// Unexpected worker deaths that led to a respawn.
  std::size_t restarts = 0;
  /// Shards (and the samples they cover) written off as kWorkerCrashed.
  std::size_t quarantined_shards = 0;
  std::size_t quarantined_samples = 0;
  /// 1 when the journal device filled or failed (kStorageFull): the
  /// campaign stopped gracefully after its last committed shard, charging
  /// no shard, and is resumable.
  std::size_t storage_full_stops = 0;
};

/// Runs a campaign across OS-process workers (see file header). The
/// evaluator is only used on the supervisor side for draw_batch (sample
/// cross-checks, quarantine records) and the final reduction — all
/// simulation happens inside the worker processes.
///
/// run() is re-entrant across threads: the serve daemon runs one supervisor
/// per in-flight campaign, each on its own thread. The only requirements are
/// distinct journal directories (`config.journal.dir`) per concurrent
/// campaign and
/// an ignored SIGPIPE disposition (run() sets it; the setting is process-
/// wide and idempotent). Worker pipes are O_CLOEXEC, so concurrent fleets
/// never leak fds into each other's workers.
class CampaignSupervisor {
 public:
  CampaignSupervisor(const SsfEvaluator& evaluator, SupervisorConfig config);

  /// Draws the n-sample batch (advancing `rng` exactly like the
  /// single-process engine), runs the supervised campaign, and reduces the
  /// records its workers streamed back. Fails (non-ok Result) on
  /// configuration errors, unrecoverable worker-fleet failure, journal
  /// corruption or a journal write error other than a full device.
  Result<SupervisedResult> run(Sampler& sampler, Rng& rng,
                               std::size_t n) const;

  /// Runs the supervised campaign over an explicit, pre-materialized batch.
  /// This is the exhaustive-sweep seam: the CLI enumerates the technique's
  /// bound fault space into the batch, and each worker re-derives the
  /// identical enumeration from the forwarded --exhaustive flags, so shards
  /// over enumeration-index ranges journal exactly like sampled shards.
  Result<SupervisedResult> run_batch(
      std::vector<faultsim::FaultSample> samples) const;

 private:
  const SsfEvaluator* evaluator_;
  SupervisorConfig config_;
};

/// --- worker side ---------------------------------------------------------

/// Sentinel for "no crash injection" (see WorkerHeartbeat::set_crash_on).
constexpr std::uint64_t kNoCrashIndex = ~0ull;

/// PROGRESS sender installed as EvaluatorConfig::on_sample inside a worker
/// process. Thread-safe (the engine invokes it from worker threads): entries
/// are buffered under a mutex and written as one frame of
/// kMaxProgressEntries. A frame of full records can exceed PIPE_BUF, so it
/// may take several write(2) calls; the mutex, held across the whole
/// write, keeps frames from interleaving. Also hosts the
/// test-only crash injection used by the chaos tests: the process SIGKILLs
/// *itself* mid-shard, exactly like a segfault would, at a configurable
/// point.
class WorkerHeartbeat {
 public:
  explicit WorkerHeartbeat(int out_fd) : fd_(out_fd) {}

  /// Absolute sample index of the slice the engine is about to evaluate
  /// (run_batch reports slice-relative indices).
  void set_base(std::uint64_t base) {
    base_.store(base, std::memory_order_relaxed);
  }
  /// SIGKILL this process after `count` completed samples (0 disables).
  void set_crash_after(std::uint64_t count) { crash_after_ = count; }
  /// SIGKILL this process right after completing the given absolute sample
  /// index — a *deterministic* crash that re-fires on every retry, driving
  /// the quarantine path (kNoCrashIndex disables).
  void set_crash_on(std::uint64_t index) { crash_on_ = index; }

  /// EvaluatorConfig::on_sample hook: buffers the sample's index and record
  /// and writes a frame once kMaxProgressEntries are buffered. Write errors
  /// are ignored: a vanished supervisor surfaces as EOF on the next
  /// assignment read.
  void on_sample(const SampleRecord& record, std::size_t slice_index);
  /// Writes the buffered entries (if any) as one frame; the worker loop
  /// calls it after evaluating an assignment, before DONE.
  void flush();

 private:
  void flush_locked();

  int fd_;
  std::atomic<std::uint64_t> base_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::uint64_t crash_after_ = 0;
  std::uint64_t crash_on_ = kNoCrashIndex;
  std::mutex mu_;
  std::vector<std::pair<std::uint64_t, SampleRecord>> pending_;  // mu_
};

struct WorkerLoopOptions {
  /// Pipe fds (stdin/stdout of the spawned process by default; tests can
  /// run the loop in-process over socketpairs).
  int in_fd = 0;
  int out_fd = 1;
};

/// The worker side of the protocol: reports READY and serves ASSIGN
/// messages until SHUTDOWN or EOF (supervisor gone). `samples` must be the
/// full campaign batch — the worker evaluates each assigned slice of it with
/// one `evaluator`.run_batch, whose on_sample hook must be `heartbeat`
/// (every record reaches the supervisor through it; DONE follows once all
/// of them are sent). The evaluator should have reduce_metrics off.
/// `metrics` (may be null) is shipped to the supervisor on SHUTDOWN.
Status run_worker_loop(const SsfEvaluator& evaluator,
                       const std::vector<faultsim::FaultSample>& samples,
                       WorkerHeartbeat& heartbeat,
                       const WorkerLoopOptions& options, MetricsSink* metrics);

}  // namespace fav::mc
