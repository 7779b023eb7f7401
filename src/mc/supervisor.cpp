#include "mc/supervisor.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "mc/journal.h"
#include "util/io.h"
#include "util/subprocess.h"

namespace fav::mc {

using io::get_le;
using io::put_le;

namespace {

/// Every wire message starts with its type byte.
std::string typed_message(WireType type) {
  return std::string(1, static_cast<char>(type));
}

}  // namespace

std::string encode_ready() { return typed_message(WireType::kReady); }

std::string encode_assign(std::uint64_t lo, std::uint64_t hi) {
  std::string out = typed_message(WireType::kAssign);
  put_le(out, lo);
  put_le(out, hi);
  return out;
}

std::string encode_progress(
    const std::vector<std::pair<std::uint64_t, SampleRecord>>& entries) {
  FAV_CHECK(!entries.empty() && entries.size() <= kMaxProgressEntries);
  std::string out = typed_message(WireType::kProgress);
  put_le(out, static_cast<std::uint8_t>(entries.size()));
  for (const auto& [index, record] : entries) {
    put_le(out, index);
    serialize_record(record, out);
  }
  return out;
}

std::string encode_done(std::uint64_t lo, std::uint64_t hi) {
  std::string out = typed_message(WireType::kDone);
  put_le(out, lo);
  put_le(out, hi);
  return out;
}

std::string encode_shutdown() { return typed_message(WireType::kShutdown); }

std::string encode_metrics(const MetricsSink& sink) {
  std::string out = typed_message(WireType::kMetrics);
  sink.serialize(out);
  return out;
}

bool decode_message(std::string_view payload, WireMessage* out) {
  std::size_t off = 0;
  std::uint8_t type = 0;
  if (!get_le(payload, &off, &type)) return false;
  if (type < static_cast<std::uint8_t>(WireType::kReady) ||
      type > static_cast<std::uint8_t>(WireType::kMetrics)) {
    return false;
  }
  out->type = static_cast<WireType>(type);
  switch (out->type) {
    case WireType::kReady:
    case WireType::kShutdown:
      return off == payload.size();
    case WireType::kAssign:
    case WireType::kDone:
      return get_le(payload, &off, &out->lo) &&
             get_le(payload, &off, &out->hi) && off == payload.size();
    case WireType::kProgress: {
      std::uint8_t count = 0;
      if (!get_le(payload, &off, &count) || count == 0 ||
          count > kMaxProgressEntries) {
        return false;
      }
      out->progress.resize(count);
      for (auto& [index, record] : out->progress) {
        if (!get_le(payload, &off, &index) ||
            !deserialize_record(payload, &off, &record)) {
          return false;
        }
      }
      return off == payload.size();
    }
    case WireType::kMetrics:
      out->blob.assign(payload.substr(off));
      return true;
  }
  return false;
}

// --- worker side ----------------------------------------------------------

void WorkerHeartbeat::on_sample(const SampleRecord& record,
                                std::size_t slice_index) {
  const std::uint64_t index =
      base_.load(std::memory_order_relaxed) + slice_index;
  // Test-only chaos injection: die exactly like a segfault would —
  // mid-assignment, right after sending the sample's record.
  const bool crash =
      crash_on_ == index ||
      (crash_after_ != 0 &&
       completed_.fetch_add(1, std::memory_order_relaxed) + 1 ==
           crash_after_);
  std::pair<std::uint64_t, SampleRecord> entry(index, record);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(entry));
    if (crash || pending_.size() == kMaxProgressEntries) flush_locked();
  }
  if (crash) ::raise(SIGKILL);
}

void WorkerHeartbeat::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void WorkerHeartbeat::flush_locked() {
  if (pending_.empty()) return;
  // Best-effort: a write failure means the supervisor is gone, which the
  // assignment loop detects as EOF (SIGPIPE is ignored in worker mode).
  (void)write_frame(fd_, encode_progress(pending_));
  pending_.clear();
}

Status run_worker_loop(const SsfEvaluator& evaluator,
                       const std::vector<faultsim::FaultSample>& samples,
                       WorkerHeartbeat& heartbeat,
                       const WorkerLoopOptions& options,
                       MetricsSink* metrics) {
  const Status ready = write_frame(options.out_fd, encode_ready());
  if (!ready.is_ok()) return Status::ok();  // supervisor already gone

  FrameBuffer buf;
  for (;;) {
    Result<std::string> frame = read_frame(options.in_fd, buf, -1);
    if (!frame.is_ok()) {
      if (frame.status().code() == ErrorCode::kDeadlineExceeded) {
        continue;  // interrupted by a signal; keep waiting
      }
      // EOF / broken pipe: the supervisor died. Workers never outlive it.
      return Status::ok();
    }
    WireMessage msg;
    if (!decode_message(frame.value(), &msg)) {
      return Status(ErrorCode::kSubprocessFailed,
                    "worker received a malformed protocol frame");
    }
    if (msg.type == WireType::kShutdown) {
      MetricsSink empty;
      (void)write_frame(options.out_fd,
                        encode_metrics(metrics != nullptr ? *metrics : empty));
      return Status::ok();
    }
    if (msg.type != WireType::kAssign) {
      return Status(ErrorCode::kSubprocessFailed,
                    "worker received an unexpected protocol message");
    }
    if (msg.lo >= msg.hi || msg.hi > samples.size()) {
      return Status(ErrorCode::kSubprocessFailed,
                    "worker received an out-of-range shard assignment [" +
                        std::to_string(msg.lo) + ", " +
                        std::to_string(msg.hi) + ")");
    }
    heartbeat.set_base(msg.lo);
    std::vector<faultsim::FaultSample> slice(
        samples.begin() + static_cast<std::ptrdiff_t>(msg.lo),
        samples.begin() + static_cast<std::ptrdiff_t>(msg.hi));
    // One batch per assignment: te-groups form across the whole wave. Its
    // records reach the supervisor through the heartbeat, so once the
    // flush is written every record of [lo, hi) has been sent.
    (void)evaluator.run_batch(std::move(slice));
    heartbeat.flush();
    const Status done = write_frame(options.out_fd,
                                    encode_done(msg.lo, msg.hi));
    if (!done.is_ok()) return Status::ok();  // supervisor gone
  }
}

// --- supervisor -----------------------------------------------------------

namespace {

struct ShardState {
  enum class S { kPending, kAssigned, kDone, kQuarantined };
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  S state = S::kPending;
  int attempts = 0;  // worker deaths while this shard was assigned
  std::uint64_t received = 0;  // records of the current attempt that arrived
};

struct WorkerSlot {
  Subprocess proc;
  FrameBuffer buf;
  bool alive = false;
  bool ready = false;
  bool shutdown_sent = false;
  // Assigned shards [first, end) of the shard list; both -1 when idle.
  int first = -1;
  int end = -1;
  std::uint64_t deadline_at_ns = 0;
  bool respawn_scheduled = false;
  std::uint64_t respawn_at_ns = 0;
  std::uint64_t backoff_ms = 0;
  std::size_t spawns = 0;
  int startup_failures = 0;
  bool disabled = false;
  MetricsSink sink;  // metrics shipped by clean incarnations, accumulated
};

/// One supervised fleet run: spawns the workers, drives the poll/watchdog
/// event loop, keeps the records the workers stream back, and appends each
/// shard that extends the contiguous resolved prefix to the journal.
/// Single-threaded by design — all worker concurrency lives in the OS
/// processes.
class Fleet {
 public:
  /// `shards` covers [shards[0].lo, n) in whole journal shards; `records`
  /// (size n) receives every record, `writer` is the open campaign journal.
  Fleet(const SupervisorConfig& config,
        const std::vector<faultsim::FaultSample>& samples,
        std::vector<ShardState>* shards, std::vector<SampleRecord>* records,
        JournalWriter* writer, SupervisedResult* sup)
      : config_(config),
        samples_(samples),
        shards_(shards),
        records_(records),
        writer_(writer),
        sup_(sup),
        have_(samples.size(), 0),
        unresolved_(shards->size()) {}

  Status run() {
    const std::size_t count = std::max<std::size_t>(
        1, std::min(config_.workers, shards_->size()));
    slots_.resize(count);
    for (WorkerSlot& s : slots_) s.backoff_ms = config_.backoff_base_ms;
    for (std::size_t k = 0; k < count; ++k) spawn(k);

    while (fatal_.is_ok()) {
      if (config_.stop != nullptr &&
          config_.stop->load(std::memory_order_relaxed)) {
        stopping_ = true;
      }
      fire_due_respawns();
      dispatch_idle_workers();
      if (!any_alive() && !any_respawn_scheduled()) break;
      poll_workers();
      enforce_deadlines();
    }
    if (!fatal_.is_ok()) {
      for (std::size_t k = 0; k < slots_.size(); ++k) {
        if (slots_[k].alive) {
          slots_[k].proc.kill(SIGKILL);
          slots_[k].proc.close_pipes();
          slots_[k].proc.wait();
          slots_[k].alive = false;
        }
      }
      return fatal_;
    }
    if (unresolved_ > 0 && !stopping_) {
      return Status(ErrorCode::kSubprocessFailed,
                    "worker fleet failed with " + std::to_string(unresolved_) +
                        " shard(s) unfinished and no usable workers left");
    }
    return Status::ok();
  }

  const std::vector<WorkerSlot>& slots() const { return slots_; }
  /// End of the journaled prefix: every record below it is committed.
  std::uint64_t committed_end() const {
    return committed_ < shards_->size() ? (*shards_)[committed_].lo
                                        : samples_.size();
  }

 private:
  void log_line(const std::string& message) const {
    if (config_.log) {
      config_.log(message);
    } else {
      std::fprintf(stderr, "fav: %s\n", message.c_str());
    }
  }

  bool any_alive() const {
    for (const WorkerSlot& s : slots_) {
      if (s.alive) return true;
    }
    return false;
  }

  bool any_respawn_scheduled() const {
    for (const WorkerSlot& s : slots_) {
      if (s.respawn_scheduled) return true;
    }
    return false;
  }

  /// The next assignment [*first, *end) of the shard list: a run of
  /// consecutive pending shards, contiguous in sample index, capped at one
  /// wave and at an even split of the pending shards across the live
  /// workers (so a small campaign still reaches every worker). A shard
  /// charged with a worker death is only assigned alone. False when
  /// nothing is pending.
  bool next_run(int* first, int* end) const {
    const std::vector<ShardState>& sh = *shards_;
    std::size_t pending = 0;
    *first = -1;
    for (std::size_t i = 0; i < sh.size(); ++i) {
      if (sh[i].state != ShardState::S::kPending) continue;
      if (*first < 0) *first = static_cast<int>(i);
      ++pending;
    }
    if (*first < 0) return false;
    std::size_t live = 0;
    for (const WorkerSlot& s : slots_) {
      if (!s.disabled && !s.shutdown_sent && (s.alive || s.respawn_scheduled)) {
        ++live;
      }
    }
    const std::size_t wave_shards = std::max<std::size_t>(
        1, SsfEvaluator::kWaveSamples / config_.journal.shard_size);
    const std::size_t cap =
        sh[*first].attempts > 0
            ? 1
            : std::min(wave_shards,
                       (pending + live - 1) / std::max<std::size_t>(1, live));
    std::size_t e = static_cast<std::size_t>(*first) + 1;
    while (e < sh.size() && e - *first < cap &&
           sh[e].state == ShardState::S::kPending && sh[e].attempts == 0 &&
           sh[e].lo == sh[e - 1].hi) {
      ++e;
    }
    *end = static_cast<int>(e);
    return true;
  }

  void spawn(std::size_t k) {
    WorkerSlot& s = slots_[k];
    std::vector<std::string> argv = config_.worker_command;
    argv.push_back("--worker-id");
    argv.push_back(std::to_string(k));
    if (k == 0 && s.spawns == 0) {
      // Crash-injection flags ride only on worker 0's first incarnation.
      // Restarts must not re-fire them, and two first-incarnation workers
      // crashing on the same rescheduled shard would count as two kills and
      // quarantine a perfectly healthy shard.
      argv.insert(argv.end(), config_.first_spawn_args.begin(),
                  config_.first_spawn_args.end());
    }
    ++s.spawns;
    Result<Subprocess> spawned = Subprocess::spawn(argv);
    if (!spawned.is_ok()) {
      log_line("worker " + std::to_string(k) +
               " spawn failed: " + spawned.status().to_string());
      note_startup_failure(k);
      return;
    }
    s.proc = std::move(spawned).value();
    s.alive = true;
    s.ready = false;
    s.shutdown_sent = false;
    s.first = s.end = -1;
    s.buf = FrameBuffer();
    s.deadline_at_ns = monotonic_ns() + config_.startup_ms * 1'000'000ull;
  }

  void note_startup_failure(std::size_t k) {
    WorkerSlot& s = slots_[k];
    if (++s.startup_failures >= config_.max_startup_failures) {
      s.disabled = true;
      log_line("worker " + std::to_string(k) + " disabled after " +
               std::to_string(s.startup_failures) + " startup failure(s)");
      return;
    }
    schedule_respawn(k);
  }

  void schedule_respawn(std::size_t k) {
    WorkerSlot& s = slots_[k];
    if (stopping_ || s.disabled || unresolved_ == 0) return;
    ++sup_->restarts;
    s.respawn_scheduled = true;
    s.respawn_at_ns = monotonic_ns() + s.backoff_ms * 1'000'000ull;
    log_line("restarting worker " + std::to_string(k) + " in " +
             std::to_string(s.backoff_ms) + " ms");
    s.backoff_ms = std::min(s.backoff_ms * 2, config_.backoff_max_ms);
  }

  void fire_due_respawns() {
    const std::uint64_t now = monotonic_ns();
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      WorkerSlot& s = slots_[k];
      if (!s.respawn_scheduled || now < s.respawn_at_ns) continue;
      s.respawn_scheduled = false;
      if (!stopping_ && !s.disabled && unresolved_ > 0) spawn(k);
    }
  }

  void dispatch_idle_workers() {
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      WorkerSlot& s = slots_[k];
      if (!s.alive || !s.ready || s.first != -1 || s.shutdown_sent) continue;
      int first = -1;
      int end = -1;
      if (!stopping_ && next_run(&first, &end)) {
        const Status sent = write_frame(
            s.proc.stdin_fd(),
            encode_assign((*shards_)[first].lo, (*shards_)[end - 1].hi));
        if (!sent.is_ok()) {
          kill_worker(k, "assignment write failed: " + sent.to_string());
          continue;
        }
        ++sup_->assignments;
        for (int i = first; i < end; ++i) {
          (*shards_)[i].state = ShardState::S::kAssigned;
        }
        s.first = first;
        s.end = end;
        s.deadline_at_ns =
            monotonic_ns() + config_.heartbeat_ms * 1'000'000ull;
      } else {
        const Status sent =
            write_frame(s.proc.stdin_fd(), encode_shutdown());
        s.shutdown_sent = true;
        s.deadline_at_ns =
            monotonic_ns() + config_.heartbeat_ms * 1'000'000ull;
        if (!sent.is_ok()) {
          kill_worker(k, "shutdown write failed: " + sent.to_string());
        }
      }
    }
  }

  int poll_timeout_ms() const {
    const std::uint64_t now = monotonic_ns();
    std::uint64_t next = now + 500'000'000ull;  // 500 ms cap
    for (const WorkerSlot& s : slots_) {
      if (s.alive) next = std::min(next, s.deadline_at_ns);
      if (s.respawn_scheduled) next = std::min(next, s.respawn_at_ns);
    }
    if (next <= now) return 0;
    return static_cast<int>((next - now) / 1'000'000ull + 1);
  }

  void poll_workers() {
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      if (!slots_[k].alive) continue;
      struct pollfd pfd {};
      pfd.fd = slots_[k].proc.stdout_fd();
      pfd.events = POLLIN;
      fds.push_back(pfd);
      owner.push_back(k);
    }
    const int timeout = poll_timeout_ms();
    if (fds.empty()) {
      // Only respawn timers remain; sleep until the nearest one.
      struct timespec ts {};
      ts.tv_sec = timeout / 1000;
      ts.tv_nsec = (timeout % 1000) * 1'000'000l;
      ::nanosleep(&ts, nullptr);
      return;
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout);
    if (rc < 0) {
      if (errno == EINTR) return;  // re-check stop flag at loop top
      fatal_ = Status(ErrorCode::kSubprocessFailed,
                      std::string("poll failed: ") + std::strerror(errno));
      return;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        handle_readable(owner[i]);
        if (!fatal_.is_ok()) return;
      }
    }
  }

  void handle_readable(std::size_t k) {
    WorkerSlot& s = slots_[k];
    if (!drain_into(s.proc.stdout_fd(), s.buf)) {
      handle_death(k);
      return;
    }
    std::string payload;
    while (s.alive && s.buf.next(&payload)) {
      WireMessage msg;
      if (!decode_message(payload, &msg)) {
        kill_worker(k, "malformed frame from worker " + std::to_string(k));
        return;
      }
      s.deadline_at_ns =
          monotonic_ns() +
          (s.ready ? config_.heartbeat_ms : config_.startup_ms) *
              1'000'000ull;
      switch (msg.type) {
        case WireType::kReady:
          s.ready = true;
          s.startup_failures = 0;
          s.backoff_ms = config_.backoff_base_ms;
          break;
        case WireType::kProgress:
          for (auto& [index, record] : msg.progress) {
            if (!accept_record(k, index, std::move(record))) return;
          }
          break;
        case WireType::kDone:
          handle_done(k, msg);
          break;
        case WireType::kMetrics: {
          MetricsSink shipped;
          if (shipped.deserialize(msg.blob)) {
            s.sink.merge(shipped);
          } else {
            log_line("worker " + std::to_string(k) +
                     " shipped an unreadable metrics payload; dropped");
          }
          break;
        }
        default:
          kill_worker(k, "unexpected message from worker " +
                             std::to_string(k));
          return;
      }
    }
    if (s.alive && s.buf.corrupt()) {
      kill_worker(k, "corrupt frame stream from worker " + std::to_string(k));
    }
  }

  /// Takes one streamed record: its index must lie in worker k's
  /// assignment and not have arrived yet (else the worker is killed and its
  /// unresolved shards charged), and its sample must be the supervisor's
  /// own (else the run fails: the worker derived another batch). A shard
  /// whose records have all arrived is resolved and committed as soon as it
  /// extends the prefix. False when the worker was killed or the run failed.
  bool accept_record(std::size_t k, std::uint64_t index,
                     SampleRecord&& record) {
    const WorkerSlot& s = slots_[k];
    if (s.first < 0 || index < (*shards_)[s.first].lo ||
        index >= (*shards_)[s.end - 1].hi || have_[index] != 0) {
      kill_worker(k, "worker " + std::to_string(k) + " sent sample " +
                         std::to_string(index) +
                         " outside its assignment or twice");
      return false;
    }
    if (!sample_matches(record.sample, samples_[index])) {
      fatal_ = Status(ErrorCode::kSubprocessFailed,
                      "worker " + std::to_string(k) + " evaluated sample " +
                          std::to_string(index) +
                          ", which differs from the supervisor's batch");
      return false;
    }
    if (config_.progress != nullptr) {
      config_.progress->record(record.contribution, record.sample.weight,
                               record.path == OutcomePath::kFailed);
    }
    if (config_.on_sample) config_.on_sample();
    have_[index] = 1;
    (*records_)[index] = std::move(record);
    ShardState& sh = (*shards_)[(index - (*shards_)[0].lo) /
                                config_.journal.shard_size];
    if (++sh.received == sh.hi - sh.lo) {
      sh.state = ShardState::S::kDone;
      --unresolved_;
      commit();
    }
    return fatal_.is_ok();
  }

  /// DONE: every record of the assignment must already have arrived.
  void handle_done(std::size_t k, const WireMessage& msg) {
    WorkerSlot& s = slots_[k];
    if (s.first < 0 || (*shards_)[s.first].lo != msg.lo ||
        (*shards_)[s.end - 1].hi != msg.hi) {
      kill_worker(k, "worker " + std::to_string(k) +
                         " acknowledged samples it was not assigned");
      return;
    }
    for (int i = s.first; i < s.end; ++i) {
      if ((*shards_)[i].state != ShardState::S::kDone) {
        kill_worker(k, "worker " + std::to_string(k) +
                           " acknowledged its assignment before sending "
                           "every record");
        return;
      }
    }
    s.first = s.end = -1;
  }

  /// Appends every resolved shard that extends the committed prefix, each
  /// as one fsynced journal record. A full or failing device stops the
  /// campaign gracefully: nothing more is assigned or committed, and no
  /// shard is charged.
  void commit() {
    while (!journal_full_ && committed_ < shards_->size()) {
      const ShardState& sh = (*shards_)[committed_];
      if (sh.state != ShardState::S::kDone &&
          sh.state != ShardState::S::kQuarantined) {
        return;
      }
      const Status appended = writer_->append_shard(
          sh.lo, &(*records_)[sh.lo], static_cast<std::size_t>(sh.hi - sh.lo));
      if (appended.code() == ErrorCode::kStorageFull) {
        journal_full_ = true;
        stopping_ = true;
        sup_->storage_full_stops = 1;
        if (config_.metrics != nullptr) {
          config_.metrics->add_counter("journal.storage_full_stops");
        }
        log_line("journal device full or failing (" + appended.to_string() +
                 "); finishing in-flight assignments and stopping for "
                 "resume");
        return;
      }
      if (!appended.is_ok()) {
        fatal_ = appended;
        return;
      }
      ++committed_;
    }
  }

  void kill_worker(std::size_t k, const std::string& reason) {
    log_line(reason + "; killing worker " + std::to_string(k));
    slots_[k].proc.kill(SIGKILL);
    handle_death(k);
  }

  void handle_death(std::size_t k) {
    WorkerSlot& s = slots_[k];
    s.proc.close_pipes();
    const Subprocess::ExitStatus st = s.proc.wait();
    const bool clean = !st.signaled && st.exit_code == 0 && s.shutdown_sent;
    s.alive = false;
    s.proc = Subprocess();

    // Shards whose records all arrived stay resolved. Every other shard of
    // the assignment drops its partial records (it is re-evaluated whole)
    // and is charged one attempt.
    for (int i = s.first; i < s.end; ++i) {
      ShardState& sh = (*shards_)[i];
      if (sh.state != ShardState::S::kAssigned) continue;
      std::fill(have_.begin() + static_cast<std::ptrdiff_t>(sh.lo),
                have_.begin() + static_cast<std::ptrdiff_t>(sh.hi), 0);
      sh.received = 0;
      if (++sh.attempts >= config_.max_shard_attempts) {
        quarantine(sh);
      } else {
        sh.state = ShardState::S::kPending;
      }
    }
    s.first = s.end = -1;
    commit();  // a quarantined shard may extend the prefix

    if (clean) return;
    log_line("worker " + std::to_string(k) + " died unexpectedly (" +
             (st.signaled ? "signal " + std::to_string(st.term_signal)
                          : "exit code " + std::to_string(st.exit_code)) +
             ")");
    const bool was_ready = s.ready;
    s.ready = false;
    s.shutdown_sent = false;
    if (!was_ready) {
      note_startup_failure(k);
    } else {
      schedule_respawn(k);
    }
  }

  /// Writes the shard off: kWorkerCrashed records synthesized from the
  /// supervisor's own batch keep the estimate well-defined over completed
  /// samples, surface the loss in failure_counts, and are journaled like
  /// any other shard (so a resume does not retry it).
  void quarantine(ShardState& sh) {
    sh.state = ShardState::S::kQuarantined;
    --unresolved_;
    ++sup_->quarantined_shards;
    sup_->quarantined_samples += sh.hi - sh.lo;
    const std::string range =
        "[" + std::to_string(sh.lo) + ", " + std::to_string(sh.hi) + ")";
    log_line("quarantining shard " + range + " after " +
             std::to_string(sh.attempts) + " worker crash(es)");
    for (std::uint64_t i = sh.lo; i < sh.hi; ++i) {
      SampleRecord rec;
      rec.sample = samples_[i];
      rec.path = OutcomePath::kFailed;
      rec.fail_code = ErrorCode::kWorkerCrashed;
      rec.fail_reason = "worker process crashed evaluating shard " + range +
                        " " + std::to_string(sh.attempts) +
                        " time(s); quarantined";
      (*records_)[i] = std::move(rec);
      have_[i] = 1;
    }
  }

  void enforce_deadlines() {
    const std::uint64_t now = monotonic_ns();
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      if (!fatal_.is_ok()) return;
      WorkerSlot& s = slots_[k];
      if (!s.alive || now < s.deadline_at_ns) continue;
      kill_worker(k, "worker " + std::to_string(k) + " missed its " +
                         (s.ready ? "heartbeat" : "startup") + " deadline");
    }
  }

  const SupervisorConfig& config_;
  const std::vector<faultsim::FaultSample>& samples_;
  std::vector<ShardState>* shards_;
  std::vector<SampleRecord>* records_;
  JournalWriter* writer_;
  SupervisedResult* sup_;
  std::vector<std::uint8_t> have_;  // records_[i] arrived (or quarantined)
  std::vector<WorkerSlot> slots_;
  std::size_t unresolved_ = 0;
  std::size_t committed_ = 0;  // shards appended to the journal
  bool journal_full_ = false;
  bool stopping_ = false;
  Status fatal_;
};

}  // namespace

CampaignSupervisor::CampaignSupervisor(const SsfEvaluator& evaluator,
                                       SupervisorConfig config)
    : evaluator_(&evaluator), config_(std::move(config)) {}

Result<SupervisedResult> CampaignSupervisor::run(Sampler& sampler, Rng& rng,
                                                 std::size_t n) const {
  std::vector<faultsim::FaultSample> samples;
  try {
    samples = evaluator_->draw_batch(sampler, rng, n);
  } catch (const StatusError& e) {
    return e.status();
  }
  return run_batch(std::move(samples));
}

Result<SupervisedResult> CampaignSupervisor::run_batch(
    std::vector<faultsim::FaultSample> samples) const {
  const std::size_t n = samples.size();
  if (config_.workers == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "supervisor requires at least one worker");
  }
  if (config_.worker_command.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "supervisor requires a worker command");
  }
  // A worker dying mid-write must never SIGPIPE the supervisor.
  ::signal(SIGPIPE, SIG_IGN);

  JournalWriter writer;
  Result<std::vector<SampleRecord>> prefix = open_campaign_journal(
      config_.journal, n,
      [&samples](std::size_t lo, std::size_t) { return samples.data() + lo; },
      config_.metrics, writer);
  if (!prefix.is_ok()) return prefix.status();
  std::vector<SampleRecord> records = std::move(prefix).value();
  std::size_t len = records.size();
  records.resize(n);

  // Work list: [len, n) in shards of shard_size from the resume point — the
  // in-process engine's commit boundaries, so the journal bytes match.
  std::vector<ShardState> shards;
  for (std::size_t lo = len; lo < n; lo += config_.journal.shard_size) {
    ShardState sh;
    sh.lo = lo;
    sh.hi = std::min(lo + config_.journal.shard_size, n);
    shards.push_back(sh);
  }

  SupervisedResult sup;
  if (!shards.empty()) {
    Fleet fleet(config_, samples, &shards, &records, &writer, &sup);
    const Status ran = fleet.run();
    if (!ran.is_ok()) return ran;
    len = static_cast<std::size_t>(fleet.committed_end());
    if (config_.metrics != nullptr) {
      for (const WorkerSlot& s : fleet.slots()) {
        config_.metrics->merge(s.sink);
      }
      update_lane_occupancy(*config_.metrics);
    }
  }

  // An interrupted campaign (stop flag, full disk) reduces the committed
  // prefix, exactly like the single-process engine.
  ScopeTimer merge_timer(config_.metrics, "supervisor.merge_ns");
  records.resize(len);
  SsfResult result = evaluator_->reduce_records(std::move(records));
  result.interrupted = len < n;
  sup.result = std::move(result);
  merge_timer.stop();

  if (config_.metrics != nullptr) {
    config_.metrics->add_counter("supervisor.assignments", sup.assignments);
    config_.metrics->add_counter("supervisor.restarts", sup.restarts);
    config_.metrics->add_counter("supervisor.quarantined_shards",
                                 sup.quarantined_shards);
    config_.metrics->add_counter("supervisor.quarantined_samples",
                                 sup.quarantined_samples);
    config_.metrics->add_counter("supervisor.storage_full_stops",
                                 sup.storage_full_stops);
    config_.metrics->set_gauge("supervisor.workers",
                               static_cast<double>(config_.workers));
  }
  return sup;
}

}  // namespace fav::mc
