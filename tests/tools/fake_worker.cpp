// A scripted `fav worker` stand-in for the supervisor protocol test: it
// speaks the pipe protocol on stdin/stdout and answers every ASSIGN with
// fake::record(i) for each index, then DONE. The supervisor appends
// "--worker-id <k>" and, to the first spawn of worker 0 only, a mode that
// breaks the protocol once:
//   out-of-range  the first entry carries index hi (outside [lo, hi))
//   repeat        the second entry repeats the first entry's index
//   early-done    the last record is never sent before DONE
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "fake_worker.h"
#include "mc/supervisor.h"
#include "util/subprocess.h"

int main(int argc, char** argv) {
  using namespace fav;
  using namespace fav::mc;
  const std::string mode = argc > 3 ? argv[3] : "";
  if (!write_frame(STDOUT_FILENO, encode_ready()).is_ok()) return 0;
  FrameBuffer buf;
  for (;;) {
    Result<std::string> frame = read_frame(STDIN_FILENO, buf, -1);
    if (!frame.is_ok()) {
      if (frame.status().code() == ErrorCode::kDeadlineExceeded) continue;
      return 0;  // supervisor gone
    }
    WireMessage msg;
    if (!decode_message(frame.value(), &msg)) return 1;
    if (msg.type == WireType::kShutdown) {
      (void)write_frame(STDOUT_FILENO, encode_metrics(MetricsSink{}));
      return 0;
    }
    if (msg.type != WireType::kAssign) return 1;
    std::vector<std::pair<std::uint64_t, SampleRecord>> entries;
    for (std::uint64_t i = msg.lo; i < msg.hi; ++i) {
      entries.emplace_back(i, fake::record(i));
    }
    if (mode == "out-of-range") entries.front().first = msg.hi;
    if (mode == "repeat") entries[1] = entries[0];
    if (mode == "early-done") entries.pop_back();
    for (std::size_t at = 0; at < entries.size(); at += kMaxProgressEntries) {
      const std::size_t end =
          std::min(entries.size(), at + kMaxProgressEntries);
      const std::vector<std::pair<std::uint64_t, SampleRecord>> chunk(
          entries.begin() + static_cast<std::ptrdiff_t>(at),
          entries.begin() + static_cast<std::ptrdiff_t>(end));
      if (!write_frame(STDOUT_FILENO, encode_progress(chunk)).is_ok()) {
        return 0;
      }
    }
    if (!write_frame(STDOUT_FILENO, encode_done(msg.lo, msg.hi)).is_ok()) {
      return 0;
    }
  }
}
