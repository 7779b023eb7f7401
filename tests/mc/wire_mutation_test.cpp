// Byte-level mutation test of the two wire decoders: the serve protocol
// (decode_serve_message, mc/serve.h) and the supervisor protocol
// (decode_message, mc/supervisor.h), including the METRICS payload a worker
// ships (MetricsSink::deserialize). Starting from a valid encoding of every
// message type, every truncation point, every single-byte XOR and appended
// garbage must either be rejected or decode *exactly*: re-encoding the
// decoded message reproduces the mutated bytes, so a decoder never accepts
// a frame it would not itself have written.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "mc/serve.h"
#include "mc/supervisor.h"
#include "util/metrics.h"

namespace fav::mc {
namespace {

/// The serve encoding of `bytes` as decoded, or nullopt when it is rejected.
std::optional<std::string> serve_roundtrip(const std::string& bytes) {
  ServeMessage m;
  if (!decode_serve_message(bytes, &m)) return std::nullopt;
  switch (m.type) {
    case ServeWire::kRequest: return encode_serve_request(m.args);
    case ServeWire::kAccepted: return encode_serve_accepted(m.campaign_id);
    case ServeWire::kProgress: return encode_serve_progress(m.done, m.total);
    case ServeWire::kStdout: return encode_serve_stdout(m.text);
    case ServeWire::kReport: return encode_serve_report(m.text);
    case ServeWire::kFinished: return encode_serve_finished(m.exit_code);
    case ServeWire::kError: return encode_serve_error(m.text, m.exit_code);
    case ServeWire::kBusy: return encode_serve_busy(m.retry_after_ms);
    case ServeWire::kHeartbeat: return encode_serve_heartbeat(m.running);
    case ServeWire::kCancel: return encode_serve_cancel();
  }
  ADD_FAILURE() << "decoded an unknown serve type";
  return std::nullopt;
}

/// The supervisor encoding of `bytes` as decoded, or nullopt when the frame
/// (or, for METRICS, its MetricsSink payload) is rejected.
std::optional<std::string> supervisor_roundtrip(const std::string& bytes) {
  WireMessage m;
  if (!decode_message(bytes, &m)) return std::nullopt;
  switch (m.type) {
    case WireType::kReady: return encode_ready();
    case WireType::kAssign: return encode_assign(m.lo, m.hi);
    case WireType::kProgress: return encode_progress(m.progress);
    case WireType::kDone: return encode_done(m.lo, m.hi);
    case WireType::kShutdown: return encode_shutdown();
    case WireType::kMetrics: {
      MetricsSink sink;
      if (!sink.deserialize(m.blob)) return std::nullopt;
      return encode_metrics(sink);
    }
  }
  ADD_FAILURE() << "decoded an unknown supervisor type";
  return std::nullopt;
}

MetricsSink sample_sink() {
  MetricsSink sink;
  sink.add_counter("eval.samples", 2000);
  sink.add_counter("eval.path.rtl", 1509);
  sink.add_counter("sampler.built.voltage-uniform", 1);
  sink.set_gauge("eval.ess", 1999.5);
  sink.set_gauge("ssf.running", 0.1 + 0.2);
  sink.add_timer_ns("eval.restore_ns", 12345);
  sink.add_timer_ns("eval.restore_ns", 678);
  sink.add_timer_ns("run.total_ns", 950000000);
  return sink;
}

std::vector<std::string> serve_messages() {
  return {encode_serve_request({"evaluate", "--technique", "voltage-glitch",
                                "--samples", "2000"}),
          encode_serve_accepted(42),
          encode_serve_progress(7, 400),
          encode_serve_stdout("SSF : 0.5\n"),
          encode_serve_report("{\"schema\":\"fav.run_report.v1\"}\n"),
          encode_serve_finished(3),
          encode_serve_error("bad request", 2),
          encode_serve_busy(750),
          encode_serve_heartbeat(true),
          encode_serve_heartbeat(false),
          encode_serve_cancel()};
}

/// A PROGRESS frame at its 64-entry capacity.
std::vector<ProgressEntry> full_progress_frame() {
  std::vector<ProgressEntry> entries;
  for (std::uint64_t i = 0; i < kMaxProgressEntries; ++i) {
    entries.push_back({500 + i, 0.25 * static_cast<double>(i),
                       1.0 + static_cast<double>(i), i % 5 == 0});
  }
  return entries;
}

std::vector<std::string> supervisor_messages() {
  return {encode_ready(),
          encode_assign(17, 42),
          encode_progress({{987654321, 0.1 + 0.2, 1.75, true}}),
          encode_progress({{3, 0.0, 1.0, false}}),
          encode_progress({{3, 0.0, 1.0, false}, {4, 0.5, 2.0, true}}),
          encode_progress(full_progress_frame()),
          encode_done(1024, 1280),
          encode_shutdown(),
          encode_metrics(sample_sink()),
          encode_metrics(MetricsSink{})};
}

/// Every mutant of `pristine`: each truncation, each byte XORed with each
/// mask, and garbage tails.
std::vector<std::string> mutants(const std::string& pristine) {
  std::vector<std::string> out;
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    out.push_back(pristine.substr(0, cut));
  }
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    for (const unsigned mask : {0x01u, 0x5Au, 0x80u, 0xFFu}) {
      std::string bytes = pristine;
      bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                     mask);
      out.push_back(bytes);
    }
  }
  for (const std::string& tail :
       {std::string(1, '\0'), std::string("\x01\x02\x03", 3),
        std::string(12, '\xff'), pristine}) {
    out.push_back(pristine + tail);
  }
  return out;
}

template <class Roundtrip>
void expect_exact_or_rejected(const std::vector<std::string>& messages,
                              Roundtrip roundtrip) {
  for (std::size_t i = 0; i < messages.size(); ++i) {
    SCOPED_TRACE("message " + std::to_string(i));
    const std::optional<std::string> back = roundtrip(messages[i]);
    ASSERT_TRUE(back.has_value()) << "a valid encoding must decode";
    ASSERT_EQ(*back, messages[i]);
    std::size_t accepted = 0;
    const std::vector<std::string> all = mutants(messages[i]);
    for (std::size_t k = 0; k < all.size(); ++k) {
      const std::optional<std::string> got = roundtrip(all[k]);
      if (!got.has_value()) continue;
      ++accepted;
      EXPECT_EQ(*got, all[k]) << "mutant " << k << " decoded inexactly";
    }
    // Most mutants are rejected; the few accepted ones are other valid
    // messages (a changed integer field, a flipped type byte).
    EXPECT_LT(accepted, all.size());
  }
}

TEST(WireMutation, ServeDecoderIsExactOrRejects) {
  expect_exact_or_rejected(serve_messages(), serve_roundtrip);
}

TEST(WireMutation, SupervisorDecoderIsExactOrRejects) {
  expect_exact_or_rejected(supervisor_messages(), supervisor_roundtrip);
}

TEST(WireMutation, ProgressFailedFlagMustBeZeroOrOne) {
  // Regression: any nonzero failed byte used to decode as "failed", so a
  // corrupted PROGRESS frame was accepted and re-encoded differently.
  std::string bytes = encode_progress({{5, 0.25, 2.0, true}});
  WireMessage m;
  bytes.back() = 2;
  EXPECT_FALSE(decode_message(bytes, &m));
  bytes.back() = 1;
  ASSERT_TRUE(decode_message(bytes, &m));
  ASSERT_EQ(m.progress.size(), 1u);
  EXPECT_TRUE(m.progress[0].failed);
}

TEST(WireMutation, MetricsPayloadNamesMustBeAscendingAndUnique) {
  // Regression: a payload whose names were out of order or repeated used to
  // deserialize (a repeated name silently kept only its first value), so a
  // corrupted METRICS payload was accepted and re-serialized differently.
  MetricsSink two;
  two.add_counter("a", 1);
  two.add_counter("b", 2);
  std::string blob;
  two.serialize(blob);
  MetricsSink back;
  ASSERT_TRUE(back.deserialize(blob));
  const std::size_t b_name = blob.find('b');
  ASSERT_NE(b_name, std::string::npos);
  blob[b_name] = 'a';  // duplicate name
  EXPECT_FALSE(back.deserialize(blob));
  blob[b_name] = '0';  // "0" sorts before "a"
  EXPECT_FALSE(back.deserialize(blob));
}

}  // namespace
}  // namespace fav::mc
