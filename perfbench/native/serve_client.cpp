// Closed-loop clients for the served-mix workload.
//
// Opens two connections' worth of load against a running `fav serve`
// daemon: each client thread submits one campaign, waits for its kFinished
// frame, then submits the next, round-robin over the campaign kinds listed in
// `--kinds`. The clients keep going until `--seconds` have passed and at
// least `--min-campaigns` campaigns have finished, or until `--max-seconds`.
//
// `--kinds` names a text file with one campaign kind per line: the kind's
// name, then the `fav` arguments of its campaigns, all tab-separated. Each
// `{tag}` in an argument is replaced by the campaign's own tag
// (`<client>-<sequence>`), so every campaign gets its own journal and report.
//
// Every campaign is written to `--out` as one JSON object: its kind, the
// latency from request to kFinished, the delay to the first kProgress frame,
// the exit code, any transport or server error, whether it was refused busy,
// and the run report the daemon streamed back. The benchmark driver checks
// the reports and computes the metrics.
//
//   pb_serve_client --socket PATH --kinds FILE --seconds N
//                   --min-campaigns N --max-seconds N --out FILE
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mc/serve.h"
#include "util/io.h"

namespace {

using namespace fav;
using Clock = std::chrono::steady_clock;

/// The closed-loop client threads; each holds one connection at a time.
constexpr std::size_t kClients = 2;

struct Kind {
  std::string name;
  std::vector<std::string> argv;  // may hold `{tag}` placeholders
};

struct Args {
  std::string socket;
  std::string kinds;
  std::string out;
  double seconds = -1;
  double max_seconds = -1;
  long min_campaigns = -1;
};

struct Campaign {
  std::size_t client = 0;
  std::size_t kind = 0;
  double start_s = 0;  // request sent, seconds after the clients started
  double latency_s = 0;
  double first_progress_s = -1;  // no kProgress frame arrived
  int exit_code = 1;
  bool busy = false;
  std::string error;
  std::string report;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "pb_serve_client: %s\n", msg.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--socket") {
      a.socket = value;
    } else if (flag == "--kinds") {
      a.kinds = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--max-seconds") {
      a.max_seconds = std::stod(value);
    } else if (flag == "--min-campaigns") {
      a.min_campaigns = std::stol(value);
    } else {
      usage("unknown option " + flag);
    }
  }
  if (a.socket.empty() || a.kinds.empty() || a.out.empty() ||
      a.seconds < 0 || a.max_seconds < 0 || a.min_campaigns < 0) {
    usage("--socket, --kinds, --out, --seconds, --max-seconds and "
          "--min-campaigns are required");
  }
  return a;
}

std::vector<Kind> read_kinds(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  std::vector<Kind> kinds;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Kind kind;
    std::getline(fields, kind.name, '\t');
    for (std::string arg; std::getline(fields, arg, '\t');) {
      kind.argv.push_back(arg);
    }
    if (kind.argv.empty()) usage("kind '" + kind.name + "' has no arguments");
    kinds.push_back(std::move(kind));
  }
  if (kinds.empty()) usage(path + " lists no campaign kinds");
  return kinds;
}

/// `kind`'s arguments with every `{tag}` replaced by `tag`.
std::vector<std::string> campaign_argv(const Kind& kind,
                                       const std::string& tag) {
  static const std::string kPlaceholder = "{tag}";
  std::vector<std::string> argv = kind.argv;
  for (std::string& arg : argv) {
    for (std::size_t at = arg.find(kPlaceholder); at != std::string::npos;
         at = arg.find(kPlaceholder, at + tag.size())) {
      arg.replace(at, kPlaceholder.size(), tag);
    }
  }
  return argv;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Campaign run_one(const Args& a, const std::vector<Kind>& kinds,
                 Clock::time_point t0, std::size_t client, std::size_t seq) {
  Campaign c;
  c.client = client;
  c.kind = (client + seq) % kinds.size();
  const std::string tag = std::to_string(client) + "-" + std::to_string(seq);
  mc::SubmitOptions opts;
  opts.busy_retries = 0;  // a refusal is a failed campaign, not a retry
  opts.idle_timeout_ms = 60'000;
  const Clock::time_point sent = Clock::now();
  c.start_s = std::chrono::duration<double>(sent - t0).count();
  opts.on_progress = [&c, sent](std::uint64_t, std::uint64_t) {
    if (c.first_progress_s < 0) c.first_progress_s = seconds_since(sent);
  };
  const std::vector<std::string> argv = campaign_argv(kinds[c.kind], tag);
  Result<mc::SubmitResult> r = mc::submit_campaign(a.socket, argv, opts);
  c.latency_s = seconds_since(sent);
  if (!r.is_ok()) {
    c.busy = r.status().code() == ErrorCode::kUnavailable;
    c.error = r.status().to_string();
    return c;
  }
  c.exit_code = r.value().exit_code;
  c.error = r.value().error;
  c.report = std::move(r.value().report_json);
  return c;
}

void write_results(const Args& a, const std::vector<Kind>& kinds,
                   const std::vector<Campaign>& all, double wall_s) {
  std::ofstream out(a.out, std::ios::trunc);
  out << std::setprecision(17);
  out << "{\"wall_s\": " << wall_s << ", \"campaigns\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Campaign& c = all[i];
    if (i > 0) out << ",\n";
    out << "{\"client\": " << c.client << ", \"kind\": \"";
    out << io::json_escape(kinds[c.kind].name);
    out << "\", \"start_s\": " << c.start_s;
    out << ", \"latency_s\": " << c.latency_s;
    out << ", \"first_progress_s\": " << c.first_progress_s;
    out << ", \"exit_code\": " << c.exit_code;
    out << ", \"busy\": " << (c.busy ? "true" : "false");
    out << ", \"error\": \"" << io::json_escape(c.error);
    out << "\", \"report\": \"" << io::json_escape(c.report) << "\"}";
  }
  out << "\n]}\n";
  if (!out) usage("cannot write " + a.out);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const std::vector<Kind> kinds = read_kinds(a.kinds);
  std::mutex mu;
  std::vector<Campaign> all;
  std::atomic<std::size_t> finished{0};
  const Clock::time_point t0 = Clock::now();
  auto client = [&](std::size_t id) {
    for (std::size_t seq = 0;; ++seq) {
      const double elapsed = seconds_since(t0);
      const bool enough =
          elapsed >= a.seconds &&
          finished.load() >= static_cast<std::size_t>(a.min_campaigns);
      if (enough || elapsed >= a.max_seconds) return;
      Campaign c = run_one(a, kinds, t0, id, seq);
      finished.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      all.push_back(std::move(c));
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) threads.emplace_back(client, i);
  for (std::thread& t : threads) t.join();
  write_results(a, kinds, all, seconds_since(t0));
  return 0;
}
