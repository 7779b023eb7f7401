#!/usr/bin/env python3
"""End-to-end campaign benchmark for the `fav` CLI.

Builds `fav` and the benchmark's helpers from the checkout's sources, then
drives `fav` the way a user runs it: the stop flag is set, every campaign is
journaled, and a campaign may run supervised or be served by `fav serve`.
Every answer is checked against a reference; each metric is printed by name
with its unit, and the last line of standard output is one JSON object.

    python3 perfbench/run.py --workload sampled-warm|exhaustive-cold|served-mix
                             --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics; --trace 1 runs the traced
per-layer run instead (see NOTES.md). --workload all runs every workload in
turn. --write-reference records this seed's answers in references.json
instead of checking them.
"""
import argparse
import json
import os
import shutil
import statistics
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
FAV = os.path.join(BUILD, "fav_tools", "fav")
PB_TRACE = os.path.join(BUILD, "pb_trace")
PB_CLIENT = os.path.join(BUILD, "pb_serve_client")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("sampled-warm", "exhaustive-cold", "served-mix")
SAMPLED_N = 250_000      # ~5 s per campaign on 4 vCPU at the seed code
SERVED_SAMPLES = 2_000
MIN_SERVED = 100         # so at least ten campaigns lie beyond p90
RUN_BUDGET_S = 150       # every run ends well inside the 180 s limit
CACHE = "warm.pca"       # pre-warmed artifact (relative to the run dir)
# Served campaign kinds: name -> (technique, strategy).
SERVED_KINDS = {"radiation": ("radiation", "importance"),
                "clock-glitch": ("clock-glitch", "random"),
                "voltage-glitch": ("voltage-glitch", "random")}


def p50(campaigns):
    """Median latency of served campaigns."""
    return statistics.median([c["latency_s"] for c in campaigns])


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Processes:
    """Every child this run starts; all are stopped and reaped on exit."""

    def __init__(self):
        self.live = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def start(self, argv, stderr_path):
        with open(stderr_path, "wb") as err:
            p = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, stderr=err)
        self.live.append(p)
        return p

    def reap(self, p):
        """Waits for `p` within the run budget; (exit code, peak RSS MB)."""
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(p)
        if time.monotonic() > self.deadline:
            raise BenchError("run budget exceeded")
        return p.returncode, usage.ru_maxrss / 1024.0

    def stop_all(self):
        for p in list(self.live):
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in list(self.live):
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            self.live.remove(p)

    def out_of_time(self, margin):
        return time.monotonic() + margin > self.deadline


class Spans:
    """The driver's own spans (campaigns, phases), kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []

    def add(self, name, start, end):
        self.spans.append({"id": len(self.spans), "name": name,
                           "start_ns": int(start * 1e9),
                           "end_ns": int(end * 1e9), "parent": -1,
                           "run": self.run_id})


def build():
    native = os.path.join(HERE, "native")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", native, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "fav",
                  "pb_trace", "pb_serve_client"])
    for argv in steps:
        done = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(argv[:2]))


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


class Run:
    """One benchmark run: a private directory, its processes, its gate."""

    def __init__(self, args):
        self.args = args
        self.procs = Processes()
        self.gate = M.Gate()
        self.spans = Spans(f"{args.workload}-seed{args.seed}")
        self.references = load_references()
        self.recorded = False
        self.first_answer = None  # a CLI run's first answer, for repeats
        os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-",
                                    dir=os.path.join(BUILD, "tmp"))
        self.n = 0

    def close(self):
        self.procs.stop_all()
        shutil.rmtree(self.dir, ignore_errors=True)

    def fav(self, argv):
        """Runs one `fav` command to completion: (wall s, code, RSS MB)."""
        self.n += 1
        t0 = time.perf_counter()
        p = self.procs.start([FAV] + argv, f"stderr-{self.n}.txt")
        code, rss = self.procs.reap(p)
        wall = time.perf_counter() - t0
        if code != 0:
            with open(f"stderr-{self.n}.txt", errors="replace") as f:
                log(f"fav {' '.join(argv[:3])} exited {code}:\n"
                    + f.read()[-2000:])
        return wall, code, rss

    def prewarm(self):
        """Untimed: elaborate once and store the pre-characterization
        artifact the warm campaigns load."""
        _, code, _ = self.fav(["evaluate", "--samples", "64",
                               "--precharac-cache", CACHE])
        if code != 0 or not os.path.exists(CACHE):
            raise BenchError("pre-warming the artifact cache failed")

    def reference(self, *keys):
        node = self.references
        for key in keys:
            node = node.get(key) if isinstance(node, dict) else None
        return node

    def remember(self, answer, *keys):
        """--write-reference: store `answer` under `keys`."""
        node = self.references
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = answer
        self.recorded = True

    # --- CLI workloads ------------------------------------------------------

    def cli_argv(self, journal, report, cache):
        seed = str(self.args.seed)
        if self.args.workload == "sampled-warm":
            return ["evaluate", "--benchmark", "write", "--strategy",
                    "importance", "--samples", str(SAMPLED_N), "--seed", seed,
                    "--threads", "4", "--journal", journal,
                    "--precharac-cache", cache, "--metrics-out", report]
        return ["evaluate", "--benchmark", "write", "--exhaustive",
                "--t-range", "50", "--radius", "1.5", "--supervise", "2",
                "--threads", "2", "--journal", journal, "--precharac-cache",
                cache, "--metrics-out", report]

    def cli_campaign(self, i, keep_journal=False):
        """One CLI campaign with a fresh journal; returns a dict."""
        cold = self.args.workload == "exhaustive-cold"
        cache = "cold.pca" if cold else CACHE
        if cold:
            for path in (cache, cache + ".lock"):
                if os.path.exists(path):
                    os.remove(path)
        journal, report_path = f"journal-{i}", f"report-{i}.json"
        start = time.perf_counter()
        wall, code, rss = self.fav(self.cli_argv(journal, report_path, cache))
        report = read_json(report_path) if code == 0 else None
        if cold:
            ref_keys = ("exhaustive-cold",)
        else:
            ref_keys = ("sampled-warm", str(self.args.seed))
        reference = self.reference(*ref_keys)
        if reference is None and self.first_answer is not None:
            reference = self.first_answer  # repeats must agree bitwise
        problems = M.campaign_problems(code, report, "miss" if cold else "hit",
                                       None if self.args.write_reference
                                       else reference)
        if report is not None and self.first_answer is None:
            self.first_answer = M.answer_of(report)
            if self.args.write_reference:
                self.remember(self.first_answer, *ref_keys)
        self.gate.record(f"campaign {i}", problems)
        if not keep_journal:
            shutil.rmtree(journal, ignore_errors=True)
        return {"start": start, "wall": wall, "rss": rss, "report": report,
                "journal": journal}

    def cli_loop(self, min_campaigns, seconds):
        self.first_answer = None
        runs = []
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if len(runs) >= min_campaigns and elapsed >= seconds:
                break
            if runs and self.procs.out_of_time(2.5 * max(r["wall"]
                                                         for r in runs)):
                break
            runs.append(self.cli_campaign(len(runs)))
        return runs

    def cli_end_to_end(self):
        self.prewarm()
        runs = self.cli_loop(min_campaigns=3, seconds=self.args.seconds)
        if not any(r["report"] is not None for r in runs):
            raise BenchError("no campaign completed")
        return M.cli_end_to_end(runs)

    def cli_traced(self):
        """Per-layer run: two campaigns, exact counts from their reports
        (which must repeat), then the per-call timings of pb_trace on the
        last campaign's journal."""
        self.prewarm()
        self.first_answer = None
        runs = []
        for i in range(2):
            run = self.cli_campaign(i, keep_journal=(i == 1))
            self.spans.add("campaign", run["start"],
                           run["start"] + run["wall"])
            runs.append(run)
        if any(r["report"] is None for r in runs):
            raise BenchError("a traced campaign produced no report")
        counts, bases = M.report_counts([runs[0]["report"]])
        repeated = M.report_counts([runs[1]["report"]])[0] == counts
        self.gate.record("report counts of the repeated campaign",
                         [] if repeated else ["differ from the first"])
        m = dict(counts)
        m.update(self.pb_trace(runs[-1]["journal"],
                               SAMPLED_N if self.args.workload ==
                               "sampled-warm" else 0))
        # The serve layer, on a short served mix with this seed.
        refs, local_walls = self.local_references(reps=1)
        p, sock, _ = self.start_daemon("serve")
        probe = self.serve_clients(sock, refs, 0, 6, "probe")
        self.stop_daemon(p)
        m.update(self.serve_metrics(probe["campaigns"], local_walls))
        return m, bases

    # --- served-mix ---------------------------------------------------------

    def start_daemon(self, tag):
        sock = f"{tag}.sock"
        t0 = time.perf_counter()
        p = self.procs.start([FAV, "serve", "--socket", sock,
                              "--max-campaigns", "2", "--state-dir",
                              f"{tag}-state"], f"{tag}-stderr.txt")
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(sock)
                ready = time.perf_counter() - t0
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if p.poll() is not None:
                    raise BenchError(f"fav serve exited {p.returncode}")
                if time.perf_counter() - t0 > 30:
                    raise BenchError("fav serve did not accept in 30 s")
                time.sleep(0.0002)
            finally:
                s.close()
        return p, sock, ready

    def stop_daemon(self, p):
        p.send_signal(signal.SIGTERM)
        code, rss = self.procs.reap(p)
        self.gate.record("fav serve on SIGTERM",
                         [f"exited {code}"] if code != 0 else [])
        return rss

    def served_argv(self, kind, journal, report):
        """The `fav` arguments of a served-mix campaign of `kind`: the one
        definition both the local references and the clients use."""
        technique, strategy = SERVED_KINDS[kind]
        return ["evaluate", "--benchmark", "write", "--technique", technique,
                "--strategy", strategy, "--samples", str(SERVED_SAMPLES),
                "--seed", str(self.args.seed), "--threads", "2",
                "--journal", journal, "--precharac-cache", CACHE,
                "--metrics-out", report]

    def local_references(self, reps):
        """Each served kind run locally with the same flags: its answer is
        the reference for the served campaigns (and must match the stored
        one), its wall time the base of the serve overhead."""
        refs, walls = {}, {}
        for kind in SERVED_KINDS:
            walls[kind] = []
            for r in range(reps):
                journal = f"local-{kind}-{r}"
                report_path = journal + ".json"
                wall, code, _ = self.fav(
                    self.served_argv(kind, journal, report_path))
                report = read_json(report_path) if code == 0 else None
                stored = self.reference("served-mix", kind,
                                        str(self.args.seed))
                expect = refs.get(kind, stored)
                if self.args.write_reference:
                    expect = None
                problems = M.campaign_problems(code, report, "hit", expect)
                self.gate.record(f"local {kind} {r}", problems)
                if report is None:
                    raise BenchError(f"local {kind} campaign failed")
                refs.setdefault(kind, M.answer_of(report))
                if self.args.write_reference and r == 0:
                    self.remember(refs[kind], "served-mix", kind,
                                  str(self.args.seed))
                walls[kind].append(wall)
        return refs, walls

    def serve_clients(self, sock, refs, seconds, min_campaigns, tag):
        out, kinds, work = (f"{tag}-clients.json", f"{tag}-kinds.tsv",
                            f"{tag}-campaigns")
        os.makedirs(work, exist_ok=True)
        with open(kinds, "w") as f:
            for kind in SERVED_KINDS:
                argv = self.served_argv(kind, f"{work}/journal-{{tag}}",
                                        f"{work}/report-{{tag}}.json")
                f.write("\t".join([kind] + argv) + "\n")
        p = self.procs.start([
            PB_CLIENT, "--socket", sock, "--kinds", kinds, "--seconds",
            str(seconds), "--min-campaigns", str(min_campaigns), "--out", out,
            "--max-seconds",
            str(max(10.0, self.procs.deadline - time.monotonic() - 15))],
            f"{tag}-client-stderr.txt")
        code, _ = self.procs.reap(p)
        result = read_json(out) if code == 0 else None
        if result is None:
            raise BenchError(f"serve client exited {code}")
        for i, c in enumerate(result["campaigns"]):
            report = None
            if c["report"]:
                try:
                    report = json.loads(c["report"])
                except ValueError:
                    pass
            c["report"] = report
            if c["busy"]:
                problems = ["refused busy"]
            elif c["error"]:
                problems = [c["error"]]
            else:
                problems = M.campaign_problems(c["exit_code"], report,
                                               "hit", refs[c["kind"]])
            c["ok"] = not problems
            self.gate.record(f"served {tag} {i} ({c['kind']})", problems)
        return result

    def served_end_to_end(self):
        self.prewarm()
        refs, _ = self.local_references(reps=1)
        setups = []
        for i in range(15):
            p, _, ready = self.start_daemon(f"probe{i}")
            setups.append(ready)
            self.stop_daemon(p)
        p, sock, _ = self.start_daemon("serve")
        result = self.serve_clients(sock, refs, self.args.seconds,
                                    MIN_SERVED, "main")
        rss = self.stop_daemon(p)
        return M.served_end_to_end(result["campaigns"], result["wall_s"],
                                   setups, rss, failed_latency=RUN_BUDGET_S)

    def served_traced(self):
        self.prewarm()
        refs, local_walls = self.local_references(reps=3)
        p, sock, _ = self.start_daemon("serve")
        t_start = time.perf_counter()
        served = self.serve_clients(sock, refs, self.args.seconds, 60,
                                    "traced")
        campaigns = served["campaigns"]
        for c in campaigns:
            s = t_start + c["start_s"]
            self.spans.add(f"served.{c['kind']}", s, s + c["latency_s"])
        self.stop_daemon(p)
        # Counts over one served campaign of each kind repeat exactly,
        # unlike totals over however many campaigns fit in the run.
        first = {}
        for c in campaigns:
            if c["report"] is not None:
                first.setdefault(c["kind"], c["report"])
        if len(first) != len(SERVED_KINDS):
            raise BenchError("a campaign kind never completed")
        counts, bases = M.report_counts(list(first.values()))
        m = dict(counts)
        m.update(self.pb_trace("local-radiation-0", SERVED_SAMPLES))
        m.update(self.serve_metrics(campaigns, local_walls))
        return m, bases

    def serve_metrics(self, campaigns, local_walls):
        """Serve-layer metrics of served campaigns; `local_walls` holds the
        local `fav evaluate` wall times of each kind, the overhead's base."""
        return {
            "mc.serve.first_progress_s": statistics.median(
                [c["first_progress_s"] for c in campaigns
                 if c["first_progress_s"] >= 0] or [0.0]),
            "mc.serve.overhead_s": statistics.median([
                p50([c for c in campaigns if c["kind"] == kind]) -
                statistics.median(local_walls[kind])
                for kind in SERVED_KINDS]),
            "mc.serve.busy": float(sum(c["busy"] for c in campaigns)),
        }

    # --- traced per-call timings -------------------------------------------

    def pb_trace(self, journal, samples):
        os.makedirs("trace-work", exist_ok=True)
        argv = [PB_TRACE, "--workload", self.args.workload, "--seed",
                str(self.args.seed), "--samples", str(samples), "--cache",
                CACHE, "--journal", journal, "--workdir", "trace-work",
                "--spans", "trace-spans.json", "--out", "trace-metrics.json"]
        start = time.perf_counter()
        p = self.procs.start(argv, "trace-stderr.txt")
        code, _ = self.procs.reap(p)
        self.spans.add("pb_trace", start, time.perf_counter())
        out = read_json("trace-metrics.json") if code == 0 else None
        if out is None:
            with open("trace-stderr.txt", errors="replace") as f:
                log(f.read()[-2000:])
            raise BenchError(f"pb_trace exited {code}")
        return out

    def write_spans(self):
        """Keeps the run's spans: the driver's and pb_trace's, in one file
        under the build directory."""
        harness = read_json("trace-spans.json") or {"spans": []}
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{self.spans.run_id}.json")
        with open(path, "w") as f:
            json.dump({"run": self.spans.run_id,
                       "driver": self.spans.spans,
                       "pb_trace": harness["spans"]}, f)


def run_workload(args):
    """Runs one workload and prints its metrics; True when correct."""
    run = Run(args)
    cwd = os.getcwd()
    os.chdir(run.dir)
    try:
        served = args.workload == "served-mix"
        if args.trace:
            m, notes = run.served_traced() if served else run.cli_traced()
            units = M.PER_LAYER
            m["failed_fraction"] = run.gate.failed / max(1, run.gate.attempted)
            run.write_spans()
        else:
            m, notes = (run.served_end_to_end() if served
                        else run.cli_end_to_end())
            units = M.END_TO_END
    finally:
        os.chdir(cwd)
        run.close()

    if run.recorded:
        with open(REFERENCES, "w") as f:
            json.dump(run.references, f, indent=1, sort_keys=True)
            f.write("\n")
    missing = M.missing_metrics(m, units)
    if missing:
        raise BenchError("metrics not produced: " + ", ".join(missing))
    gate = run.gate
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in m.items():
        unit = units.get(name) or M.PRINTED_ONLY[name]
        text = "unresolved" if value is None else f"{value:.6g} {unit}"
        note = notes.get(name, "")
        print(f"  {name:30s} {text}" + (f"  ({note})" if note else ""))
    print(f"  failed_fraction = {gate.failed} / {gate.attempted}")
    for problem in gate.problems:
        print(f"  FAILED {problem}")
    print(json.dumps(M.result_line(gate.correct, gate.attempted, gate.failed,
                                   m, units)), flush=True)
    return gate.correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        correct &= run_workload(argparse.Namespace(**dict(
            vars(args), workload=workload)))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated benchmark still stops and reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
