"""Metric declarations and the pure helpers of the campaign benchmark.

Everything here is free of processes and files so the benchmark's own tests
(test_perfbench.py) can check it directly.
"""
import math
import re
import statistics

# End-to-end metrics, host time measured with tracing off. Every workload
# emits every one of them (see NOTES.md for what each means per workload).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Served-mix numbers printed with the end-to-end metrics but not declared:
# a declared metric must be emitted on every workload, and the CLI
# workloads hold too few campaigns to resolve latency percentiles.
PRINTED_ONLY = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "campaigns_per_s": "1/s",
}

# Per-layer metrics of the traced run. Timings come from calls into the
# library on the workload's own inputs; counts are copied exactly from the
# run reports. Glitch and serve metrics use the served-mix inputs with the
# run's seed on every workload.
PER_LAYER = {
    "core.framework_warm_s": "s",
    "core.framework_cold_s": "s",
    "soc.elaborate_s": "s",
    "layout.place_s": "s",
    "rtl.golden_s": "s",
    "netlist.cone_s": "s",
    "precharac.signatures_s": "s",
    "precharac.characterization_s": "s",
    "precharac.artifact_save_s": "s",
    "precharac.artifact_load_s": "s",
    "mc.draw_s": "s",
    "mc.reduce_s": "s",
    "mc.lane_occupancy": "lanes/group",
    "mc.groups": "count",
    "mc.restore_saved_frac": "fraction",
    "rtl.restore_us": "us",
    "rtl.restores": "count",
    "rtl.resume_cycles": "count",
    "soc.settle_us": "us",
    "soc.settles": "count",
    "faultsim.sweep64_us": "us",
    "faultsim.sweep_lane_us": "us",
    "faultsim.glitch_flip_us": "us",
    "faultsim.voltage_flip_us": "us",
    "mc.outcome_analytical_us": "us",
    "mc.outcome_rtl_us": "us",
    "mc.journal_commit_us": "us",
    "mc.journal_commits": "count",
    "mc.journal_bytes": "bytes",
    "mc.journal_merge_s": "s",
    "mc.serve.first_progress_s": "s",
    "mc.serve.overhead_s": "s",
    "mc.serve.ledger_append_us": "us",
    "mc.failed": "count",
    "mc.retried": "count",
    "mc.supervisor.restarts": "count",
    "mc.serve.busy": "count",
    "failed_fraction": "fraction",
    "trace.overhead_frac": "fraction",
}

# The per-layer metrics pb_trace (native/trace.cpp) times, the tracer's own
# overhead included; the driver adds the report counts, the serve metrics
# and failed_fraction.
PB_TRACE_METRICS = (
    "core.framework_warm_s", "core.framework_cold_s", "soc.elaborate_s",
    "layout.place_s", "rtl.golden_s", "netlist.cone_s",
    "precharac.signatures_s", "precharac.characterization_s",
    "precharac.artifact_save_s", "precharac.artifact_load_s", "mc.draw_s",
    "mc.reduce_s", "rtl.restore_us", "soc.settle_us", "faultsim.sweep64_us",
    "faultsim.sweep_lane_us", "faultsim.glitch_flip_us",
    "faultsim.voltage_flip_us", "mc.outcome_analytical_us",
    "mc.outcome_rtl_us", "mc.journal_commit_us", "mc.journal_merge_s",
    "mc.serve.ledger_append_us", "trace.overhead_frac",
)
SERVE_METRICS = ("mc.serve.first_progress_s", "mc.serve.overhead_s",
                 "mc.serve.busy")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Run-report counters copied into per-layer counts: metric -> counter. A
# count is printed with its base so a later change can claim it exactly.
REPORT_COUNTS = {
    "mc.groups": "eval.batch_groups",
    "rtl.restores": "gate.injection_cycles",
    "rtl.resume_cycles": "rtl.resume_cycles",
    "soc.settles": "gate.settle_passes",
    "mc.journal_commits": "journal.commits",
    "mc.journal_bytes": "journal.bytes_written",
}


def percentile(values, q):
    """Nearest-rank q-quantile of `values`, or None when fewer than ten
    values lie beyond it (the percentile is then not resolved)."""
    if not 0 < q < 1 or not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def mean_of_kind_medians(campaigns, failed_latency):
    """Served campaign time: the mean over campaign kinds of each kind's
    median latency. A failed or refused campaign counts as
    `failed_latency`. Steadier than the median of the mixed distribution,
    which sits on the edge between the fast and the slow kinds."""
    by_kind = {}
    for c in campaigns:
        by_kind.setdefault(c["kind"], []).append(
            c["latency_s"] if c["ok"] else failed_latency)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def answer_of(report):
    """The campaign's answer: what must stay bitwise-identical."""
    return {
        "ssf": report["ssf"],
        "std_error": report["std_error"],
        "ess": report["ess"],
        "successes": report["successes"],
        "evaluated": report["evaluated"],
        "paths": dict(report["paths"]),
    }


def answer_mismatches(answer, reference):
    """Field names on which `answer` differs from `reference` (exact
    comparison: doubles are stored round-trip)."""
    return sorted(k for k in reference if answer.get(k) != reference[k])


def report_counts(reports):
    """Exact per-layer counts from campaign run reports, summed over the
    campaigns. Returns (metrics, bases) where bases explains each ratio."""
    c = {}
    for report in reports:
        for name, value in report["metrics"]["counters"].items():
            c[name] = c.get(name, 0) + value
    lanes, groups = c.get("eval.batch_lanes", 0), c.get("eval.batch_groups", 0)
    samples = c.get("eval.samples", 0)
    saved = c.get("eval.batch_restore_saved", 0)
    out = {name: float(c.get(counter, 0))
           for name, counter in REPORT_COUNTS.items()}
    out["mc.lane_occupancy"] = lanes / groups if groups else 0.0
    out["mc.restore_saved_frac"] = saved / samples if samples else 0.0
    out["mc.failed"] = float(sum(r["paths"]["failed"] for r in reports))
    out["mc.retried"] = float(sum(r["retried"] for r in reports))
    out["mc.supervisor.restarts"] = float(
        sum(r.get("supervisor", {}).get("restarts", 0) for r in reports))
    bases = {
        "mc.lane_occupancy":
            f"eval.batch_lanes {lanes} / eval.batch_groups {groups}",
        "mc.restore_saved_frac":
            f"eval.batch_restore_saved {saved} / eval.samples {samples}",
    }
    for name, counter in REPORT_COUNTS.items():
        bases[name] = (f"{counter} over {len(reports)} campaign(s), "
                       f"{samples} samples")
    return out, bases


class Gate:
    """Correctness gate: counts attempted and failed operations (campaigns)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def correct(self):
        return self.attempted > 0 and not self.problems


def campaign_problems(code, report, cache_outcome, reference):
    """What is wrong with one campaign: exit code, sample failures, the
    warm/cold cache guard ("hit", or "miss" with the artifact stored), and
    its answer against `reference` (None skips the comparison)."""
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["no run report"]
    problems = []
    if report["interrupted"]:
        problems.append("interrupted")
    if report["paths"]["failed"]:
        problems.append(f"{report['paths']['failed']} failed samples")
    cache = report["precharac_cache"]
    if cache["outcome"] != cache_outcome:
        problems.append(f"precharac cache {cache['outcome']}, "
                        f"expected {cache_outcome}")
    if cache_outcome == "miss" and not cache["stored"]:
        problems.append("cold artifact was not stored")
    if reference is not None:
        bad = answer_mismatches(answer_of(report), reference)
        if bad:
            problems.append("answer differs from reference in " +
                            ", ".join(bad))
    return problems


def cli_end_to_end(runs):
    """End-to-end metrics of a CLI workload from its campaigns, each a dict
    with the process wall time, its peak RSS and its run report (None when
    the campaign failed). Returns (metrics, notes)."""
    good = [r for r in runs if r["report"] is not None]
    walls = [r["wall"] for r in runs]
    m = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median([r["wall"] - r["report"]["elapsed_s"]
                           for r in good]),
        "samples_per_s": statistics.median([r["report"]["evaluated"] /
                                 r["report"]["elapsed_s"] for r in good]),
        "peak_rss_mb": max(r["rss"] for r in runs),
    }
    notes = {"wall_s": f"median of {len(runs)} campaigns, process start "
                       "to exit",
             "setup_s": "median of wall - run report elapsed_s",
             "samples_per_s": "median of evaluated / elapsed_s",
             "peak_rss_mb": "largest fav process, supervised workers "
                            "included"}
    return m, notes


def served_end_to_end(campaigns, wall, setups, rss, failed_latency):
    """End-to-end metrics of the served mix: `campaigns` as the clients
    report them (with "ok" set by the gate), `wall` the clients' run time,
    `setups` the daemon start-up probes, `rss` the daemon's peak RSS."""
    ok = [c for c in campaigns if c["ok"]]
    # A failed or refused campaign misses any latency limit.
    latencies = [c["latency_s"] if c["ok"] else math.inf for c in campaigns]
    p50 = percentile(latencies, 0.5)
    p90 = percentile(latencies, 0.9)
    m = {
        "wall_s": mean_of_kind_medians(campaigns, failed_latency),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "setup_s": statistics.median(setups),
        "samples_per_s": sum(c["report"]["evaluated"] for c in ok) / wall,
        "campaigns_per_s": len(ok) / wall,
        "peak_rss_mb": rss,
    }

    n = len(campaigns)
    notes = {"wall_s": "mean of the per-kind median latencies, request "
                       "sent -> kFinished",
             "latency_p50_s": f"{n} campaigns, failures count as missing",
             "latency_p90_s": f"{n} campaigns; resolved only with ten "
                              "beyond it",
             "setup_s": f"median of {len(setups)} daemon spawns until the "
                        "socket accepts",
             "samples_per_s": "samples of completed campaigns / client wall",
             "campaigns_per_s": f"{len(ok)} completed / {wall:.3f} s",
             "peak_rss_mb": "fav serve daemon"}
    return m, notes


def missing_metrics(metrics, units):
    """Declared metrics a run failed to produce."""
    return sorted(set(units) - set(metrics))


def result_line(correct, attempted, failed, metrics, units):
    """The final JSON object: every declared metric with its unit."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
