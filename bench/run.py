"""Benchmark for corona_packing: one workload, one run, one JSON result line.

    python3 bench/run.py --workload oriented-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy.  The seed makes the instance list
(see ``workloads.py``); the timed phase repeats whole passes over it until
``--seconds`` have elapsed, and at least MIN_PASSES times, so that every
pass does the same work.  Each instance's latency is its median over the
passes, scaled to a nominal machine speed (see ``calibrate.py``);
``instances_per_s`` is the instance count over the sum of those medians.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of the traced passes, which alternate with untraced
ones.  The line before it is the full report: environment, instance counts,
unscaled wall times, failures and the behaviour invariants (solver nodes
and a witness digest, compared with ``baseline.json``).  The report and,
when traced, the spans are also written under ``bench/out/``.  The exit
code is 1 when any check failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("oriented-sweep", "corona-search", "cli-pipeline")
SETUP_SAMPLES = 5  # set-ups per run (this process plus fresh subprocesses)
SUBPROCESS_TIMEOUT_S = 120
MIN_PASSES = 3  # so that each instance's median latency has three samples
PERCENTILE_BAND = 2.5  # percentiles average the ranks within +-2.5 points

# Span names of the layer operations the workloads call.  Each gives a
# per-layer ``<op>_s`` (self seconds) and ``<op>_calls`` metric per pass.
LAYER_OPS = (
    "graphs.distances",
    "graphs.weak_distances",
    "graphs.corona_check",
    "solver.pcn",
    "solver.validate",
    "oriented.classify",
    "oriented.cycle",
    "closed_form.construct",
    "closed_form.value",
    "patterns.check",
    "textio.parse",
    "textio.format",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh interpreter and print it
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import corona_packing and the workloads from this checkout only."""
    package = SRC / "corona_packing"
    if not (package / "__init__.py").is_file():
        print(f"error: no package at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import corona_packing
    import workloads

    if Path(corona_packing.__file__).resolve().parent != package:
        print(f"error: imported {corona_packing.__file__}, not {package}",
              file=sys.stderr)
        raise SystemExit(2)
    return workloads


def setup_in_subprocess(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Totals:
    """Outcome of the checks over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def run_pass(instances, tracer, speed, totals: Totals, record=None):
    """Check every instance once.

    Returns each instance's seconds scaled to the nominal machine speed,
    and the pass's unscaled wall seconds.  With ``record`` (a list),
    appends ``(label, core, nodes, digest, text_bytes)`` per instance; the
    invariants come from that pass.
    """
    latencies = []
    start = perf_counter()
    for idx, inst in enumerate(instances):
        scale = speed.before()
        token = tracer.open("instance", idx)
        t0 = perf_counter()
        totals.attempted += 1
        try:
            nodes, witnesses, nbytes = inst.check(tracer, *inst.args)
        except Exception as exc:  # a wrong answer or a crash: a failed check
            totals.fail(f"{inst.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            seconds = perf_counter() - t0
            tracer.close(token)
            latencies.append(seconds * speed.after(scale, seconds))
        if record is not None:
            h = hashlib.sha256()
            for w in witnesses:
                h.update(bytes(w))
                h.update(b"|")
            record.append((inst.label, inst.core, nodes, h.hexdigest(), nbytes))
    return latencies, perf_counter() - start


def robust_latencies(passes: list[list[float]]) -> list[float]:
    """Each instance's median over the passes, which ran at different
    moments, so that a spell of contention seen by one pass drops out."""
    return [statistics.median(col) for col in zip(*passes)]


def timed_passes(instances, tracer, speed, totals, record, seconds, trace):
    """Whole passes until ``seconds`` have elapsed, at least MIN_PASSES.

    With ``trace``, a traced pass follows each untraced one.  Returns the
    untraced and traced latencies per pass, the untraced wall times and
    the index of the first traced span.
    """
    plain, traced, walls, first = [], [], [], len(tracer.spans)
    start = perf_counter()
    while len(plain) < MIN_PASSES or perf_counter() - start < seconds:
        tracer.enabled = False
        lat, wall = run_pass(instances, tracer, speed, totals,
                             None if plain else record)
        plain.append(lat)
        walls.append(wall)
        if trace:
            tracer.enabled = True
            traced.append(run_pass(instances, tracer, speed, totals)[0])
    return plain, traced, walls, first


def invariants(record) -> dict:
    """Solver node counts and a digest of all witnesses, for the seed-free
    core and for every instance, in label order."""
    out = {}
    for part, rows in (("core", [r for r in record if r[1]]), ("all", record)):
        h = hashlib.sha256()
        for label, _, _, digest, _ in sorted(rows):
            h.update(f"{label}={digest};".encode())
        out[part] = {
            "instances": len(rows),
            "nodes": sum(r[2] for r in rows),
            "witness_sha256": h.hexdigest(),
        }
    return out


def check_baseline(workload: str, inv: dict) -> dict:
    """Compare the core invariants with the ones recorded in baseline.json."""
    path = BENCH / "baseline.json"
    base = None
    if path.is_file():
        base = json.loads(path.read_text())["invariants"].get(workload)
    if base is None:
        return {"baseline": None, "match": None}
    match = base == inv["core"]
    if not match:
        print(f"warning: {workload} core node count or witnesses differ from "
              f"bench/baseline.json: {base} != {inv['core']}", file=sys.stderr)
    return {"baseline": base, "match": match}


def percentile(sorted_values: list[float], q: float) -> float:
    """The q-th percentile of an ascending list, as the mean of the values
    ranked within PERCENTILE_BAND of it: one instance's timing noise then
    moves the estimate far less than it moves a single order statistic."""
    n = len(sorted_values)
    lo = int(n * (q - PERCENTILE_BAND) / 100)
    hi = max(lo + 1, math.ceil(n * (q + PERCENTILE_BAND) / 100))
    return statistics.fmean(sorted_values[lo:hi])


def environment(args, counts: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "corona_packing").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": counts,
    }


def layer_metrics(tracer, setup_spans: int, first: int, passes: int,
                  record, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans: count and self seconds per
    operation per traced pass, plus set-up build time and node counts.
    Also returns calls, busy and self seconds per pass for every span name."""
    traced = tracer.totals(first)
    table = {
        name: {"calls": c / passes, "busy_s": b / passes, "self_s": own / passes}
        for name, (c, b, own) in sorted(traced.items())
    }
    build = sum(end - start for name, start, end, *_ in tracer.spans[:setup_spans]
                if name == "graphs.build")
    metrics = {"graphs.build_s": (build, "s")}
    for op in LAYER_OPS:
        count, _, own = traced.get(op, (0, 0.0, 0.0))
        metrics[f"{op}_s"] = (own / passes, "s")
        metrics[f"{op}_calls"] = (count // passes, "count")
    nodes = sum(r[2] for r in record)
    pcn_s = metrics["solver.pcn_s"][0]
    metrics["solver.nodes"] = (nodes, "count")
    metrics["solver.nodes_per_s"] = (nodes / pcn_s if pcn_s else 0.0, "1/s")
    metrics["textio.bytes"] = (sum(r[4] for r in record), "B")
    metrics["harness.self_s"] = (traced["instance"][2] / passes, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, table


def scaled_setup(args, tracer):
    """Import plus instance generation, scaled by speed readings taken
    just before and after; returns (seconds, workloads module, instances)."""
    before = calibrate.reading()
    t0 = perf_counter()
    workloads = import_package()
    token = tracer.open("setup", -1)
    instances = workloads.WORKLOADS[args.workload](args.seed, tracer)
    tracer.close(token)
    raw = perf_counter() - t0
    after = calibrate.reading()
    scaled = raw * calibrate.REF_NOMINAL_S / ((before + after) / 2)
    return scaled, workloads, instances


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = Tracer(enabled=bool(args.trace))
    setup_s, workloads, instances = scaled_setup(args, tracer)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_spans = len(tracer.spans)
    speed = calibrate.Speedometer()
    totals = Totals()
    record: list = []
    counts = {
        "per_pass": len(instances),
        "core": sum(inst.core for inst in instances),
    }
    report = {"environment": environment(args, counts)}
    if not args.trace:
        setups = [setup_s] + [setup_in_subprocess(args)
                              for _ in range(SETUP_SAMPLES - 1)]
    passes, traced, walls, first = timed_passes(
        instances, tracer, speed, totals, record, args.seconds, args.trace)
    report["passes"] = {"untraced_wall_s": walls}
    if args.trace:
        # the difference of the per-instance medians is the tracing overhead
        overhead = sum(robust_latencies(traced)) - sum(robust_latencies(passes))
        metrics, report["spans_per_pass"] = layer_metrics(
            tracer, setup_spans, first, len(traced), record, overhead)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        q, dm = workloads.probe_matrix()
        overruns = []
        for _ in range(workloads.PROBE_CALLS):
            scale = speed.before()
            over, ok = workloads.probe_call(q, dm)
            overruns.append(1000 * over * speed.after(scale, over))
            totals.attempted += 1
            if not ok:
                totals.fail("budget probe: wrong answer")
        lat = sorted(robust_latencies(passes))
        metrics = {
            "instances_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "instance_ms_p50": {"value": 1000 * percentile(lat, 50), "unit": "ms"},
            "instance_ms_p90": {"value": 1000 * percentile(lat, 90), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "budget_overrun_ms": {"value": statistics.median(overruns), "unit": "ms"},
        }
        report["latency_samples"] = len(lat)
        report["setup_samples_s"] = setups
        report["budget_overrun_samples_ms"] = overruns
    report["speed_readings_s"] = statistics.quantiles(speed.readings, n=4)
    inv = invariants(record)
    report.update(
        fail_ratio=totals.failed / totals.attempted,
        failures=totals.failures,
        invariants=inv,
        baseline=check_baseline(args.workload, inv),
        metrics=metrics,
    )
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.dump(out / f"{stem}.spans.json.gz", [i.label for i in instances])
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result))
    return 0 if totals.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
