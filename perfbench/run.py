"""Benchmark of the edgeplasmon package: one workload per run.

    python3 perfbench/run.py --workload dispersion --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from its
``src/`` directory.  Each workload builds a fixed batch of items from the
seed, and a run repeats it while time remains.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` alternates untraced
and traced passes, checks that they give bit-identical outputs and
reports the per-layer metrics.  See README.md.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every correctness check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import hostspeed
import workloads
from tracing import PAIR_BYTES, TRACED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

SETUP_CODE = """\
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
start = time.perf_counter()
import edgeplasmon, edgeplasmon.cli
elapsed = time.perf_counter() - start
if not edgeplasmon.__file__.startswith(src):
    sys.exit(f"imported {edgeplasmon.__file__}")
print(repr(elapsed))
"""


def import_package():
    """Import edgeplasmon from this checkout's src/, nowhere else."""
    if not (SRC / "edgeplasmon" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'edgeplasmon'}")
    sys.path.insert(0, str(SRC))
    import edgeplasmon
    import edgeplasmon.cli  # noqa: F401  (the traced run wraps cli bindings)
    if Path(edgeplasmon.__file__).resolve().parent != SRC / "edgeplasmon":
        raise SystemExit(f"perfbench: imported {edgeplasmon.__file__}, not {SRC}")
    return edgeplasmon


def measure_setup() -> float:
    """Median import time of the package in fresh interpreters; the first
    import only warms the bytecode and file caches."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, timeout=120,
                             cwd=ROOT, check=True).stdout.strip()
        if i:
            times.append(float(out))
    return statistics.median(times)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class PassResult(NamedTuple):
    records: list    # (item, output or None, error text or None)
    latencies: list  # seconds per item
    scales: list     # per item, the factor to the reference speed (1 if not gauged)
    gauges: list     # gauge readings in seconds (gauged passes only)
    wall: float


def run_items(wl, items, gauged=False) -> PassResult:
    """One closed-loop pass.  With ``gauged``, the host-speed gauge runs
    between items."""
    records, latencies, segments = [], [], []
    readings = [(hostspeed.gauge(), time.perf_counter())] if gauged else []
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            output, error = wl.run(item), None
        except Exception as exc:  # one item's failure must not end the run
            output, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        records.append((item, output, error))
        if gauged:
            segments.append(len(readings) - 1)
            if time.perf_counter() - readings[-1][1] >= hostspeed.EVERY_S:
                readings.append((hostspeed.gauge(), time.perf_counter()))
    wall = time.perf_counter() - start
    if gauged:
        readings.append((hostspeed.gauge(), time.perf_counter()))
        scales = [hostspeed.scale(readings[k][0], readings[k + 1][0]) for k in segments]
    else:
        scales = [1.0] * len(records)
    return PassResult(records, latencies, scales, [g for g, _ in readings], wall)


def repeat(seconds, step):
    """Call step() at least once, and again while the next call is expected
    to end within ``seconds`` of the start."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


class Passes:
    """Repeated passes over one item list.  The first pass is checked; every
    later pass must give bit-identical outputs, so its verdicts carry over."""

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.baseline = None
        self.verdicts: list[str] = []
        self.messages: list[str] = []
        self.errors: list[str] = []
        self.attempted = self.failed = 0

    def run(self, label, gauged=False) -> PassResult:
        result = run_items(self.wl, self.items, gauged)
        prints = [("raised", error) if error is not None
                  else ("ok", self.wl.fingerprint(output))
                  for _, output, error in result.records]
        if self.baseline is None:
            self.baseline = prints
            self._check(result.records)
        elif prints != self.baseline:
            self.errors.append(f"{label}: outputs differ from the first pass")
        self.attempted += len(result.records)
        self.failed += len(result.records) - self.verdicts.count("ok")
        return result

    def _check(self, records):
        for item, output, error in records:
            if error is not None:
                self.verdicts.append("raised")
                self.messages.append(f"raised: {error}")
                continue
            msg = self.wl.check(item, output)
            self.verdicts.append("wrong" if msg else "ok")
            if msg:
                self.messages.append(f"wrong: {msg}")
        self.errors += self.wl.finish(records)

    @property
    def wrong(self) -> bool:
        return "wrong" in self.verdicts


# --- timed mode -----------------------------------------------------------------


def latency_metrics(per_pass, ok, suffix):
    """Throughput and latency percentiles from per-pass item times: per item
    the median over passes.  A failed item misses every latency limit, unless
    most items failed (the run is then incorrect, and the times stay finite)."""
    n = len(ok)
    lat = [statistics.median(times[i] for times in per_pass) for i in range(n)]
    if sum(ok) > n // 2:
        lat = [t if good else math.inf for t, good in zip(lat, ok)]
    out = {f"items_per_s{suffix}": (statistics.median(sum(ok) / sum(t) for t in per_pass), "1/s"),
           f"latency_p50_ms{suffix}": (1000.0 * statistics.median(lat), "ms")}
    if n >= 100:
        out[f"latency_p90_ms{suffix}"] = (1000.0 * percentile(lat, 0.90), "ms")
    if n >= 1000:
        out[f"latency_p99_ms{suffix}"] = (1000.0 * percentile(lat, 0.99), "ms")
    return out


def timed_run(wl, seconds):
    errors = wl.prepare()
    passes = Passes(wl, wl.items)
    raw, rescaled, rows, gauges = [], [], [], []

    def step():
        result = passes.run(f"pass {len(raw)}", gauged=wl.rescaled)
        raw.append(result.latencies)
        rescaled.append([t * f for t, f in zip(result.latencies, result.scales)])
        rows.append(wl.layer_counts(result.records).get("cli.rows"))
        gauges.extend(result.gauges)

    repeat(seconds, step)
    ok = [v == "ok" for v in passes.verdicts]
    if sum(ok) <= len(ok) // 2:
        errors.append("half or more of the items failed")
    metrics = {**latency_metrics(raw, ok, ""), **latency_metrics(rescaled, ok, "_adj")}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics.update({
        "fail_ratio": (passes.failed / passes.attempted, "1"),
        "batch_items": (len(ok), "count"),
        "passes": (len(raw), "count"),
    })
    if gauges:
        metrics["host_speed"] = (hostspeed.REFERENCE_S / statistics.median(gauges), "1")
    if rows[0] is not None:
        metrics["cli.rows_per_s"] = (statistics.median(
            r / sum(t) for r, t in zip(rows, raw)), "1/s")
    return metrics, passes, errors


# --- traced mode ----------------------------------------------------------------


def _stat_sum(stats, name, key):
    return stats[name][key] if name in stats else 0


def layer_metrics(reps, overheads, counts):
    """Per-layer metrics: counts from the first traced pass (every pass
    repeats them exactly), times as the median over passes."""
    first = reps[0]

    def count(name, key):
        return _stat_sum(first, name, key)

    def seconds(name):
        return float(statistics.median(_stat_sum(s, name, "self_s") for s in reps))

    out = {}
    for name, *_ in TRACED:
        out[f"{name}.calls"] = (count(name, "calls"), "count")
        out[f"{name}.self_s"] = (seconds(name), "s")
    quad = "quadrature.adaptive_gk"
    out[f"{quad}.n_eval"] = (count(quad, "n_eval"), "count")
    out[f"{quad}.n_segments"] = (count(quad, "n_segments"), "count")
    out[f"{quad}.errors"] = (count(quad, "errors"), "count")
    solve = "dispersion.solve"
    returned = count(solve, "calls") - count(solve, "errors")
    out[f"{solve}.residual_evals_per_call"] = (
        count(solve, "residual_evals") / returned if returned else 0.0, "1")
    out[f"{solve}.converged_ratio"] = (
        count(solve, "converged") / count(solve, "calls") if count(solve, "calls") else 0.0, "1")
    table = "wiener_hopf.CauchyTable"
    out[f"{table}.build.nodes"] = (count(f"{table}.build", "nodes"), "count")
    out[f"{table}.phi.points"] = (count(f"{table}.phi", "points"), "count")
    out[f"{table}.phi.pair_ops"] = (count(f"{table}.phi", "pair_ops"), "count")
    out[f"{table}.phi.bytes_computed"] = (PAIR_BYTES * count(f"{table}.phi", "pair_ops"), "B")
    out["field.phi_profile.x_points"] = (count("field.phi_profile", "x_points"), "count")
    out["spectrum.unwrapped_phase_grid.nodes"] = (count("spectrum.unwrapped_phase_grid", "nodes"), "count")
    out["kernel.p_of_xi.calls"] = (count("kernel.p_of_xi", "calls"), "count")
    out["kernel.p_of_xi.points"] = (count("kernel.p_of_xi", "points"), "count")
    out["cli.rows"] = (counts.get("cli.rows", 0), "count")
    out["cli.bytes_out"] = (counts.get("cli.bytes_out", 0), "B")
    out["trace.overhead_s"] = (statistics.median(overheads), "s")
    return out


def traced_run(wl, seconds, spans_path):
    errors = wl.prepare()
    passes = Passes(wl, wl.items[:wl.trace_items])
    reps, overheads, walls, counts = [], [], [], {}
    with open(spans_path, "w", encoding="utf-8") as fh:
        def step():
            plain_wall = passes.run(f"untraced pass {len(reps)}").wall
            tracer = Tracer()
            tracer.install()
            try:
                traced = passes.run(f"traced pass {len(reps)}")
            finally:
                tracer.uninstall()
            tracer.write_spans(fh, len(reps))
            counts.update(wl.layer_counts(traced.records))
            reps.append(tracer.stats)
            overheads.append(traced.wall - plain_wall)
            walls.append(traced.wall)

        repeat(seconds, step)
    measured = layer_metrics(reps, overheads, counts)
    for name, *_ in TRACED:
        share = statistics.median(_stat_sum(s, name, "total_s") / w for s, w in zip(reps, walls))
        if share:
            measured[f"share.{name}"] = (share, "1")
    return measured, passes, errors


# --- entry point ----------------------------------------------------------------


def expected_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ep = import_package()
    expected = expected_metrics(bool(args.trace))
    ref = workloads.load_reference(HERE / "reference.json")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        wl = workloads.WORKLOADS[args.workload](ep, ref, args.seed, tmpdir)
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            measured, passes, errors = traced_run(wl, args.seconds, spans)
        else:
            setup_s = measure_setup()
            measured, passes, errors = timed_run(wl, args.seconds)
            measured["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    absent = [name for name, unit in expected.items()
              if name not in measured or measured[name][1] != unit]
    if absent:
        raise SystemExit(f"perfbench: BENCHMARK.json metrics not measured: {absent}")
    errors += passes.errors
    correct = not errors and not passes.wrong
    attempted, failed = passes.attempted, passes.failed
    for msg in errors + passes.messages[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  correct {correct}")
    for name, (value, unit) in measured.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        mark = "*" if name in expected else " "
        print(f"{mark} {name:<52} {shown} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": measured[name][0], "unit": unit}
                                  for name, unit in expected.items()}}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
