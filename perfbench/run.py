#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for arithbilliards.

Run from the repository root (the package is imported from ``src``, as the
tests do)::

    python3 perfbench/run.py --workload lib_queries --seed 1 --seconds 20 --trace 0

Workloads, each a closed loop with one client and inputs drawn from --seed:

* ``lib_queries``  -- library calls in-process (paths, reachability, walks,
  trajectories, generating functions, SVG rendering);
* ``cli_batch``    -- one ``python -m arithbilliards.cli`` process per op;
* ``oracle_sweep`` -- exhaustive oracle-vs-law checks on small grids.

Every answer is checked.  With ``--trace 0`` the run measures for --seconds
with tracing off and reports the end-to-end metrics.  With ``--trace 1`` it
measures half the time untraced and half traced on the same op stream, then
makes one coverage call per traced function and the fixed reference
measurements of ``anchors.py``; it reports the per-layer metrics and the
tracing overhead, and writes the spans to ``bench_out/``.  The last line of
stdout is the result as JSON; the line before it holds details (environment,
line counts, tail percentile, per-class time shares, failures).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["lib_queries", "cli_batch", "oracle_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the time set-up ended, and exit "
                             "(used to time set-up in a fresh process)")
    return parser.parse_args(argv)


class PassStats:
    """Latency of every op of one measured pass, in ns, and its failures."""

    def __init__(self) -> None:
        self.latency_ns = array("q")  # compact: a pass can hold half a million ops
        self.failed = 0
        self.failures: list[str] = []  # the first 20 messages
        self.class_ns: dict[str, int] = {}
        self.class_ops: dict[str, int] = {}

    @property
    def n(self) -> int:
        return len(self.latency_ns)

    def ops_per_s(self) -> float:
        return self.n / (sum(self.latency_ns) / 1e9)

    def p50_ms(self) -> float:
        return statistics.median(self.latency_ns) / 1e6

    def tail(self) -> tuple[float, float]:
        """(ms, percentile) of the highest sample with TAIL_BEYOND samples beyond it."""
        ordered = sorted(self.latency_ns)
        rank = max(0, self.n - TAIL_BEYOND - 1)
        return ordered[rank] / 1e6, 100.0 * (rank + 1) / self.n


def run_pass(wl, seconds: float, tracer=None) -> PassStats:
    """Closed loop: the next op starts when the previous one is checked."""
    stats = PassStats()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    i = 0
    while i == 0 or clock() < deadline:
        op = wl.ops[i % len(wl.ops)]
        if tracer is not None:
            tracer.op = i
        started = clock()
        ended = None
        try:
            out = wl.call(op)
            ended = clock()
            wl.check(op, out)
        except Exception as exc:  # a failed op is counted, and the run goes on
            ended = ended or clock()
            stats.failed += 1
            if len(stats.failures) < 20:
                stats.failures.append(f"op {i} {op[0]}: {type(exc).__name__}: {exc}"[:400])
        stats.latency_ns.append(ended - started)
        stats.class_ns[op[0]] = stats.class_ns.get(op[0], 0) + ended - started
        stats.class_ops[op[0]] = stats.class_ops.get(op[0], 0) + 1
        i += 1
    return stats


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes: spawn to the end of set-up, in s."""
    from workloads import spawn

    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        out, err, code, _, _ = spawn(argv, dict(os.environ), ROOT, timeout=120)
        if code != 0:
            raise RuntimeError(f"set-up process failed: {err.decode(errors='replace')[-500:]}")
        samples.append(float(out.split()[-1]) - started)
    return samples


def git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        return None
    return out or None


def line_counts(root: Path) -> dict[str, dict[str, int]]:
    """Lines of .py/.pyx/.c source under src, tests and benchmarks."""
    out = {}
    for top in ("src", "tests", "benchmarks"):
        counts = {".py": 0, ".pyx": 0, ".c": 0}
        for path in sorted((root / top).rglob("*")):
            rel = path.relative_to(root).parts
            if (path.suffix in counts and path.is_file()
                    and not any(p.startswith(".") or p in ("__pycache__", "build") for p in rel)):
                with open(path, "rb") as fh:
                    counts[path.suffix] += sum(1 for _ in fh)
        out[top] = counts
    return out


def environment() -> dict:
    import importlib.metadata
    import importlib.util

    from arithbilliards import kernels

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "kernels_backend": kernels.BACKEND,
        "cython_importable": importlib.util.find_spec("Cython") is not None,
        "lines": line_counts(ROOT),
    }


def describe(stats: PassStats) -> dict:
    total = sum(stats.class_ns.values())
    tail_ms, tail_pct = stats.tail()
    return {
        "ops": stats.n,
        "failed": stats.failed,
        "error_rate": stats.failed / stats.n,
        "op_tail": {"percentile": round(tail_pct, 3), "n": stats.n,
                    "samples_beyond": min(TAIL_BEYOND, stats.n - 1), "ms": tail_ms},
        "classes": {c: {"ops": stats.class_ops[c], "mean_ms": ns / stats.class_ops[c] / 1e6,
                        "time_share": ns / total}
                    for c, ns in sorted(stats.class_ns.items())},
        "failures": stats.failures,
    }


def e2e_metrics(stats: PassStats, setup_s: float | None, rss_mb: float) -> dict:
    m = {
        "ops_per_s": (stats.ops_per_s(), "1/s"),
        "op_p50_ms": (stats.p50_ms(), "ms"),
        "op_tail_ms": (stats.tail()[0], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": ((stats.n - stats.failed) / stats.n, "ratio"),
    }
    if setup_s is not None:
        m["setup_s"] = (setup_s, "s")
    return m


def run_untraced(args, wl, detail) -> tuple[dict, int, int, bool]:
    samples = measure_setup(args)
    detail["setup_samples_s"] = samples
    wl.peak_child_kb = 0
    stats = run_pass(wl, args.seconds)
    detail["pass"] = describe(stats)
    metrics = e2e_metrics(stats, statistics.median(samples), wl.peak_rss_mb())
    return metrics, stats.n, stats.failed, stats.failed == 0


def run_traced(args, wl, tmpdir, detail) -> tuple[dict, int, int, bool]:
    import anchors
    import tracing

    coverage = anchors.coverage_calls(tmpdir)
    half = args.seconds / 2
    wl.peak_child_kb = 0
    plain = run_pass(wl, half)
    plain_m = e2e_metrics(plain, None, wl.peak_rss_mb())

    tracer = tracing.Tracer()
    started = time.perf_counter()
    tracing.install(tracer)
    install_s = time.perf_counter() - started
    wl.tracer = tracer
    wl.peak_child_kb = 0
    try:
        traced = run_pass(wl, half, tracer)
        traced_m = e2e_metrics(traced, None, wl.peak_rss_mb())
        walls = dict(enumerate(traced.latency_ns))
        for j, call in enumerate(coverage):
            tracer.op = traced.n + j
            t0 = time.perf_counter_ns()
            try:
                call()
            except Exception:
                traced.failed += 1
                traced.failures.append(f"coverage call {j}: {traceback.format_exc(limit=2)}")
            walls[tracer.op] = time.perf_counter_ns() - t0
    finally:
        tracing.uninstall(tracer)
        wl.tracer = None

    over_wall = [op for op, self_ns in tracing.self_time_by_op(tracer).items()
                 if self_ns > walls.get(op, -1)]
    spot, spot_failures = anchors.spot_figures(ROOT, tmpdir)
    metrics = tracing.layer_metrics(tracer)
    metrics.update(spot)
    metrics["trace.overhead.ops_per_s_pct"] = (
        (1 - traced_m["ops_per_s"][0] / plain_m["ops_per_s"][0]) * 100, "%")
    for name in ("op_p50_ms", "op_tail_ms"):
        metrics[f"trace.overhead.{name[:-3]}_pct"] = (
            (traced_m[name][0] / plain_m[name][0] - 1) * 100, "%")
    metrics["trace.overhead.peak_rss_mb"] = (
        traced_m["peak_rss_mb"][0] - plain_m["peak_rss_mb"][0], "MB")
    metrics["trace.overhead.error_rate"] = (
        plain_m["success_rate"][0] - traced_m["success_rate"][0], "ratio")
    metrics["trace.overhead.setup_s"] = (install_s, "s")

    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin.gz"
    tracer.dump(spans_file)
    detail.update({
        "untraced_pass": describe(plain),
        "traced_pass": describe(traced),
        "untraced_metrics": {k: v[0] for k, v in plain_m.items()},
        "traced_metrics": {k: v[0] for k, v in traced_m.items()},
        "spans_file": str(spans_file.relative_to(ROOT)),
        "ops_with_self_time_over_wall": len(over_wall),
        "anchor_failures": spot_failures,
    })
    failed = plain.failed + traced.failed
    ok = failed == 0 and not over_wall and not spot_failures
    return metrics, plain.n + traced.n + len(coverage), failed, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "arithbilliards" / "__init__.py").is_file():
        print(f"error: {SRC / 'arithbilliards'} not found; run this from a checkout "
              "of the arithbilliards repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arithbilliards

    if Path(arithbilliards.__file__).resolve().parent != SRC / "arithbilliards":
        print(f"error: imported arithbilliards from {arithbilliards.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        cls = WORKLOADS[args.workload]
        wl = cls(args.seed, ROOT, tmpdir, rounds=int(args.seconds * cls.ROUNDS_PER_SECOND) + 1)
        wl.setup()
        # The op list and grid pools live for the whole run; keep them out of
        # the collector so each collection walks only what the ops allocate.
        gc.collect()
        gc.freeze()
        if args.setup_only:
            print(f"setup-end {time.perf_counter()!r}")
            return 0
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "ops_generated": len(wl.ops)}
        if args.trace:
            metrics, attempted, failed, ok = run_traced(args, wl, tmpdir, detail)
        else:
            metrics, attempted, failed, ok = run_untraced(args, wl, detail)
        shares = (detail.get("pass") or detail["untraced_pass"])["classes"]
        if wl.MAX_CLASS_SHARE is not None:
            over = {c: row["time_share"] for c, row in shares.items()
                    if row["time_share"] > wl.MAX_CLASS_SHARE}
            detail["classes_over_max_share"] = over
            if over:
                print(f"warning: op classes over {wl.MAX_CLASS_SHARE:.0%} of the untraced "
                      f"time: {over}", file=sys.stderr)
        detail["warmup_failures"] = wl.warmup_failures
        attempted += len(wl.warmup)
        failed += len(wl.warmup_failures)
        ok = ok and not wl.warmup_failures
        detail["environment"] = environment()
        report = json.dumps(detail)
        (OUT_DIR / f"detail-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            report + "\n")
        print(report)
        print(json.dumps({
            "correct": ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
