"""Fixed reference measurements for the traced run.

``spot_figures`` times, with tracing off, the cases of the ROADMAP baseline
table: the five ``--size medium`` kernel inputs of
``benchmarks/bench_backends.py``, ``light_reachable`` on 6x4, ``simulate``
per step, and the ``count --dims 6,4`` process, plus the CLI start-up split
(bare interpreter, import, in-process ``cli.main``).

``coverage_calls`` is one small call to every traced function.  The traced
run makes them after the workload pass, so every per-layer figure is
measured on every workload, including layers the workload does not use.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import statistics
import sys
import time

from arithbilliards import billiards, circseq, cli, kernels, render, walks
from arithbilliards.core import DirectionMask, GridSpec, PhaseState, Point

from workloads import cli_env, spawn

# benchmarks/bench_backends.py --size medium (trace_paths takes 2*m_i)
MEDIUM_KERNELS = (
    ("trace_paths", [720, 504]),
    ("least_closure_violations", [8, 7, 5]),
    ("reach_scan", [6, 6, 6]),
    ("coordinate_sum_violations", [8, 7, 5]),
    ("bfs_components", [999, 999]),
)
GRID_6X4 = GridSpec((6, 4))


def _medium_kernel_ok(fn: str, arg, out) -> bool:
    if fn == "trace_paths":
        grid = GridSpec(tuple(tm // 2 for tm in arg))
        n_open = sum(is_open for _, is_open in out)
        return (len(out) - n_open, n_open) == (billiards.count_closed(grid),
                                               billiards.count_open(grid))
    if fn == "reach_scan":
        return out == (GridSpec(tuple(arg)).n_points ** 2 * 2 ** len(arg), 0)
    if fn == "bfs_components":
        return len(set(out)) == 2 ** (len(arg) - 1)
    return out == 0


def _cli_argvs(tmpdir) -> list[list[str]]:
    return [
        ["count", "--dims", "6,4"],
        ["reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4", "--verify"],
        ["orbits", "--dims", "6,4"],
        ["genfunc", "--sign", "+", "--t", "3", "--m", "6", "--expand", "12"],
        ["simulate", "--dims", "6,4", "--start", "0,3", "--steps", "48"],
        ["render", "--dims", "6,4", "--out", str(tmpdir / "probe.svg")],
    ]


def _median_process_ms(argv, env, root, reps: int) -> tuple[float, bool]:
    walls, ok = [], True
    for _ in range(reps):
        _, _, code, _, wall = spawn(argv, env, root)
        ok = ok and code == 0
        walls.append(wall / 1e6)
    return statistics.median(walls), ok


def spot_figures(root, tmpdir) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """ROADMAP baseline cases and CLI start-up split; returns (metrics, failures)."""
    m: dict[str, tuple[float, str]] = {}
    failures: list[str] = []
    for fn, arg in MEDIUM_KERNELS:
        started = time.perf_counter()
        out = getattr(kernels, fn)(list(arg))
        m[f"anchor.kernels.{fn}_ms"] = ((time.perf_counter() - started) * 1e3, "ms")
        if not _medium_kernel_ok(fn, arg, out):
            failures.append(f"anchor {fn}{arg}")

    asc = DirectionMask.ascending(2)
    points = [Point(c) for c in itertools.product(range(7), range(5))]
    per_query = []
    for _ in range(5):
        started = time.perf_counter()
        for src in points:
            for tgt in points:
                billiards.light_reachable(GRID_6X4, src, asc, tgt)
        per_query.append((time.perf_counter() - started) / len(points) ** 2)
    m["anchor.light_reachable_6x4_us"] = (statistics.median(per_query) * 1e6, "us")

    per_step = []
    for _ in range(5):
        started = time.perf_counter()
        billiards.simulate(GRID_6X4, Point((0, 3)), asc, 20_000)
        per_step.append((time.perf_counter() - started) / 20_000)
    m["anchor.simulate_us_per_step"] = (statistics.median(per_step) * 1e6, "us")

    env = cli_env(root)
    exe = sys.executable
    count_ms, ok = _median_process_ms([exe, "-m", "arithbilliards.cli", "count", "--dims", "6,4"],
                                      env, root, 7)
    m["anchor.count_6x4_process_ms"] = (count_ms, "ms")
    bare_ms, ok_bare = _median_process_ms([exe, "-c", "pass"], env, root, 7)
    import_ms, ok_import = _median_process_ms([exe, "-c", "import arithbilliards.cli"],
                                              env, root, 7)
    if not (ok and ok_bare and ok_import):
        failures.append("anchor process exited non-zero")
    m["cli.interpreter_ms"] = (bare_ms, "ms")
    m["cli.import_ms"] = (import_ms - bare_ms, "ms")

    walls = []
    for argv in _cli_argvs(tmpdir) * 5:
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        walls.append((time.perf_counter() - started) * 1e3)
        if code != 0:
            failures.append(f"cli.main {argv[0]} exited {code}")
    m["cli.main_ms"] = (statistics.median(walls), "ms")
    return m, failures


def coverage_calls(tmpdir) -> list:
    """One small call per traced function, each a zero-argument callable."""
    grid, asc = GRID_6X4, DirectionMask.ascending(2)
    paths = billiards.enumerate_paths(grid)
    closed = next(p for p in paths if p.kind is billiards.PathKind.CLOSED)
    spec = circseq.SeqSpec("+", 3, 6)
    sink = io.StringIO()

    def cli_count():
        with contextlib.redirect_stdout(sink):
            return cli.main(["count", "--dims", "6,4"])

    return [
        lambda: kernels.trace_paths([12, 8]),
        lambda: kernels.reach_scan([3, 2]),
        lambda: kernels.least_closure_violations([4, 3]),
        lambda: kernels.coordinate_sum_violations([4, 3]),
        lambda: walks.bfs_component_ids(grid),
        lambda: walks.orbit_sizes_bruteforce(grid),
        lambda: walks.orbit_partition(grid),
        lambda: walks.find_walk(grid, Point((0, 0)), Point((4, 2))),
        lambda: billiards.enumerate_paths(grid),
        lambda: billiards.light_reachable(grid, Point((0, 3)), asc, Point((3, 4))),
        lambda: billiards.light_reachable_oracle(grid, Point((0, 3)), asc, Point((3, 4))),
        lambda: billiards.simulate(grid, Point((0, 3)), asc, 100),
        lambda: billiards.boundary_hits(grid, closed),
        lambda: billiards.first_closure(grid, PhaseState((0, 3)), 24),
        lambda: circseq.series_expand(circseq.gen_function(spec), 24),
        lambda: circseq.circ_seq(spec, 24),
        lambda: render.render_grid(grid, paths),
        cli_count,
    ]
