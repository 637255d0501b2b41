"""The three seeded workloads: inputs, the timed call, and the answer check.

Each workload draws every input from ``random.Random(seed)`` during set-up and
hands the library only those generated values.  ``call(op)`` is the timed
part; ``check(op, out)`` runs afterwards, untimed, and raises
:class:`CheckFailed` on a wrong answer.

Ops come in rounds.  A round holds a fixed number of ops of each class, in a
seeded order, and continuous sizes are drawn one per stratum of their range
within each block of rounds.  Grid pools sit on fixed size ladders, and the
seed picks each grid's shape.  The seed therefore changes every input and the
order, but not the mix, which keeps throughput comparable across seeds.

Calls under test go through module attributes (``billiards.enumerate_paths``)
so that a tracer installed later sees them.  The laws used to check answers
are bound by name here, at import, so checking adds no spans.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path as FsPath

from arithbilliards import billiards, circseq, kernels, render, walks
from arithbilliards.billiards import count_closed as law_count_closed
from arithbilliards.billiards import count_open as law_count_open
from arithbilliards.circseq import circ_seq_closed as law_circ_seq
from arithbilliards.core import DirectionMask, GridSpec, PhaseState, Point

BLOCK_ROUNDS = 16


class CheckFailed(Exception):
    """An answer disagreed with its independent law."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def stratified(rng: random.Random, n: int) -> list[float]:
    """``n`` uniform draws in [0, 1), one per equal stratum, in random order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def tent(m: int, u: int) -> int:
    return m - abs(m - u)


def lift_residues(grid: GridSpec, point: Point, mask: DirectionMask) -> list[int]:
    return [x if s == 0 else (tm - x) % tm
            for x, s, tm in zip(point.coords, mask.signs, grid.two_m)]


def random_point(rng: random.Random, grid: GridSpec) -> Point:
    return Point(tuple(rng.randint(0, m) for m in grid.dims))


def random_mask(rng: random.Random, p: int) -> DirectionMask:
    return DirectionMask(tuple(rng.randint(0, 1) for _ in range(p)))


def point_at(grid: GridSpec, residues, k: int) -> Point:
    return Point(tuple(tent(m, (u + k) % tm) for m, u, tm in zip(grid.dims, residues, grid.two_m)))


def same_orbit_goal(grid: GridSpec, start: Point, goal: Point) -> Point:
    """``goal`` with coordinates 2..p nudged by one so its parity index is ``start``'s."""
    coords = list(goal.coords)
    for i in range(1, grid.p):
        if (coords[i] + coords[0] - start.coords[i] - start.coords[0]) % 2:
            coords[i] += 1 if coords[i] < grid.dims[i] else -1
    return Point(tuple(coords))


def grid_near(rng: random.Random, p: int, size, target: float) -> GridSpec:
    """A random ``p``-dimensional grid with ``size(dims)`` within 5% of ``target``."""
    base = target ** (1.0 / p)
    for _ in range(4):  # solve size((base,) * p) == target
        base *= (target / size((base,) * p)) ** (1.0 / p)
    while True:
        dims = tuple(max(1, round(base * rng.uniform(0.6, 1.6))) for _ in range(p))
        if target / 1.05 <= size(dims) <= target * 1.05:
            return GridSpec(dims)


def gcd_grid(rng: random.Random, max1: int, max2: int, size, target: float) -> GridSpec:
    """A random 2-D grid with ``gcd >= 2`` (so it has closed paths) whose
    ``size(dims)`` is within 5% of ``target``."""
    while True:
        g = rng.randint(2, 12)
        dims = (g * rng.randint(1, max1 // g), g * rng.randint(1, max2 // g))
        if target / 1.05 <= size(dims) <= target * 1.05 and min(dims) >= 4:
            return GridSpec(dims)


def ladder(n: int, lo: float, hi: float) -> list[float]:
    """``n`` sizes spaced evenly in log scale over ``[lo, hi]``.  Pools are
    built on these fixed sizes, and the seed picks each grid's shape."""
    return [log_between(lo, hi, (i + 0.5) / n) for i in range(n)]


class Workload:
    """Inputs, timed call and check for one workload."""

    name = ""
    ROUND: dict[str, int] = {}
    # Rounds generated at most; a run that gets through them starts over.
    MAX_ROUNDS = 1 << 30
    # Largest share of the untraced time one op class should take, if any.
    MAX_CLASS_SHARE: float | None = None

    def __init__(self, seed: int, root: FsPath, tmpdir: FsPath, rounds: int) -> None:
        self.rng = random.Random(seed)
        self.root = root
        self.tmpdir = tmpdir
        self.rounds = min(-(-rounds // BLOCK_ROUNDS) * BLOCK_ROUNDS, self.MAX_ROUNDS)
        self.ops: list[tuple] = []
        self.tracer = None
        self.peak_child_kb = 0

    def setup(self) -> None:
        self.make_pools()
        for _ in range(self.rounds // BLOCK_ROUNDS):
            draws = {cls: stratified(self.rng, n * BLOCK_ROUNDS) for cls, n in self.ROUND.items()}
            for r in range(BLOCK_ROUNDS):
                batch = [self.make_op(cls, draws[cls][r * n + j])
                         for cls, n in self.ROUND.items() for j in range(n)]
                self.rng.shuffle(batch)
                self.ops.extend(batch)
        self.warmup = self.warmup_ops()
        self.warmup_failures = []
        for op in self.warmup:
            try:
                self.check(op, self.call(op))
            except Exception as exc:  # reported with the run's failures
                self.warmup_failures.append(f"warm-up {op[0]}: {type(exc).__name__}: {exc}"[:400])

    def make_pools(self) -> None:
        raise NotImplementedError

    def make_op(self, cls: str, u: float) -> tuple:
        raise NotImplementedError

    def warmup_ops(self) -> list[tuple]:
        """One op per class, so every code path is compiled and warm before timing."""
        return [next(op for op in self.ops if op[0] == cls) for cls in self.ROUND]

    def call(self, op: tuple):
        raise NotImplementedError

    def check(self, op: tuple, out) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process running the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------- lib_queries

SIM_STEPS = 100_000
ENUM_MAX_STATES = 200_000
WALK_MAX_POINTS = 10_000
GENFUNC_MAX_M = 2000


def round_counts(cost_ms: dict[str, float], share: dict[str, float]) -> dict[str, int]:
    """Ops per round that give each class its share of the time; the class
    with the most cost per unit of share gets one op."""
    unit = max(cost_ms[c] / share[c] for c in cost_ms)
    return {c: max(1, round(unit * share[c] / cost_ms[c])) for c in cost_ms}


class LibQueries(Workload):
    """The calls a researcher makes, in-process, on grids from a small pool."""

    name = "lib_queries"
    # Mean untraced latency of one op per class, in ms: the ``classes.*.mean_ms``
    # of the detail line, median of three seeds, pure lane, 2-core x86-64 host.
    COST_MS = {
        "light_reachable": 0.043, "classify_path": 0.0033, "orbit_partition": 0.025,
        "boundary_hits": 0.59, "genfunc": 0.49, "find_walk": 2.85,
        "enumerate_paths": 12.8, "render_grid": 6.8, "simulate": 187.0,
    }
    # Share of the untraced time per class.  simulate, always SIM_STEPS long,
    # is the costliest op and alone sets op_tail_ms (the 11th-largest op); a
    # quarter of the time runs it about 25 times in 20 s, so the tail is a
    # middle order statistic of one case.  The other classes split the rest
    # equally, so a change in any one of them moves ops_per_s by the same weight.
    SIMULATE_SHARE = 0.25
    SHARE = dict.fromkeys(COST_MS, (1 - SIMULATE_SHARE) / (len(COST_MS) - 1))
    SHARE["simulate"] = SIMULATE_SHARE
    ROUND = round_counts(COST_MS, SHARE)
    ROUNDS_PER_SECOND = 1.4
    # A round holds thousands of cheap ops; one block of rounds (about 11 s of
    # ops) keeps the op list's memory small next to the program's.
    MAX_ROUNDS = BLOCK_ROUNDS
    MAX_CLASS_SHARE = 0.5

    def make_pools(self) -> None:
        rng = self.rng
        states = lambda dims: math.prod(2 * m for m in dims)  # noqa: E731
        points = lambda dims: math.prod(m + 1 for m in dims)  # noqa: E731
        sizes = ladder(4, 10_000, ENUM_MAX_STATES / 1.05)
        self.enum_pool = [gcd_grid(rng, 240, 240, states, t) for t in sizes]
        self.enum_pool += [grid_near(rng, p, states, t) for p in (3, 4) for t in sizes]
        self.render_pool = [gcd_grid(rng, 120, 84, math.prod, t)
                            for t in ladder(6, 600, 120 * 84 / 1.05)]
        self.paths = {g: billiards.enumerate_paths(g) for g in self.enum_pool + self.render_pool}
        # boundary_hits walks one period, 2*lcm(dims) steps, so its grids sit on
        # an lcm ladder and its cost does not vary by seed
        lcm = lambda dims: math.lcm(*dims)  # noqa: E731
        hits_grids = [gcd_grid(rng, 120, 84, lcm, t) for t in ladder(4, 150, 2400)]
        self.closed_2d = [(g, [path for path in billiards.enumerate_paths(g)
                               if path.kind is billiards.PathKind.CLOSED]) for g in hits_grids]
        # ops that only pick from a pool share one tuple per pool member
        self.classify_ops = [("classify_path", g, path)
                             for g, ps in self.paths.items() for path in ps]
        self.light_by_arity = [[GridSpec(tuple(rng.randint(1, 12) for _ in range(p)))
                                for _ in range(12)] for p in range(2, 7)]
        self.orbit_ops = [("orbit_partition", g) for grids in self.light_by_arity for g in grids]
        # one arity, so the cost of a step (linear in p) does not vary by seed
        self.sim_pool = [GridSpec(tuple(rng.randint(2, 12) for _ in range(3))) for _ in range(4)]
        self.walk_pool = [grid_near(rng, p, points, t)
                          for p in (2, 3, 4) for t in ladder(4, 1000, WALK_MAX_POINTS / 1.05)]
        self.turn = dict.fromkeys(self.ROUND, 0)

    def cycle(self, cls: str, pool: list):
        """The next member of ``pool`` for ``cls``, in turn."""
        self.turn[cls] += 1
        return pool[self.turn[cls] % len(pool)]

    def make_op(self, cls: str, u: float) -> tuple:
        rng = self.rng
        if cls == "light_reachable":
            grid = rng.choice(self.light_by_arity[int(u * len(self.light_by_arity))])
            src, mask = random_point(rng, grid), random_mask(rng, grid.p)
            k0 = rng.randrange(2 * grid.lcm)
            return (cls, grid, src, mask, point_at(grid, lift_residues(grid, src, mask), k0), k0)
        if cls == "orbit_partition":
            return self.orbit_ops[int(u * len(self.orbit_ops))]
        if cls == "classify_path":
            return self.classify_ops[int(u * len(self.classify_ops))]
        if cls == "boundary_hits":
            grid, closed = self.cycle(cls, self.closed_2d)
            return (cls, grid, rng.choice(closed))
        if cls == "genfunc":
            m = round(log_between(2, GENFUNC_MAX_M, u))
            spec = circseq.SeqSpec(rng.choice("+-"), rng.randint(0, m), m)
            return (cls, spec, rng.randint(2 * m, 4 * m))
        if cls == "find_walk":
            grid = self.walk_pool[int(u * len(self.walk_pool))]
            start = random_point(rng, grid)
            return (cls, grid, start, same_orbit_goal(grid, start, random_point(rng, grid)))
        if cls == "enumerate_paths":
            return (cls, self.enum_pool[int(u * len(self.enum_pool))])
        if cls == "render_grid":
            grid = self.render_pool[int(u * len(self.render_pool))]
            return (cls, grid, self.paths[grid])
        if cls == "simulate":
            grid = self.cycle(cls, self.sim_pool)
            ks = sorted(rng.sample(range(SIM_STEPS + 1), 16)) + [SIM_STEPS]
            return (cls, grid, random_point(rng, grid), random_mask(rng, grid.p), SIM_STEPS, ks)
        raise ValueError(cls)

    def warmup_ops(self) -> list[tuple]:
        """Also the largest size of each class, so set-up reaches peak memory."""
        ops = super().warmup_ops()
        big_enum = max(self.enum_pool, key=lambda g: g.n_states)
        big_render = max(self.render_pool, key=lambda g: g.n_points)
        big_walk = max(self.walk_pool, key=lambda g: g.n_points)
        start = Point((0,) * big_walk.p)
        ops += [
            ("find_walk", big_walk, start, same_orbit_goal(big_walk, start, Point(big_walk.dims))),
            ("enumerate_paths", big_enum),
            ("render_grid", big_render, self.paths[big_render]),
            ("genfunc", circseq.SeqSpec("+", 1, GENFUNC_MAX_M), 4 * GENFUNC_MAX_M),
        ]
        return ops

    def call(self, op: tuple):
        cls = op[0]
        if cls == "light_reachable":
            return billiards.light_reachable(op[1], op[2], op[3], op[4])
        if cls == "orbit_partition":
            return walks.orbit_partition(op[1])
        if cls == "classify_path":
            return billiards.classify_path(op[1], op[2].representative)
        if cls == "boundary_hits":
            return billiards.boundary_hits(op[1], op[2])
        if cls == "genfunc":
            spec, n_terms = op[1], op[2]
            num = circseq.numerator_poly(spec)
            return num, circseq.series_expand(circseq.RationalGF(num, 2 * spec.height), n_terms)
        if cls == "find_walk":
            return walks.find_walk(op[1], op[2], op[3])
        if cls == "enumerate_paths":
            return billiards.enumerate_paths(op[1])
        if cls == "render_grid":
            return render.render_grid(op[1], op[2])
        if cls == "simulate":
            return billiards.simulate(op[1], op[2], op[3], op[4])
        raise ValueError(cls)

    def check(self, op: tuple, out) -> None:
        cls = op[0]
        if cls == "light_reachable":
            _, grid, src, mask, tgt, k0 = op
            require(out.reachable and 0 <= out.witness_steps <= k0, "witness missing or not least")
            k = out.witness_steps
            for u, t, s, tm in zip(lift_residues(grid, src, mask), tgt.coords,
                                   out.sign_choice, grid.two_m):
                require((u + k) % tm == (t if s == 0 else (tm - t) % tm), "witness lift")
        elif cls == "orbit_partition":
            grid = op[1]
            require([s.index.bits for s in out]
                    == list(itertools.product((0, 1), repeat=grid.p - 1)), "orbit indexes")
            require(sum(s.size for s in out) == grid.n_points, "orbit sizes sum")
            for s in out:
                c = s.sample.coords
                require(tuple((c[0] + x) % 2 for x in c[1:]) == s.index.bits, "orbit sample")
        elif cls == "classify_path":
            require(out is op[2].kind, "classify_path disagrees with enumeration")
        elif cls == "boundary_hits":
            m, n = op[1].dims
            require(out == 2 * (m + n) // math.gcd(m, n), "boundary hits")
        elif cls == "genfunc":
            spec, n_terms = op[1], op[2]
            num, series = out
            require(num.degree < 2 * spec.height, "numerator degree")
            require(all(num.coeff(n) == law_circ_seq(spec, n) for n in range(2 * spec.height)),
                    "numerator coefficients")
            require(len(series) == n_terms + 1
                    and all(c == law_circ_seq(spec, n) for n, c in enumerate(series)), "series")
        elif cls == "find_walk":
            _, grid, start, goal = op
            require(out is not None, "no walk between same-orbit points")
            require(len(out) == max(abs(a - b) for a, b in zip(start.coords, goal.coords)),
                    "walk is not shortest")
            at = list(start.coords)
            for mask in out:
                at = [c + (1 if s == 0 else -1) for c, s in zip(at, mask.signs)]
                require(all(0 <= c <= m for c, m in zip(at, grid.dims)), "walk leaves grid")
            require(tuple(at) == goal.coords, "walk misses goal")
        elif cls == "enumerate_paths":
            grid = op[1]
            k = 2 * grid.lcm
            closed = sum(1 for p in out if p.kind is billiards.PathKind.CLOSED)
            require(closed == law_count_closed(grid) and len(out) - closed == law_count_open(grid),
                    "path counts")
            require(all(p.step_length == k for p in out), "step length")
            require(sum(p.distinct_segments for p in out) == grid.total_segments, "segments")
        elif cls == "render_grid":
            grid, paths = op[1], op[2]
            width = 2 * 20 + 40 * grid.dims[0]
            require(out.startswith('<?xml') and out.endswith("</svg>\n")
                    and f'width="{width}"' in out
                    and out.count("<polyline") == len(paths), "svg")
        elif cls == "simulate":
            _, grid, start, mask, n, ks = op
            require(len(out.points) == len(out.states) == n + 1, "trajectory length")
            u = lift_residues(grid, start, mask)
            for k in ks:
                require(out.points[k] == point_at(grid, u, k)
                        and out.states[k].residues
                        == tuple((a + k) % tm for a, tm in zip(u, grid.two_m)), "trajectory")


# ---------------------------------------------------------------- oracle_sweep

def _dims(rng: random.Random, p: int, max_m: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, max_m) for _ in range(p))


class OracleSweep(Workload):
    """Exhaustive law-vs-oracle checks, one (grid, oracle) pair per op."""

    name = "oracle_sweep"
    ROUNDS_PER_SECOND = 40
    ROUND = {
        "trace_paths": 4, "reach_scan": 2, "least_closure": 3, "coordinate_sums": 3,
        "orbits": 3, "light_reachable": 3, "first_closure": 3, "circseq": 3,
    }
    # (p, max m_i) per class.  Criteria 1, 4, 5, 8 and 9 state these bounds,
    # or larger ones cut so that one op stays under about 100 ms.
    SHAPES = {
        "trace_paths": ((2, 30), (3, 8), (4, 4)),
        "reach_scan": ((2, 6), (3, 3)),
        "least_closure": ((2, 8), (3, 6)),
        "coordinate_sums": ((2, 6), (3, 5)),
        "orbits": ((2, 60), (3, 6), (4, 6)),
        "light_reachable": ((2, 8), (3, 5)),
        "first_closure": ((2, 8), (3, 4)),
    }

    def make_pools(self) -> None:
        pass

    def make_op(self, cls: str, u: float) -> tuple:
        rng = self.rng
        if cls == "circseq":
            return (cls, rng.choice("+-"), 1 + int(u * 20))
        shapes = self.SHAPES[cls]
        p, max_m = shapes[int(u * len(shapes))]
        grid = GridSpec(_dims(rng, p, max_m))
        if cls == "light_reachable":
            return (cls, grid, random_point(rng, grid), random_mask(rng, grid.p))
        return (cls, grid)

    def call(self, op: tuple):
        cls = op[0]
        if cls == "circseq":
            return self._circseq(op[1], op[2])
        grid = op[1]
        dims = list(grid.dims)
        if cls == "trace_paths":
            out = kernels.trace_paths(list(grid.two_m))
            n_open = sum(is_open for _, is_open in out)
            return (len(out) - n_open == billiards.count_closed(grid)
                    and n_open == billiards.count_open(grid))
        if cls == "reach_scan":
            checked, bad = kernels.reach_scan(dims)
            return bad == 0 and checked == grid.n_points ** 2 * 2 ** grid.p
        if cls == "least_closure":
            return kernels.least_closure_violations(dims) == 0
        if cls == "coordinate_sums":
            return kernels.coordinate_sum_violations(dims) == 0
        if cls == "orbits":
            return self._orbits(grid)
        if cls == "light_reachable":
            _, grid, src, mask = op
            return all(billiards.light_reachable(grid, src, mask, Point(t))
                       == billiards.light_reachable_oracle(grid, src, mask, Point(t))
                       for t in itertools.product(*[range(m + 1) for m in grid.dims]))
        if cls == "first_closure":
            k = billiards.step_length(grid)
            return all(billiards.first_closure(grid, PhaseState(u), k) == k
                       for u in itertools.product(*[range(tm) for tm in grid.two_m]))
        raise ValueError(cls)

    @staticmethod
    def _orbits(grid: GridSpec) -> bool:
        comp = walks.bfs_component_ids(grid)
        brute = walks.orbit_sizes_bruteforce(grid)
        comp_size: dict[int, int] = {}
        comp_index: dict[int, tuple] = {}
        for pid, coords in enumerate(itertools.product(*[range(m + 1) for m in grid.dims])):
            bits = tuple((coords[0] + x) % 2 for x in coords[1:])
            if comp_index.setdefault(comp[pid], bits) != bits:
                return False
            comp_size[comp[pid]] = comp_size.get(comp[pid], 0) + 1
        if len(comp_size) != 2 ** (grid.p - 1):
            return False
        return all(walks.orbit_size(grid, walks.OrbitIndex(bits)) == brute.get(bits) == comp_size[c]
                   for c, bits in comp_index.items())

    @staticmethod
    def _circseq(sign: str, m: int) -> bool:
        for t in range(m + 1):
            spec = circseq.SeqSpec(sign, t, m)
            series = circseq.series_expand(circseq.gen_function(spec), 4 * m)
            if any(not circseq.circ_seq(spec, n) == circseq.circ_seq_closed(spec, n) == series[n]
                   for n in range(4 * m + 1)):
                return False
        return True

    def check(self, op: tuple, out) -> None:
        require(out is True, f"{op[0]} oracle disagrees with its law on {op[1:]}")


# ---------------------------------------------------------------- cli_batch

class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], env: dict, cwd: FsPath, timeout: int = 60):
    """Run one process to completion.

    Returns ``(stdout, stderr, exit code, peak RSS in KiB, wall ns)``.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    signal.alarm(timeout)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise TimeoutError(f"{argv[1:4]} ran longer than {timeout}s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter_ns() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, err, proc.returncode, usage.ru_maxrss, wall


def cli_env(root: FsPath) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliBatch(Workload):
    """One ``python -m arithbilliards.cli`` process per op, one after another."""

    name = "cli_batch"
    ROUNDS_PER_SECOND = 6
    ROUND = {"count": 1, "reach": 1, "orbits": 1, "genfunc": 1, "simulate": 1, "render": 1}

    def make_pools(self) -> None:
        self.env = cli_env(self.root)
        self.n_made = 0

    def make_op(self, cls: str, u: float) -> tuple:
        rng = self.rng
        self.n_made += 1
        if cls == "count":
            grid = GridSpec(_dims(rng, 2, 40) if u < 0.5 else _dims(rng, 3, 8))
            return (cls, grid, ["count", "--dims", _csv(grid.dims)])
        if cls == "reach":
            grid = GridSpec(_dims(rng, 2 + int(u * 2), 12))
            src, mask = random_point(rng, grid), cli_mask(rng, grid.p)
            tgt = point_at(grid, lift_residues(grid, src, mask), rng.randrange(2 * grid.lcm))
            return (cls, grid, ["reach", "--dims", _csv(grid.dims), "--from", _csv(src.coords),
                                "--to", _csv(tgt.coords), f"--mask={mask.to_string()}", "--verify"],
                    src, mask, tgt)
        if cls == "orbits":
            grid = GridSpec(_dims(rng, 2 + int(u * 3), 8))
            return (cls, grid, ["orbits", "--dims", _csv(grid.dims)])
        if cls == "genfunc":
            m = 1 + int(u * 200)
            spec = circseq.SeqSpec(rng.choice("+-"), rng.randint(0, m), m)
            n = rng.randint(0, 4 * m)
            return (cls, spec, ["genfunc", "--sign", spec.sign, "--t", str(spec.first_term),
                                "--m", str(m), "--expand", str(n)], n)
        if cls == "simulate":
            grid = GridSpec(_dims(rng, 2 + int(u * 2), 12))
            start, mask = random_point(rng, grid), cli_mask(rng, grid.p)
            n = rng.randint(1, 2000)
            argv = ["simulate", "--dims", _csv(grid.dims), "--start", _csv(start.coords),
                    f"--mask={mask.to_string()}", "--steps", str(n)]
            return (cls, grid, argv, start, mask, n)
        if cls == "render":
            grid = GridSpec((rng.randint(1, 30), rng.randint(1, 20)))
            out = self.tmpdir / f"render-{self.n_made % 8}.svg"
            return (cls, grid, ["render", "--dims", _csv(grid.dims), "--out", str(out)], out)
        raise ValueError(cls)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest CLI process since the last reset."""
        return self.peak_child_kb / 1024

    def call(self, op: tuple):
        if self.tracer is None:
            argv = [sys.executable, "-m", "arithbilliards.cli", *op[2]]
            spans = None
        else:
            spans = self.tmpdir / "spans.bin.gz"
            argv = [sys.executable, str(FsPath(__file__).with_name("traced_cli.py")),
                    str(spans), str(self.tracer.op), *op[2]]
        out, err, code, rss_kb, _ = spawn(argv, self.env, self.root)
        self.peak_child_kb = max(self.peak_child_kb, rss_kb)
        return out, err, code, spans

    def check(self, op: tuple, out) -> None:
        stdout, stderr, code, spans = out
        if spans is not None and spans.exists():
            self.tracer.merge(spans)
            spans.unlink()
        require(code == 0, f"exit {code}: {stderr.decode(errors='replace')[-300:]}")
        try:
            doc = json.loads(stdout)
        except ValueError:
            raise CheckFailed("stdout is not exactly one JSON document") from None
        require(isinstance(doc, dict) and "payload" in doc, "no payload")
        pay = doc["payload"]
        cls, grid = op[0], op[1]
        if cls == "count":
            require(pay["consistent"] is True and pay["closed"] == law_count_closed(grid)
                    and pay["open"] == law_count_open(grid)
                    and pay["enumeration"]["closed"] == pay["closed"], "count")
        elif cls == "reach":
            src, mask, tgt = op[3:]
            require(pay["reachable"] is True and pay["oracle_agrees"] is True, "reach")
            k = pay["witness_steps"]
            require(point_at(grid, lift_residues(grid, src, mask), k) == tgt, "reach witness")
        elif cls == "orbits":
            rows = pay["orbits"]
            require(len(rows) == 2 ** (grid.p - 1) and all(r["agree"] is True for r in rows)
                    and sum(r["size_formula"] for r in rows) == grid.n_points, "orbits")
        elif cls == "genfunc":
            spec, n = grid, op[3]
            coeffs = pay["numerator_coeffs"]
            coeffs = coeffs + [0] * (2 * spec.height - len(coeffs))
            require(len(coeffs) == 2 * spec.height
                    and all(c == law_circ_seq(spec, i) for i, c in enumerate(coeffs))
                    and pay["expansion"] == [law_circ_seq(spec, i) for i in range(n + 1)],
                    "genfunc")
        elif cls == "simulate":
            start, mask, n = op[3:]
            u = lift_residues(grid, start, mask)
            period = 2 * grid.lcm
            require(pay["points"] == [list(point_at(grid, u, k).coords) for k in range(n + 1)]
                    and pay["closed_at"] == (period if period <= n else None), "simulate")
        elif cls == "render":
            path = op[3]
            data = path.read_bytes()
            path.unlink()
            n_paths = law_count_closed(grid) + law_count_open(grid)
            require(pay["bytes"] == len(data) and pay["path_count"] == n_paths
                    and data.startswith(b"<?xml") and data.count(b"<polyline") == n_paths,
                    "render")


def cli_mask(rng: random.Random, p: int) -> DirectionMask:
    """A random mask the CLI can receive.  argparse drops a bare ``--`` value
    (even as ``--mask=--``), so the all-backward 2-D mask cannot be passed."""
    while True:
        mask = random_mask(rng, p)
        if mask.to_string() != "--":
            return mask


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS = {w.name: w for w in (LibQueries, CliBatch, OracleSweep)}
