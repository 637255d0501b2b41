"""Span tracing installed from outside the package.

:func:`install` replaces module attributes of ``arithbilliards`` with timing
wrappers and :func:`uninstall` puts the originals back.  The library looks
these names up at call time (``kernels.trace_paths`` from ``billiards`` and
``walks``, module globals inside each module), so every call made through a
module attribute is seen.  A function imported by name into another module
(``lift`` in ``billiards`` and ``walks``, ``render_grid`` in ``cli``) is
patched at each binding site under one span name.

Names bound before :func:`install` runs (the benchmark's own answer checks)
keep the original functions, so checking an answer adds no spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from array import array

import arithbilliards

LAYERS = ("core", "billiards", "walks", "circseq", "render", "kernels", "cli")
KERNEL_FUNCS = (
    "trace_paths",
    "least_closure_violations",
    "reach_scan",
    "coordinate_sum_violations",
    "bfs_components",
)
# ``core`` is traced only for the three calls billiards and walks make per query.
CORE_FUNCS = ("lift", "project", "step_directed")


def _state_steps(args, kwargs, result) -> int:
    two_m = [2 * m for m in args[0]]
    return math.prod(two_m) * math.lcm(*two_m)


# Exact work counts, computed from a call's inputs or output: span name ->
# (counter name, function of (args, kwargs, result)).
COUNTERS = {
    "kernels.trace_paths": ("states", lambda a, k, r: math.prod(a[0])),
    "kernels.reach_scan": ("triples", lambda a, k, r: r[0]),
    "kernels.least_closure_violations": ("state_steps", _state_steps),
    "kernels.coordinate_sum_violations": ("state_steps", _state_steps),
    "kernels.bfs_components": ("points", lambda a, k, r: len(r)),
    "billiards.simulate": ("steps", lambda a, k, r: len(r.points) - 1),
    "render.render_grid": ("bytes", lambda a, k, r: len(r.encode("utf-8"))),
}


class Tracer:
    """In-memory spans, one column per field of :data:`COLUMNS`.

    Columns are ``array('q')`` rather than a list per span: a run makes up to
    about a million spans, and arrays keep them compact and out of the
    garbage collector's way.
    """

    COLUMNS = ("name", "start_ns", "end_ns", "parent", "op")

    def __init__(self) -> None:
        self.names: list[str] = []
        self.cols = tuple(array("q") for _ in self.COLUMNS)
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.cols[0])

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        name_col, start_col, end_col, parent_col, op_col = self.cols
        stack, counts = self.stack, self.counts
        clock = time.perf_counter_ns
        counter = COUNTERS.get(name)
        key = f"{name}.{counter[0]}" if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            op_col.append(self.op)
            end_col.append(0)
            stack.append(idx)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                stack.pop()
            if key:
                counts[key] = counts.get(key, 0) + counter[1](args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write a JSON header line, then each column as native int64s, gzipped."""
        header = {"columns": self.COLUMNS, "rows": len(self), "names": self.names,
                  "counts": self.counts, "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in self.cols:
                col.tofile(fh)

    def merge(self, path) -> None:
        """Append the spans another process dumped to ``path`` (a traced CLI run)."""
        with gzip.open(path, "rb") as fh:
            header = json.loads(fh.readline())
            cols = []
            for _ in self.COLUMNS:
                col = array("q")
                col.frombytes(fh.read(8 * header["rows"]))
                cols.append(col)
        ids = [self.name_id(n) for n in header["names"]]
        base = len(self)
        name_col, start_col, end_col, parent_col, op_col = self.cols
        for nid, start, end, parent, op in zip(*cols):
            name_col.append(ids[nid])
            start_col.append(start)
            end_col.append(end)
            parent_col.append(parent + base if parent >= 0 else -1)
            op_col.append(op)
        for key, value in header["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value


def _targets() -> dict[int, str]:
    """``id`` of each function to be traced -> span name.

    Kernels and ``core`` functions are taken by name, whatever their type: on
    the compiled lane the kernels are Cython functions, not Python ones.
    """
    mods = {n: importlib.import_module(f"arithbilliards.{n}") for n in LAYERS}
    targets = {id(getattr(mods["kernels"], f)): f"kernels.{f}" for f in KERNEL_FUNCS}
    targets.update({id(getattr(mods["core"], f)): f"core.{f}" for f in CORE_FUNCS})
    # public = exported by the package, plus the CLI's command functions
    public = set(arithbilliards.__all__)
    for layer in ("billiards", "walks", "circseq", "render", "cli"):
        mod = mods[layer]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (layer == "cli" or attr in public)):
                targets[id(obj)] = f"{layer}.{attr}"
    return targets


def install(tracer: Tracer) -> None:
    """Wrap every module attribute, in every layer, bound to a traced function."""
    targets = _targets()
    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"arithbilliards.{layer}")
        for attr, obj in list(vars(mod).items()):
            name = targets.get(id(obj))
            if name is not None:
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = tracer.wrap(name, obj)
                setattr(mod, attr, wrappers[id(obj)])
                tracer._patched.append((mod, attr, obj))


def uninstall(tracer: Tracer) -> None:
    for mod, attr, obj in reversed(tracer._patched):
        setattr(mod, attr, obj)
    tracer._patched.clear()


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, busy ns (outermost spans of that name), self ns
    (duration minus direct children) and the list of call durations."""
    names, starts, ends, parents, _ = tracer.cols
    child_ns = [0] * len(tracer)
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (nid, start, end, parent) in enumerate(zip(names, starts, ends, parents)):
        name = tracer.names[nid]
        row = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": []})
        dur = end - start
        row["calls"] += 1
        row["self_ns"] += dur - child_ns[i]
        row["durations"].append(dur)
        anc = parent
        while anc >= 0 and names[anc] != nid:
            anc = parents[anc]
        if anc < 0:
            row["busy_ns"] += dur
    return out


def self_time_by_op(tracer: Tracer) -> dict[int, int]:
    """Sum of span self times per op id (equal to the op's root-span time)."""
    out: dict[int, int] = {}
    _, starts, ends, parents, ops = tracer.cols
    for start, end, parent, op in zip(starts, ends, parents, ops):
        if parent < 0:
            out[op] = out.get(op, 0) + end - start
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer figures, by metric name: (value, unit)."""
    rows = summarize(tracer)
    counts = tracer.counts

    def row(name):
        return rows.get(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": [0]})

    def busy_ms(name):
        return row(name)["busy_ns"] / 1e6

    def self_ms(name):
        return row(name)["self_ns"] / 1e6

    def p50(name, scale):
        return statistics.median(row(name)["durations"]) / scale

    m: dict[str, tuple[float, str]] = {}
    for fn, count in (("trace_paths", "states"), ("reach_scan", "triples"),
                      ("least_closure_violations", "state_steps"),
                      ("coordinate_sum_violations", "state_steps"),
                      ("bfs_components", "points")):
        name = f"kernels.{fn}"
        m[f"{name}.busy_ms"] = (busy_ms(name), "ms")
        m[f"{name}.{count}"] = (counts.get(f"{name}.{count}", 0), "count")
    m["billiards.enumerate_paths.self_ms"] = (self_ms("billiards.enumerate_paths"), "ms")
    m["billiards.light_reachable.p50_us"] = (p50("billiards.light_reachable", 1e3), "us")
    m["billiards.light_reachable.calls"] = (row("billiards.light_reachable")["calls"], "count")
    m["billiards.simulate.busy_ms"] = (busy_ms("billiards.simulate"), "ms")
    steps = counts.get("billiards.simulate.steps", 0)
    m["billiards.simulate.us_per_step"] = (
        busy_ms("billiards.simulate") * 1e3 / steps if steps else 0.0, "us")
    for fn in ("boundary_hits", "light_reachable_oracle", "first_closure"):
        m[f"billiards.{fn}.busy_ms"] = (busy_ms(f"billiards.{fn}"), "ms")
    m["walks.find_walk.busy_ms"] = (busy_ms("walks.find_walk"), "ms")
    m["walks.find_walk.p50_ms"] = (p50("walks.find_walk", 1e6), "ms")
    m["walks.orbit_partition.p50_us"] = (p50("walks.orbit_partition", 1e3), "us")
    m["walks.orbit_sizes_bruteforce.busy_ms"] = (busy_ms("walks.orbit_sizes_bruteforce"), "ms")
    m["walks.bfs_component_ids.self_ms"] = (self_ms("walks.bfs_component_ids"), "ms")
    for fn in ("numerator_poly", "series_expand", "circ_seq"):
        m[f"circseq.{fn}.busy_ms"] = (busy_ms(f"circseq.{fn}"), "ms")
    m["render.render_grid.busy_ms"] = (busy_ms("render.render_grid"), "ms")
    m["render.render_grid.bytes"] = (counts.get("render.render_grid.bytes", 0), "B")
    for fn in CORE_FUNCS:
        m[f"core.{fn}.calls"] = (row(f"core.{fn}")["calls"], "count")
        m[f"core.{fn}.busy_ms"] = (busy_ms(f"core.{fn}"), "ms")
    m["trace.spans"] = (len(tracer), "count")
    return m
