"""Acceptance suite.

One test per acceptance criterion, each verified exactly (integer equality,
exhaustive sweeps at the stated bounds) and reporting a PASS/FAIL line.
The heavy sweeps (criteria 4, 5, 8 and 9) run the oracle loops of
:mod:`arithbilliards.kernels`; criterion 9's BFS and parity count takes the
longest of them.
"""

import itertools
import math
import time
import xml.etree.ElementTree as ET

from arithbilliards import kernels
from arithbilliards.billiards import (
    PathKind,
    boundary_hits,
    count_closed,
    count_open,
    enumerate_paths,
    enumerate_paths_exhaustive,
    light_reachable,
    light_reachable_oracle,
    step_length,
)
from arithbilliards.circseq import (
    IntPolynomial,
    SeqSpec,
    circ_seq,
    circ_seq_closed,
    gen_function,
    numerator_poly,
    series_expand,
)
from arithbilliards.core import (
    GridSpec,
    OrbitIndex,
    Point,
    index_of,
)
from arithbilliards.render import render_grid
from arithbilliards.walks import bfs_component_ids, orbit_size, orbit_sizes_bruteforce
from support import ASC2, P, all_points, elements, grids, product


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_closed_path_counts_up_to_30():
    started = time.perf_counter()
    failures = 0
    for m, n in grids(2, 30):
        g = GridSpec((m, n))
        paths = enumerate_paths_exhaustive(g)
        closed = sum(1 for p in paths if p.kind is PathKind.CLOSED)
        opened = sum(1 for p in paths if p.kind is PathKind.OPEN)
        if closed != math.gcd(m, n) - 1 or opened != 2 or closed != count_closed(g):
            failures += 1
    elapsed = time.perf_counter() - started
    report(
        "criterion 1 (closed counts = gcd-1, open = 2, all m,n <= 30)",
        failures == 0 and elapsed < 30.0,
        f"900 grids in {elapsed:.2f}s",
    )


def test_criterion_02_6x4_grid():
    g = GridSpec((6, 4))
    paths = enumerate_paths_exhaustive(g)
    closed = sum(1 for p in paths if p.kind is PathKind.CLOSED)
    opened = sum(1 for p in paths if p.kind is PathKind.OPEN)
    segments = sum(p.distinct_segments for p in paths)
    report(
        "criterion 2 (6x4: closed=1, open=2, 48 segments)",
        closed == 1 and opened == 2 and segments == 48,
        f"closed={closed} open={opened} segments={segments}",
    )


def test_criterion_03_4x3x2_grid():
    g = GridSpec((4, 3, 2))
    paths = enumerate_paths_exhaustive(g)
    closed = sum(1 for p in paths if p.kind is PathKind.CLOSED)
    opened = sum(1 for p in paths if p.kind is PathKind.OPEN)
    report(
        "criterion 3 (4x3x2: closed=2, open=4, step length 24)",
        closed == 2 == count_closed(g)
        and opened == 4 == count_open(g)
        and step_length(g) == 24
        and all(p.step_length == 24 for p in paths),
        f"closed={closed} open={opened} K={step_length(g)}",
    )


def test_criterion_04_least_closure_is_exactly_one_period():
    total_states = 0
    violations = 0
    for p in (2, 3):
        for dims in grids(p, 8):
            violations += kernels.least_closure_violations(list(dims))
            total_states += GridSpec(dims).n_states
    report(
        "criterion 4 (least closure step == 2*lcm for every state, m_i <= 8, p <= 3)",
        violations == 0,
        f"{total_states} states, {violations} violations",
    )


def test_criterion_05_reachability_equivalence():
    checked_total = 0
    mismatches = 0
    for p in (2, 3):
        for dims in grids(p, 6):
            checked, bad = kernels.reach_scan(list(dims))
            expected = (math.prod(m + 1 for m in dims) ** 2) * 2**p
            assert checked == expected
            checked_total += checked
            mismatches += bad
    g = GridSpec((6, 4))
    example_ok = (
        light_reachable(g, Point((0, 3)), ASC2, Point((3, 4))).reachable is True
        and light_reachable(g, Point((0, 2)), ASC2, Point((3, 4))).reachable is False
        and light_reachable_oracle(g, Point((0, 3)), ASC2, Point((3, 4))).reachable
        and not light_reachable_oracle(g, Point((0, 2)), ASC2, Point((3, 4))).reachable
    )
    report(
        "criterion 5 (congruence reachability == iteration oracle, m_i <= 6, p <= 3)",
        mismatches == 0 and example_ok,
        f"{checked_total} triples, {mismatches} mismatches",
    )


def test_criterion_06_count_recurrences():
    ok = all(count_closed(GridSpec((n, n))) == n - 1 for n in range(1, 13))
    pairs = 0
    for m, n in grids(2, 20):
        pairs += 1
        c = count_closed(GridSpec((m, n)))
        if c != count_closed(GridSpec((n, m))) or c != count_closed(GridSpec((m + n, n))):
            ok = False
    report(
        "criterion 6 (C(n,n)=n-1; C(m,n)=C(n,m)=C(m+n,n), m,n <= 20)",
        ok,
        f"{pairs} pairs",
    )


def test_criterion_07_boundary_counts():
    g = GridSpec((6, 4))
    closed = [p for p in enumerate_paths_exhaustive(g) if p.kind is PathKind.CLOSED]
    ok = len(closed) == 1 and boundary_hits(g, closed[0]) == 10
    checked = 0
    for m, n in grids(2, 12):
        grid = GridSpec((m, n))
        expected = 2 * (m + n) // math.gcd(m, n)
        closed_paths = [p for p in enumerate_paths_exhaustive(grid) if p.kind is PathKind.CLOSED]
        if len(closed_paths) != math.gcd(m, n) - 1:
            ok = False
        for path in closed_paths:
            checked += 1
            if boundary_hits(grid, path) != expected:
                ok = False
    report(
        "criterion 7 (boundary hits of closed paths = 2(m+n)/gcd, m,n <= 12)",
        ok,
        f"{checked} closed paths checked; coprime grids have none",
    )


def test_criterion_08_coordinate_sums():
    violations = 0
    states = 0
    for p in (2, 3):
        for dims in grids(p, 6):
            violations += kernels.coordinate_sum_violations(list(dims))
            states += GridSpec(dims).n_states
    report(
        "criterion 8 (per-coordinate period sums = m_i*lcm, all states, m_i <= 6, p <= 3)",
        violations == 0,
        f"{states} start states, {violations} violations",
    )


def _orbit_structure_ok(dims) -> bool:
    g = GridSpec(dims)
    comp = bfs_component_ids(g)
    brute = orbit_sizes_bruteforce(g)
    # BFS partition must coincide with the parity-index partition
    comp_by_index: dict[tuple[int, ...], int] = {}
    index_by_comp: dict[int, tuple[int, ...]] = {}
    for pid, point in enumerate(all_points(g)):
        bits = index_of(point).bits
        if comp_by_index.setdefault(bits, comp[pid]) != comp[pid]:
            return False
        if index_by_comp.setdefault(comp[pid], bits) != bits:
            return False
    if len(comp_by_index) != 2 ** (g.p - 1):
        return False
    # closed-form sizes must match brute-force counts
    total = 0
    for bits in itertools.product((0, 1), repeat=g.p - 1):
        size = orbit_size(g, OrbitIndex(bits))
        total += size
        if size != brute.get(bits, 0):
            return False
    return total == g.n_points


def test_criterion_09_orbit_structure():
    ok = True
    n_grids = 0
    for p in (2, 3, 4):
        for dims in grids(p, 6):
            n_grids += 1
            ok = ok and _orbit_structure_ok(dims)
    # spot checks near the 10^4-point budget cap
    for dims in [(99, 99), (4999, 1), (20, 20, 20), (9, 9, 9, 9)]:
        n_grids += 1
        ok = ok and _orbit_structure_ok(dims)
    # even/even grids have one extra even-parity point, otherwise a tie
    for m, n in grids(2, 12):
        g = GridSpec((m, n))
        even = orbit_size(g, OrbitIndex((0,)))
        odd = orbit_size(g, OrbitIndex((1,)))
        if m % 2 == 0 and n % 2 == 0:
            ok = ok and even == odd + 1
        else:
            ok = ok and even == odd
    report(
        "criterion 9 (BFS partition == parity index; size formula == brute force)",
        ok,
        f"{n_grids} grids",
    )


def test_criterion_10_wave_suite():
    ok = True
    # closed form == circ_seq, the tent-map read, over two periods, t <= m <= 20
    for m in range(1, 21):
        for t in range(m + 1):
            for sign in "+-":
                spec = SeqSpec(sign, t, m)
                for n in range(4 * m + 1):
                    ok = ok and circ_seq_closed(spec, n) == circ_seq(spec, n)
    # numerator == definitional coefficient sum
    for m in range(1, 21):
        for t in range(m + 1):
            for sign in "+-":
                spec = SeqSpec(sign, t, m)
                definitional = IntPolynomial(
                    tuple(circ_seq(spec, n) for n in range(2 * m))
                )
                ok = ok and numerator_poly(spec) == definitional
    # the ten factored height-4 numerators
    base = (P(1, 1), P(1, 0, 1))
    x = P(0, 1)
    ten = {
        ("+", 0): product(x, *base, *base),
        ("+", 1): product(*base, *base),
        ("+", 2): product(*base, P(2, 1, 1, -1, 1)),
        ("+", 3): product(*base, P(3, 1, -1, -1, 2)),
        ("+", 4): product(*base, P(4, -1, -1, -1, 3)),
        ("-", 0): product(x, *base, *base),
        ("-", 1): product(*base, P(1, -1, 1, 1, 2)),
        ("-", 2): product(*base, P(2, -1, -1, 1, 3)),
        ("-", 3): product(*base, P(3, -1, -1, -1, 4)),
        ("-", 4): product(*base, P(4, -1, -1, -1, 3)),
    }
    for (sign, t), expected in ten.items():
        ok = ok and numerator_poly(SeqSpec(sign, t, 4)) == expected
    # the thirteen-term height-6 example
    ok = ok and [circ_seq(SeqSpec("+", 3, 6), n) for n in range(13)] == [
        3, 4, 5, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3,
    ]
    ok = ok and series_expand(gen_function(SeqSpec("+", 3, 6)), 12) == [
        3, 4, 5, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3,
    ]
    # series expansion matches circ_seq, the tent-map read, for six periods, m <= 10
    for m in range(1, 11):
        for t in range(m + 1):
            for sign in "+-":
                spec = SeqSpec(sign, t, m)
                n_terms = 12 * m
                ok = ok and series_expand(gen_function(spec), n_terms) == [
                    circ_seq(spec, n) for n in range(n_terms + 1)
                ]
    report("criterion 10 (triangle-wave sequences and generating functions)", ok)


def test_criterion_11_renderer_determinism():
    g = GridSpec((6, 4))
    a = render_grid(g, enumerate_paths(g))
    b = render_grid(g, enumerate_paths(g))
    root = ET.fromstring(a)
    polylines = elements(root, "polyline")
    report(
        "criterion 11 (6x4 SVG: valid XML, 3 polylines, byte-identical)",
        a.encode() == b.encode() and len(polylines) == 3,
        f"{len(a.encode())} bytes",
    )
