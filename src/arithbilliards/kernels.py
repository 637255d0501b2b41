"""Exhaustive oracle kernels, in pure Python.

The library answers from the paper's closed forms; these loops iterate the
phase dynamics instead and are what the test suite checks those forms
against.  :func:`least_closure` and :func:`period_sums` are also the bodies
of :func:`billiards.first_closure` and :func:`billiards.coordinate_sums`, and
:func:`reach_scan` solves its congruences with
:func:`core.solve_congruences`, so each oracle loop exists once.

Stepping loops wrap each phase circle by comparison (no ``%``) and make no
call per step.  All functions take plain dimension lists and return plain
ints/lists.  State and point indexes use the mixed-radix encodings of
:mod:`arithbilliards.core` (first coordinate most significant).  Callers are
responsible for validation and budget checks; these scans assume their
inputs fit in memory.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from arithbilliards.core import solve_congruences

BACKEND = "python"


def _encode(digits, radices) -> int:
    idx = 0
    for d, r in zip(digits, radices):
        idx = idx * r + d
    return idx


def _decode(index: int, radices) -> list[int]:
    out = [0] * len(radices)
    for i in range(len(radices) - 1, -1, -1):
        index, out[i] = divmod(index, radices[i])
    return out


def trace_paths(two_m) -> list[tuple[int, int]]:
    """Partition all phase states into step orbits paired with their reversals.

    Each geometric path is either one self-reversed orbit (an open path) or a
    pair of mutually reversed orbits (a closed path).  Returns one
    ``(representative_index, is_open)`` tuple per geometric path, ascending;
    the representative is the smallest encoded state on the path.
    """
    two_m = list(two_m)
    p = len(two_m)
    n_states = math.prod(two_m)
    period = math.lcm(*two_m)
    visited = bytearray(n_states)
    out: list[tuple[int, int]] = []
    for seed in range(n_states):
        if visited[seed]:
            continue
        base = _decode(seed, two_m)
        neg = [(tm - u) % tm for u, tm in zip(base, two_m)]
        neg_idx = _encode(neg, two_m)
        self_paired = False
        cur = list(base)
        idx = seed
        for _ in range(period):
            visited[idx] = 1
            if idx == neg_idx:
                self_paired = True
            idx = 0
            for i in range(p):
                c = cur[i] + 1
                if c == two_m[i]:
                    c = 0
                cur[i] = c
                idx = idx * two_m[i] + c
        if not self_paired:
            cur = neg
            idx = neg_idx
            for _ in range(period):
                visited[idx] = 1
                idx = 0
                for i in range(p):
                    c = cur[i] + 1
                    if c == two_m[i]:
                        c = 0
                    cur[i] = c
                    idx = idx * two_m[i] + c
        out.append((seed, int(self_paired)))
    return out


def least_closure(two_m, residues, limit: int) -> int | None:
    """Least ``k`` in ``[1, limit]`` at which the trajectory from ``residues``
    re-reads both its start position and the position one step before the
    start (position equality, not state equality); None if there is none.

    Two residues give the same position iff they are equal or mirrored
    (``u`` and ``2*m - u``).
    """
    p = len(two_m)
    start = list(residues)
    back = [tm - 1 if u == 0 else u - 1 for u, tm in zip(start, two_m)]
    start_mirror = [tm - u if u else 0 for u, tm in zip(start, two_m)]
    back_mirror = [tm - v if v else 0 for v, tm in zip(back, two_m)]
    cur = list(start)
    for k in range(1, limit + 1):
        ok = True
        for i in range(p):
            prev = cur[i]
            nxt = prev + 1
            if nxt == two_m[i]:
                nxt = 0
            cur[i] = nxt
            if ok and (nxt != start[i] and nxt != start_mirror[i]
                       or prev != back[i] and prev != back_mirror[i]):
                ok = False
        if ok:
            return k
    return None


def least_closure_violations(dims) -> int:
    """Count states whose :func:`least_closure` differs from 2*lcm(dims).

    Expected result is 0: the least full-closure step is always one period.
    """
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    bad = 0
    for base in itertools.product(*[range(tm) for tm in two_m]):
        if least_closure(two_m, base, period) != period:
            bad += 1
    return bad


def reach_scan(dims) -> tuple[int, int]:
    """Exhaustive reachability cross-check over one grid.

    For every (source point, direction mask, target point) triple, decides
    reachability twice: by merging per-coordinate congruences, and by walking
    the full 2*lcm period and recording first visits.  Answers must agree on
    reachability, least witness, and the sign choice of the target lift.

    Returns ``(n_checked, n_mismatch)``.
    """
    dims = list(dims)
    p = len(dims)
    two_m = [2 * m for m in dims]
    m_plus = [m + 1 for m in dims]
    period = math.lcm(*two_m)
    n_points = math.prod(m_plus)
    n_states = math.prod(two_m)

    # Least solution per residue-difference vector, solved once by CRT merge
    # (-1 where there is none).
    crt = []
    for d in range(n_states):
        k0 = solve_congruences(_decode(d, two_m), two_m)
        crt.append(-1 if k0 is None else k0)

    witness = [-1] * n_points
    stamp = [0] * n_points
    gen = 0
    checked = 0
    mismatch = 0
    n_masks = 1 << p
    point_iter = list(itertools.product(*[range(mp) for mp in m_plus]))

    for src in point_iter:
        for maskbits in range(n_masks):
            u = [
                x if not (maskbits >> (p - 1 - i)) & 1 else (two_m[i] - x) % two_m[i]
                for i, x in enumerate(src)
            ]
            # Oracle pass: first-visit step for every reachable point.
            gen += 1
            cur = list(u)
            for k in range(period):
                pid = 0
                for i in range(p):
                    m = dims[i]
                    pid = pid * m_plus[i] + (m - abs(m - cur[i]))
                if stamp[pid] != gen:
                    stamp[pid] = gen
                    witness[pid] = k
                for i in range(p):
                    c = cur[i] + 1
                    if c == two_m[i]:
                        c = 0
                    cur[i] = c
            # Residue differences for both lifts of each target value.
            dtab = [
                [((t - u[i]) % two_m[i], ((two_m[i] - t) % two_m[i] - u[i]) % two_m[i])
                 for t in range(m_plus[i])]
                for i in range(p)
            ]
            for pid_t, tgt in enumerate(point_iter):
                oracle_k = witness[pid_t] if stamp[pid_t] == gen else -1
                oracle_sig = -1
                if oracle_k >= 0:
                    oracle_sig = 0
                    for i in range(p):
                        v = (u[i] + oracle_k) % two_m[i]
                        oracle_sig = (oracle_sig << 1) | (0 if v == tgt[i] else 1)
                best = -1
                best_sig = -1
                for sig in range(n_masks):
                    d_idx = 0
                    for i in range(p):
                        d_idx = d_idx * two_m[i] + dtab[i][tgt[i]][(sig >> (p - 1 - i)) & 1]
                    k0 = crt[d_idx]
                    if k0 >= 0 and (best < 0 or k0 < best):
                        best = k0
                        best_sig = sig
                if best != oracle_k or (best >= 0 and best_sig != oracle_sig):
                    mismatch += 1
                checked += 1
    return checked, mismatch


def period_sums(dims, residues) -> list[int]:
    """Per-coordinate sums of the positions visited over one full period
    ``2*lcm(dims)`` from the phase state ``residues``."""
    p = len(dims)
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    sums = [0] * p
    cur = list(residues)
    for _ in range(period):
        for i in range(p):
            m = dims[i]
            sums[i] += m - abs(m - cur[i])
            c = cur[i] + 1
            if c == two_m[i]:
                c = 0
            cur[i] = c
    return sums


def coordinate_sum_violations(dims) -> int:
    """Count start states whose :func:`period_sums` differ from
    ``m_i * lcm(dims)``.  Expected 0."""
    dims = list(dims)
    two_m = [2 * m for m in dims]
    half_period = math.lcm(*two_m) // 2
    expect = [m * half_period for m in dims]
    bad = 0
    for base in itertools.product(*[range(tm) for tm in two_m]):
        if period_sums(dims, base) != expect:
            bad += 1
    return bad


def bfs_components(dims) -> list[int]:
    """Connected components of lattice points under unit-cell diagonal moves.

    Moves change every coordinate by +-1 and must stay inside the grid.
    Returns a component id per encoded point, ids assigned in first-seen
    (ascending seed) order; neighbor exploration is in lexicographic sign
    order, so the output is fully deterministic.
    """
    dims = list(dims)
    p = len(dims)
    m_plus = [m + 1 for m in dims]
    n_points = math.prod(m_plus)
    deltas = list(itertools.product((1, -1), repeat=p))
    comp = [-1] * n_points
    cid = 0
    for seed in range(n_points):
        if comp[seed] >= 0:
            continue
        comp[seed] = cid
        queue = deque([seed])
        while queue:
            pid = queue.popleft()
            coords = _decode(pid, m_plus)
            for delta in deltas:
                nid = 0
                for i in range(p):
                    c = coords[i] + delta[i]
                    if c < 0 or c > dims[i]:
                        nid = -1
                        break
                    nid = nid * m_plus[i] + c
                if nid >= 0 and comp[nid] < 0:
                    comp[nid] = cid
                    queue.append(nid)
        cid += 1
    return comp
