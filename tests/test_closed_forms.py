"""Closed forms against the exhaustive oracles they replace, at fixed bounds.

``enumerate_paths`` (canonical coset states), ``find_walk`` (greedy walk),
``simulate`` and the renderer (tent-map columns) and ``boundary_hits``
(wall-residue sieve) must return exactly what orbit tracing, BFS and
``core.step`` iteration return.
"""

import itertools
import xml.etree.ElementTree as ET

import pytest

from arithbilliards.billiards import (
    PathKind,
    boundary_hits,
    enumerate_paths,
    enumerate_paths_exhaustive,
    simulate,
    step_length,
)
from arithbilliards.core import (
    GridSpec,
    Point,
    encode_point,
    lift,
    project,
    step,
)
from arithbilliards.render import RenderOptions, render_grid
from arithbilliards.walks import bfs_component_ids, find_walk, find_walk_bfs
from support import all_masks, all_points, elements, grids, orbit


# grids whose period 2*lcm spans several blocks of the orbit walk
MULTI_BLOCK = [(29, 30), (600, 7), (17, 19, 3)]
# 4-D grids with hundreds of orbits, so the enumeration descends at every level
MANY_ORBITS = [(9, 12, 6, 6), (7, 12, 14, 7)]


@pytest.mark.parametrize("p,max_m", [(2, 6), (3, 6), (4, 3), (5, 2)])
def test_enumerate_paths_matches_orbit_tracing(p, max_m):
    extra = [d for d in MULTI_BLOCK + MANY_ORBITS if len(d) == p]
    for dims in itertools.chain(grids(p, max_m), extra):
        g = GridSpec(dims)
        assert enumerate_paths(g) == enumerate_paths_exhaustive(g), dims


@pytest.mark.parametrize(
    "dims", [(3, 2), (4, 4), (5, 3), (2, 2, 2), (3, 2, 2), (1, 3, 2), (2, 2, 1, 2)]
)
def test_find_walk_matches_bfs_on_every_pair(dims):
    g = GridSpec(dims)
    points = all_points(g)
    comp = bfs_component_ids(g)
    for start in points:
        for goal in points:
            walk = find_walk_bfs(g, start, goal)
            assert find_walk(g, start, goal) == walk, (start, goal)
            apart = comp[encode_point(g, start)] != comp[encode_point(g, goal)]
            assert (walk is None) == apart, (start, goal)


@pytest.mark.parametrize("dims", [(4, 3), (6, 4), (1, 1), (2, 3, 5), (3, 2, 2, 1)])
def test_simulate_matches_step_replay(dims):
    g = GridSpec(dims)
    period = step_length(g)
    points = all_points(g)
    starts = points[:: max(1, len(points) // 5)]
    masks = all_masks(g.p)
    # below, at and several periods beyond one period of states
    lengths = [0, period - 2, period - 1, period, 3 * period + 5]
    for start in starts:
        for mask in masks[:: max(1, len(masks) // 3)]:
            states = orbit(g, lift(g, start, mask), max(lengths))
            for n in lengths:
                traj = simulate(g, start, mask, n)
                expected = states[: n + 1]
                assert list(traj.states) == expected
                assert list(traj.points) == [project(g, s) for s in expected]


@pytest.mark.parametrize("dims", [(10**9, 2), (2, 10**9), (10**7, 3, 5)])
def test_simulate_short_trajectory_on_large_grid(dims):
    # the work follows n_steps, not the 2*m_i cycle of a long side
    g = GridSpec(dims)
    start = Point((1,) * g.p)
    for mask in all_masks(g.p):
        states = orbit(g, lift(g, start, mask), 4)
        for n in range(5):
            traj = simulate(g, start, mask, n)
            assert list(traj.states) == states[: n + 1]
            assert list(traj.points) == [project(g, s) for s in states[: n + 1]]


@pytest.mark.parametrize("dims", [(6, 4), (9, 6), (2, 2, 2), (4, 3, 2), (3, 3, 3)])
def test_boundary_hits_matches_stepping_count(dims):
    g = GridSpec(dims)
    for path in enumerate_paths(g):
        states = orbit(g, path.representative, path.step_length - 1)
        expected = sum(
            1 for s in states if any(u in (0, m) for u, m in zip(s.residues, g.dims))
        )
        assert boundary_hits(g, path) == expected


@pytest.mark.parametrize("dims", [(6, 4), (9, 6), (4, 3), (1, 1), (5, 5), (2, 7)])
def test_render_polylines_match_step_replay(dims):
    g = GridSpec(dims)
    k = step_length(g)
    opts = RenderOptions(cell_size=1, margin=0)
    paths = enumerate_paths(g)
    root = ET.fromstring(render_grid(g, paths, opts))
    polys = elements(root, "polyline")
    assert len(polys) == len(paths)
    for path, poly in zip(paths, polys):
        state = path.representative
        if path.kind is PathKind.OPEN:
            # walk forward to the first grid vertex, then draw half a period
            while not all(u in (0, m) for u, m in zip(state.residues, g.dims)):
                state = step(g, state)
            expected = orbit(g, state, k // 2)
        else:
            expected = orbit(g, state, k)
        drawn = [tuple(int(v) for v in pair.split(","))
                 for pair in poly.attrib["points"].split()]
        assert drawn == [(x, g.dims[1] - y) for x, y in
                         (project(g, s).coords for s in expected)]
