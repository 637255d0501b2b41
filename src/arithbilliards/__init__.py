"""Arithmetic billiards on p-dimensional integer grids.

Simulation and exact enumeration of reflecting diagonal trajectories,
closed-form path counts cross-checked by brute force, light reachability via
congruence systems, parity-orbit analysis of diagonal walks, triangle-wave
generating functions, and SVG rendering of 2-D grids.
"""

import importlib

from arithbilliards.core import (
    DEFAULT_STATE_BUDGET,
    BudgetExceededError,
    DirectionMask,
    GridSpec,
    OrbitIndex,
    PhaseState,
    Point,
    index_of,
    lift,
    make_state,
    project,
    reverse,
    step,
    step_back,
    step_directed,
)

# Public names of the other modules, each imported on first access (PEP 562),
# so that a CLI command loads only the modules it runs.
_LAZY = {
    "billiards": (
        "Path",
        "PathKind",
        "ReachAnswer",
        "Trajectory",
        "boundary_hits",
        "classify_path",
        "coordinate_sums",
        "count_closed",
        "count_open",
        "enumerate_paths",
        "enumerate_paths_exhaustive",
        "first_closure",
        "geometric_length",
        "light_reachable",
        "light_reachable_any",
        "light_reachable_oracle",
        "simulate",
        "step_length",
    ),
    "circseq": (
        "IntPolynomial",
        "RationalGF",
        "SeqSpec",
        "circ_seq",
        "circ_seq_closed",
        "gen_function",
        "numerator_poly",
        "series_expand",
    ),
    "render": ("RenderOptions", "render_grid"),
    "walks": (
        "OrbitSummary",
        "bfs_component_ids",
        "find_walk",
        "find_walk_bfs",
        "orbit_partition",
        "orbit_size",
        "orbit_sizes_bruteforce",
        "same_orbit",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("billiards", "circseq", "kernels", "render", "walks")

__version__ = "0.1.0"

__all__ = sorted([
    "BudgetExceededError",
    "DEFAULT_STATE_BUDGET",
    "DirectionMask",
    "GridSpec",
    "OrbitIndex",
    "PhaseState",
    "Point",
    "index_of",
    "lift",
    "make_state",
    "project",
    "reverse",
    "step",
    "step_back",
    "step_directed",
    *_HOME,
])


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
