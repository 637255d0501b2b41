"""Helpers shared by the test modules, each defined once: the finite sets the
laws are checked on (grids, lattice points, phase states, direction masks),
the ``core.step`` replay, the polynomial builders, the memory probe and the
SVG element finder, and the environment of a child interpreter.

Pytest puts this directory on ``sys.path``, so a test module imports it as
``from support import ...``.
"""

import itertools
import os
import tracemalloc
from pathlib import Path

import pytest

import arithbilliards
from arithbilliards.circseq import IntPolynomial
from arithbilliards.core import DirectionMask, PhaseState, Point, step

ASC2 = DirectionMask.ascending(2)
SVG_NS = "{http://www.w3.org/2000/svg}"


def grids(p, max_m):
    """Every ``p``-dimensional ``dims`` tuple with sides 1..``max_m``, in
    lexicographic order."""
    return itertools.product(range(1, max_m + 1), repeat=p)


def all_points(grid):
    """Every lattice point of ``grid``, in encoding order."""
    return [Point(c) for c in itertools.product(*[range(m + 1) for m in grid.dims])]


def all_states(grid):
    """Every phase state of ``grid``, in encoding order."""
    return [PhaseState(r) for r in itertools.product(*[range(tm) for tm in grid.two_m])]


def all_masks(p):
    """The ``2**p`` direction masks, in lexicographic sign order."""
    return [DirectionMask(signs) for signs in itertools.product((0, 1), repeat=p)]


def orbit(grid, state, n_steps):
    """``n_steps + 1`` states from ``state`` by repeated :func:`core.step`."""
    states = [state]
    for _ in range(n_steps):
        states.append(step(grid, states[-1]))
    return states


def P(*coeffs):
    return IntPolynomial(tuple(coeffs))


def product(*factors):
    """The product of the polynomials ``factors``, by coefficient convolution."""
    out = [1]
    for f in factors:
        out = [sum(out[i] * f.coeff(n - i) for i in range(len(out)))
               for n in range(len(out) + len(f.coeffs) - 1)]
    return IntPolynomial(tuple(out))


def peak_bytes(fn, raises=None):
    """``(result, peak)``: what ``fn()`` returns and the peak bytes traced
    while it ran.  With ``raises``, ``fn()`` must raise that exception, and
    its ``ExceptionInfo`` takes the place of the result."""
    tracemalloc.start()
    try:
        if raises is None:
            result = fn()
        else:
            with pytest.raises(raises) as result:
                fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def elements(root, tag):
    """Every ``tag`` element (an SVG name such as ``"polyline"``) under ``root``."""
    return root.findall(f".//{SVG_NS}{tag}")


def package_env():
    """``os.environ`` with the package's source directory first on
    ``PYTHONPATH``, for a child interpreter that imports the package."""
    src = str(Path(arithbilliards.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
