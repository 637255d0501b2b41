"""Static SVG drawings of 2-D grids and their billiard trajectories.

Trajectories render as polylines through every lattice point they visit,
reflection vertices included, with the y axis flipped so (0, 0) sits at the
bottom-left.  Output is a pure function of the inputs: integer coordinates
only, fixed attribute order, byte-identical across runs.
"""

from __future__ import annotations

from arithbilliards.billiards import (
    Path,
    PathKind,
    Trajectory,
    step_length,
    validate_path,
)
from arithbilliards.core import (
    Frozen,
    GridSpec,
    check_budget,
    solve_congruences,
    tent_columns,
)

GRID_STROKE_WIDTH = 1
PATH_STROKE_WIDTH = 2
#: Characters that would end or escape the SVG attribute a color is written to.
MARKUP_CHARS = "\"'<>&"


class RenderOptions(Frozen):
    """Drawing scale and the stroke colors cycled over the drawn items.

    ``cell_size`` and ``margin`` must be ``int`` (not ``bool``), so every
    coordinate written is an integer.  Each palette entry is written into an
    SVG attribute as given, so it must be non-empty and free of
    :data:`MARKUP_CHARS`.
    """

    __slots__ = ("cell_size", "margin", "palette")

    def __init__(self, cell_size: int = 40, margin: int = 20,
                 palette: tuple[str, ...] = ("green", "blue", "red")) -> None:
        palette = tuple(palette)
        object.__setattr__(self, "cell_size", cell_size)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "palette", palette)
        for name, value in (("cell_size", cell_size), ("margin", margin)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if cell_size < 1:
            raise ValueError(f"cell_size must be >= 1, got {cell_size}")
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        for color in palette:
            if not color or any(ch in color for ch in MARKUP_CHARS):
                raise ValueError(f"palette entries must be non-empty and free of "
                                 f"{MARKUP_CHARS}, got {color!r}")


def _path_steps(grid: GridSpec, path: Path) -> int:
    """Steps drawn for ``path``, a path of ``grid``: a full period if closed,
    half if open."""
    validate_path(grid, path)
    k = step_length(grid)
    return k if path.kind is PathKind.CLOSED else k // 2


def _path_columns(grid: GridSpec, path: Path) -> list[list[int]]:
    """Vertex columns (one per coordinate) for drawing a Path.

    Closed paths draw one full period (a loop) from the representative.  Open
    paths start from the first grid vertex on the orbit, the least ``k`` with
    ``u_i + k = 0 (mod m_i)`` for every ``i``, and draw half a period, giving
    the vertex-to-vertex beam without retracing.
    """
    steps = _path_steps(grid, path)
    residues = path.representative.residues
    if path.kind is PathKind.OPEN:
        to_vertex = solve_congruences([(-u) % m for u, m in zip(residues, grid.dims)],
                                      grid.dims)
        if to_vertex is None:
            raise ArithmeticError("open path orbit never reaches a grid vertex")
        residues = [u + to_vertex for u in residues]
    return tent_columns(grid, residues, steps + 1)


def render_grid(grid: GridSpec, paths, opts: RenderOptions | None = None) -> str:
    """Render a 2-D grid with the given Trajectory/Path items as an SVG document.

    The budget bounds the vertices drawn for Path items.
    """
    if grid.p != 2:
        raise ValueError(f"rendering requires a 2-D grid, got {grid.p} dimensions")
    opts = opts or RenderOptions()
    if not opts.palette:
        raise ValueError("palette must not be empty")
    items = list(paths)
    check_budget(sum(_path_steps(grid, item) + 1 for item in items if isinstance(item, Path)),
                 "path vertices")
    m1, m2 = grid.dims
    cell = opts.cell_size
    margin = opts.margin
    width = 2 * margin + cell * m1
    height = 2 * margin + cell * m2

    def sx(x: int) -> int:
        return margin + cell * x

    def sy(y: int) -> int:
        return margin + cell * (m2 - y)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{sx(0)}" y="{sy(m2)}" width="{cell * m1}" height="{cell * m2}" '
        f'fill="white" stroke="black" stroke-width="{GRID_STROKE_WIDTH}"/>',
    ]
    for x in range(1, m1):
        parts.append(
            f'<line x1="{sx(x)}" y1="{sy(0)}" x2="{sx(x)}" y2="{sy(m2)}" '
            f'stroke="gray" stroke-width="{GRID_STROKE_WIDTH}"/>'
        )
    for y in range(1, m2):
        parts.append(
            f'<line x1="{sx(0)}" y1="{sy(y)}" x2="{sx(m1)}" y2="{sy(y)}" '
            f'stroke="gray" stroke-width="{GRID_STROKE_WIDTH}"/>'
        )
    for i, item in enumerate(items):
        if isinstance(item, Trajectory):
            pairs = [pt.coords for pt in item.points]
            if any(len(pair) != 2 for pair in pairs):
                raise ValueError("trajectory arity does not match the 2-D grid")
            coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in pairs)
        elif isinstance(item, Path):
            xs, ys = _path_columns(grid, item)
            coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in zip(xs, ys))
        else:
            raise TypeError(f"cannot render {type(item).__name__}")
        color = opts.palette[i % len(opts.palette)]
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{PATH_STROKE_WIDTH}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
