"""Static SVG drawings of 2-D grids and their billiard trajectories.

Trajectories render as polylines through every lattice point they visit,
reflection vertices included, with the y axis flipped so (0, 0) sits at the
bottom-left.  Output is a pure function of the inputs: integer coordinates
only, fixed attribute order, byte-identical across runs.

Step ``k`` of a path sits at the tent map of ``(u_i + k) mod 2*m_i`` on each
axis, so the ``points`` text is two periodic label sequences interleaved.  A
call builds one label table per axis, ``"X,"`` or ``"Y "`` for each phase
``0 .. 2*m_i - 1``; a path's labels on an axis are one slice of that table
repeated, ``(table * reps)[u:u + n]``, assigned into the text list by slice
assignment before the other axis's are built, so no Python code runs per
vertex.  A trajectory from :func:`billiards.simulate` is drawn from its
position cycles, mapped through the table and repeated.  The grid lines are formatted from one ``range`` of screen
coordinates per axis.  A polyline holds a list of two references per vertex
while its text (about 12 B per vertex at the default scale on
``(1000, 999)``) is joined, and the document is joined once from the
polylines, so rendering every path of ``(1000, 999)``, 1,998,002 vertices,
peaks at about 23 B per drawn vertex (``tracemalloc``).
"""

from __future__ import annotations

from operator import attrgetter

from arithbilliards.billiards import (
    Path,
    PathKind,
    PeriodicSequence,
    Trajectory,
    step_length,
    validate_path,
)
from arithbilliards.core import (
    Frozen,
    GridSpec,
    _repeat,
    check_budget,
    solve_congruences,
    validate_count,
)

GRID_STROKE_WIDTH = 1
PATH_STROKE_WIDTH = 2
#: Characters that would end or escape the SVG attribute a color is written to.
MARKUP_CHARS = "\"'<>&"


class RenderOptions(Frozen):
    """Drawing scale and the stroke colors cycled over the drawn items.

    ``cell_size`` and ``margin`` must be ``int`` (not ``bool``), so every
    coordinate written is an integer.  The palette must not be empty.  Each
    entry is written into an SVG attribute as given, so it must be non-empty
    and free of :data:`MARKUP_CHARS`.
    """

    __slots__ = ("cell_size", "margin", "palette")

    def __init__(self, cell_size: int = 40, margin: int = 20,
                 palette: tuple[str, ...] = ("green", "blue", "red")) -> None:
        palette = tuple(palette)
        object.__setattr__(self, "cell_size", cell_size)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "palette", palette)
        validate_count("cell_size", cell_size, 1)
        validate_count("margin", margin)
        if not palette:
            raise ValueError("palette must not be empty")
        for color in palette:
            if not color or any(ch in color for ch in MARKUP_CHARS):
                raise ValueError(f"palette entries must be non-empty and free of "
                                 f"{MARKUP_CHARS}, got {color!r}")


def _trajectory_columns(grid: GridSpec, trajectory: Trajectory) -> list[tuple[int, ...]]:
    """The x and y position cycles of ``trajectory``'s points, checked to lie
    on ``grid``: each axis's coordinates are its cycle repeated.

    A :class:`PeriodicSequence` gives its own cycles, so no point is built; a
    tuple of points gives its whole columns.  Each axis is checked on its set
    of distinct values: every coordinate must be an ``int`` in ``0..m_i``, so
    it indexes that axis's label table.
    """
    points = trajectory.points
    if isinstance(points, PeriodicSequence):
        columns = [cycle[:len(points)] for cycle in points.cycles]
        arities = {len(columns)}
    else:
        coords = list(map(attrgetter("coords"), points))
        columns = list(zip(*coords)) or [(), ()]
        arities = set(map(len, coords))
    if arities - {2}:
        raise ValueError("trajectory arity does not match the 2-D grid")
    for i, (column, m) in enumerate(zip(columns, grid.dims)):
        if set(map(type, column)) - {int}:
            raise ValueError(f"trajectory coordinate x_{i + 1} must be an integer")
        values = set(column)
        if values and (min(values) < 0 or max(values) > m):
            raise ValueError(f"trajectory leaves the grid: x_{i + 1} takes "
                             f"{min(values)}..{max(values)}, not within 0..{m}")
    return columns


def _path_start(grid: GridSpec, two_m, path: Path) -> list[int]:
    """Phase of each coordinate at the first vertex drawn for a Path.

    Closed paths draw one full period (a loop) from the representative.  Open
    paths start from the first grid vertex on the orbit, the least ``k`` with
    ``u_i + k = 0 (mod m_i)`` for every ``i``, and draw half a period, giving
    the vertex-to-vertex beam without retracing.  ``two_m`` is ``grid.two_m``,
    built once by the caller for all its paths.
    """
    residues = path.representative.residues
    if path.kind == PathKind.OPEN:
        to_vertex = solve_congruences([(-u) % m for u, m in zip(residues, grid.dims)],
                                      grid.dims)
        if to_vertex is None:
            raise ArithmeticError("open path orbit never reaches a grid vertex")
        residues = [u + to_vertex for u in residues]
    return [u % tm for u, tm in zip(residues, two_m)]


def _axis_labels(m: int, screen, end: str) -> list[str]:
    """Label of each phase ``r`` in ``0 .. 2*m - 1`` of one axis: the screen
    coordinate of its tent position ``m - |m - r|``, followed by ``end``.

    The first ``m + 1`` entries are the labels of positions ``0..m``.
    """
    labels = [f"{screen(x)}{end}" for x in range(m + 1)]
    return labels + labels[m - 1:0:-1]


def _polyline(columns, n: int, color: str) -> str:
    """The ``<polyline>`` element through ``n`` vertices, joined once.

    ``columns`` is an iterator yielding the ``n`` labels of each axis in
    turn, ``"X,"`` then ``"Y "``; each is interleaved by slice assignment
    after the opening text before the next is built, and the last element
    trades its trailing space for the closing text.
    """
    text = [""] * (2 * n + 1)
    text[0] = '<polyline points="'
    for axis in (0, 1):
        # no loop tuple (enumerate's or zip's) keeps this axis's labels alive
        # while the generator builds the next axis's
        text[1 + axis::2] = next(columns)
    text[-1] = (text[-1].removesuffix(" ") + f'" fill="none" stroke="{color}" '
                f'stroke-width="{PATH_STROKE_WIDTH}"/>')
    return "".join(text)


def render_grid(grid: GridSpec, paths, opts: RenderOptions | None = None) -> str:
    """Render a 2-D grid with the given Trajectory/Path items as an SVG document.

    The budget bounds the vertices drawn (of Path and Trajectory items alike)
    plus the interior grid lines, and is charged before anything is built.
    A Trajectory must lie on the grid.
    """
    if grid.p != 2:
        raise ValueError(f"rendering requires a 2-D grid, got {grid.p} dimensions")
    opts = opts or RenderOptions()
    # each item's vertex count (each Path validated on the way), charged
    # with the interior grid lines before any column or text is built
    items = list(paths)
    counts = []
    k = step_length(grid)
    for item in items:
        if isinstance(item, Path):
            # a full period if closed, half if open
            validate_path(grid, item)
            counts.append((k if item.kind == PathKind.CLOSED else k // 2) + 1)
        elif isinstance(item, Trajectory):
            counts.append(len(item.points))
        else:
            raise TypeError(f"cannot render {type(item).__name__}")
    m1, m2 = grid.dims
    check_budget(sum(counts) + m1 - 1 + m2 - 1, "drawn vertices and grid lines")
    drawn = [(item if isinstance(item, Path) else _trajectory_columns(grid, item), n)
             for item, n in zip(items, counts)]
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
    # the interior lines, x = 1 .. m1-1 then y = 1 .. m2-1, each written by
    # one template from its axis's range of screen coordinates
    stroke = f'stroke="gray" stroke-width="{GRID_STROKE_WIDTH}"/>'
    parts += map(f'<line x1="{{0}}" y1="{sy(0)}" x2="{{0}}" y2="{sy(m2)}" {stroke}'.format,
                 range(sx(1), sx(m1), cell))
    parts += map(f'<line x1="{sx(0)}" y1="{{0}}" x2="{sx(m1)}" y2="{{0}}" {stroke}'.format,
                 range(sy(1), sy(m2), -cell))
    tables = (_axis_labels(m1, sx, ","), _axis_labels(m2, sy, " ")) if drawn else ()
    two_m = grid.two_m
    for i, (item, n) in enumerate(drawn):
        if isinstance(item, Path):
            columns = ((table * -(-(u + n) // len(table)))[u:u + n]
                       for table, u in zip(tables, _path_start(grid, two_m, item)))
        else:
            columns = (_repeat(list(map(table.__getitem__, column)), n)
                       for table, column in zip(tables, item))
        parts.append(_polyline(columns, n, opts.palette[i % len(opts.palette)]))
    parts.append("</svg>\n")
    return "\n".join(parts)
