"""SVG output: structure, coordinates, determinism, error handling."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from arithbilliards import core, render
from arithbilliards.billiards import Path, PathKind, Trajectory, enumerate_paths, simulate
from arithbilliards.core import BudgetExceededError, GridSpec, PhaseState, Point
from arithbilliards.render import RenderOptions, render_grid
from support import ASC2, elements, grids, peak_bytes


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestStructure:
    def test_6x4_with_all_paths(self):
        g = GridSpec((6, 4))
        svg = render_grid(g, enumerate_paths(g))
        root = parse(svg)
        assert len(elements(root, "polyline")) == 3
        assert len(elements(root, "rect")) == 1
        assert len(elements(root, "line")) == (6 - 1) + (4 - 1)

    def test_unit_square_empty(self):
        svg = render_grid(GridSpec((1, 1)), [])
        root = parse(svg)
        assert len(elements(root, "polyline")) == 0
        assert len(elements(root, "line")) == 0
        assert len(elements(root, "rect")) == 1

    def test_octagon_trajectory(self):
        g = GridSpec((4, 3))
        traj = simulate(g, Point((2, 2)), ASC2, 8)
        svg = render_grid(g, [traj])
        (poly,) = elements(parse(svg), "polyline")
        pairs = poly.attrib["points"].split()
        assert len(pairs) == 9  # eight segments
        assert pairs[0] == pairs[-1]

    def test_polyline_segment_counts(self):
        # open paths draw half a period, closed paths a full one
        g = GridSpec((6, 4))
        svg = render_grid(g, enumerate_paths(g))
        lengths = sorted(
            len(poly.attrib["points"].split()) - 1
            for poly in elements(parse(svg), "polyline")
        )
        assert lengths == [12, 12, 24]

    def test_open_paths_start_at_a_vertex(self):
        g = GridSpec((6, 4))
        opens = [p for p in enumerate_paths(g) if p.kind is PathKind.OPEN]
        svg = render_grid(g, opens)
        for poly in elements(parse(svg), "polyline"):
            first = poly.attrib["points"].split()[0]
            x, y = (int(v) for v in first.split(","))
            opts = RenderOptions()
            gx = (x - opts.margin) / opts.cell_size
            gy = 4 - (y - opts.margin) / opts.cell_size
            assert gx in (0, 6) and gy in (0, 4)

    def test_kind_compared_by_value(self):
        # PathKind is a str Enum: a path whose kind is the plain value equals
        # the library's path and is drawn the same, a full period if closed
        g = GridSpec((6, 4))
        paths = enumerate_paths(g)
        twins = [Path(p.representative, p.kind.value, p.step_length, p.distinct_segments)
                 for p in paths]
        assert twins == paths
        assert render_grid(g, twins) == render_grid(g, paths)
        assert sorted(len(poly.attrib["points"].split())
                      for poly in elements(parse(render_grid(g, twins)), "polyline")) == [13, 13, 25]


class TestCoordinates:
    def test_lattice_mapping_and_y_flip(self):
        g = GridSpec((2, 2))
        traj = simulate(g, Point((0, 0)), ASC2, 1)
        opts = RenderOptions(cell_size=10, margin=5)
        (poly,) = elements(parse(render_grid(g, [traj], opts)), "polyline")
        # (0,0) is bottom-left, so it maps to (margin, margin + cell*m2)
        assert poly.attrib["points"] == "5,25 15,15"

    def test_palette_cycling(self):
        g = GridSpec((6, 4))
        opts = RenderOptions(palette=("red", "gold"))
        polys = elements(parse(render_grid(g, enumerate_paths(g), opts)), "polyline")
        assert [p.attrib["stroke"] for p in polys] == ["red", "gold", "red"]


class TestDeterminism:
    def test_byte_identical_output(self):
        g = GridSpec((6, 4))
        a = render_grid(g, enumerate_paths(g))
        b = render_grid(g, enumerate_paths(g))
        assert a.encode("utf-8") == b.encode("utf-8")

    def test_documents_are_pinned(self):
        # one SHA-256 over every 2-D grid with sides up to 12 under three
        # option sets, then a trajectory and an empty one drawn with the paths
        # of (9, 7): any change to a byte of the drawings changes it
        options = [RenderOptions(), RenderOptions(cell_size=1, margin=0),
                   RenderOptions(cell_size=7, margin=3, palette=("red", "#0a0b0c"))]
        digest = hashlib.sha256()
        for dims in grids(2, 12):
            g = GridSpec(dims)
            paths = enumerate_paths(g)
            for opts in options:
                digest.update(render_grid(g, paths, opts).encode())
        g = GridSpec((9, 7))
        traj = simulate(g, Point((2, 3)), ASC2, 100)
        digest.update(render_grid(g, [traj, Trajectory((), ()), *enumerate_paths(g)]).encode())
        assert digest.hexdigest() == (
            "6774296a65b3bf8d89a4b28dd3ff003035ec2ab7984368e3cd65925b16c8f477")


class TestMemory:
    def test_peak_per_drawn_vertex(self):
        # the two open paths of (1000, 999), 999,001 vertices each: the labels
        # are shared strings, so a vertex costs its text and two list slots
        g = GridSpec((1000, 999))
        paths = enumerate_paths(g)
        vertices = sum((p.step_length if p.kind is PathKind.CLOSED else p.step_length // 2) + 1
                       for p in paths)
        assert vertices == 1_998_002
        svg, peak = peak_bytes(lambda: render_grid(g, paths))
        assert svg.count(",") == vertices
        assert peak <= 32 * vertices

    def test_one_axis_of_labels_at_a_time(self):
        # each axis's labels are dropped once assigned into the text, so the
        # peak is the final join (the polylines and the document, about 23 B
        # per vertex), not two columns of references on top of the text
        g = GridSpec((1000, 999))
        paths = enumerate_paths(g)
        svg, peak = peak_bytes(lambda: render_grid(g, paths))
        assert svg.count(",") == 1_998_002
        assert peak <= 25 * 1_998_002


    def test_periodic_trajectory_drawn_from_its_cycles(self):
        # simulate's points are drawn from one position cycle per axis: the
        # same text as a tuple of the same points, without a Point per step
        g = GridSpec((4, 3))
        traj = simulate(g, Point((2, 2)), ASC2, 10**4)
        copy = Trajectory(tuple(traj.points), tuple(traj.states))
        assert render_grid(g, [traj]) == render_grid(g, [copy])
        traj = simulate(g, Point((2, 2)), ASC2, 10**6)
        svg, peak = peak_bytes(lambda: render_grid(g, [traj]))
        assert svg.count(",") == 10**6 + 1
        assert peak <= 40 * 10**6
        with pytest.raises(ValueError, match="arity"):
            render_grid(g, [simulate(GridSpec((4, 3, 2)), Point((2, 2, 2)),
                                     core.DirectionMask((0, 0, 0)), 5)])


class TestErrors:
    def test_rejects_non_planar_grid(self):
        with pytest.raises(ValueError):
            render_grid(GridSpec((2, 2, 2)), [])

    @pytest.mark.parametrize("kind", ["loop", "CLOSED", None])
    def test_rejects_a_path_of_no_kind(self, kind):
        g = GridSpec((6, 4))
        path = enumerate_paths(g)[0]
        with pytest.raises(ValueError, match="kind"):
            render_grid(g, [Path(path.representative, kind, path.step_length, 24)])

    def test_rejects_empty_palette(self):
        with pytest.raises(ValueError):
            render_grid(GridSpec((2, 2)), [], RenderOptions(palette=()))

    def test_empty_palette_refused_on_construction(self):
        with pytest.raises(ValueError, match="empty"):
            RenderOptions(palette=())

    @pytest.mark.parametrize("color", ["", 'red"', "red'", "<script>", "a>b", "&amp;"])
    def test_rejects_palette_markup(self, color):
        with pytest.raises(ValueError, match="palette"):
            RenderOptions(palette=("green", color))

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            RenderOptions(cell_size=0)

    @pytest.mark.parametrize("options", [
        {"cell_size": 1.5}, {"margin": 0.25}, {"cell_size": 40.0}, {"margin": True},
        {"cell_size": "40"},
    ])
    def test_rejects_non_integer_scale(self, options):
        # a fractional scale would write fractional coordinates
        with pytest.raises(ValueError, match="integer"):
            RenderOptions(**options)

    def test_rejects_unknown_items(self):
        with pytest.raises(TypeError):
            render_grid(GridSpec((2, 2)), ["not a path"])

    def test_open_path_that_misses_every_vertex(self):
        # a closed orbit labelled OPEN never reaches a vertex
        g = GridSpec((6, 4))
        (closed,) = [p for p in enumerate_paths(g) if p.kind is PathKind.CLOSED]
        forged = Path(closed.representative, PathKind.OPEN, 24, 12)
        with pytest.raises(ArithmeticError):
            render_grid(g, [forged])

    @pytest.mark.parametrize("dims,path_dims", [((3, 3), (6, 4)), ((6, 4), (6, 4, 2))])
    def test_rejects_paths_of_another_grid(self, dims, path_dims):
        with pytest.raises(ValueError):
            render_grid(GridSpec(dims), enumerate_paths(GridSpec(path_dims)))

    @pytest.mark.parametrize("traj", [
        # a trajectory of a larger grid: x reaches 9 on a grid 6 wide
        simulate(GridSpec((9, 7)), Point((2, 3)), ASC2, 30),
        Trajectory((Point((0, 0)), Point((-1, 0))), (PhaseState((0, 0)),) * 2),
        Trajectory((Point((1, 4)), Point((2, 5))), (PhaseState((1, 4)),) * 2),
        Trajectory((Point((1, True)),), (PhaseState((1, 1)),)),
        Trajectory((Point((1.0, 1)),), (PhaseState((1, 1)),)),
    ], ids=["larger-grid", "negative", "above-top", "bool", "float"])
    def test_rejects_trajectories_off_the_grid(self, traj):
        with pytest.raises(ValueError, match="trajectory"):
            render_grid(GridSpec((6, 4)), [traj])

    def test_vertex_budget(self):
        # two open paths of about 10**12 vertices each, refused before drawing
        g = GridSpec((999983, 999979))
        with pytest.raises(BudgetExceededError):
            render_grid(g, enumerate_paths(g))

    def test_grid_lines_charged(self, monkeypatch):
        # 999,999 interior lines and nothing else to draw: refused before a
        # line is formatted
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 10**6 - 2)
        _, peak = peak_bytes(lambda: render_grid(GridSpec((10**6, 1)), []),
                             raises=BudgetExceededError)
        assert peak < 1 << 16

    def test_budget_counts_lines_and_every_vertex(self, monkeypatch):
        # 6x4: 5 + 3 interior lines, 25 path vertices, 31 trajectory points
        g = GridSpec((6, 4))
        (closed,) = [p for p in enumerate_paths(g) if p.kind is PathKind.CLOSED]
        traj = simulate(g, Point((0, 3)), ASC2, 30)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 8 + 25 + 31)
        assert render_grid(g, [closed, traj]).count("<polyline") == 2
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 8 + 25 + 31 - 1)

        def never(*args):
            raise AssertionError("a trajectory was read past the budget check")

        monkeypatch.setattr(render, "_trajectory_columns", never)
        with pytest.raises(BudgetExceededError):
            render_grid(g, [closed, traj])
