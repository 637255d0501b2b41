"""Package surface: lazily loaded top-level names, the modules a command
loads at start-up, and the contract every value type keeps."""

import pickle
import subprocess
import sys

import pytest

import arithbilliards
from arithbilliards import billiards, circseq, render, walks
from arithbilliards.billiards import Path, PathKind, ReachAnswer, Trajectory
from arithbilliards.circseq import IntPolynomial, RationalGF, SeqSpec
from arithbilliards.core import (
    DirectionMask,
    Frozen,
    GridSpec,
    OrbitIndex,
    PhaseState,
    Point,
)
from arithbilliards.render import RenderOptions
from arithbilliards.walks import OrbitSummary
from support import package_env

class TestLazyNames:
    def test_every_public_name_resolves(self):
        homes = {billiards, circseq, render, walks, arithbilliards.core}
        for name in arithbilliards.__all__:
            value = getattr(arithbilliards, name)
            assert any(getattr(mod, name, None) is value for mod in homes), name

    def test_dir_lists_public_names(self):
        assert set(arithbilliards.__all__) <= set(dir(arithbilliards))

    def test_star_import(self):
        namespace = {}
        exec("from arithbilliards import *", namespace)
        assert set(arithbilliards.__all__) <= set(namespace)
        assert namespace["render_grid"] is render.render_grid

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            arithbilliards.no_such_name  # noqa: B018
        assert not hasattr(arithbilliards, "no_such_name")


def loaded_modules(*argv):
    """Module names a fresh interpreter holds after ``import arithbilliards.cli``
    and then, when ``argv`` is given, one CLI command."""
    script = (
        "import sys\n"
        "from arithbilliards import cli\n"
        f"argv = {list(argv)!r}\n"
        "code = cli.main(argv) if argv else 0\n"
        "print(*sorted(sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=package_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    return set(out.stderr.splitlines()[-1].split())


# The library modules each command loads beyond the package, ``cli`` and ``core``.
COMMAND_MODULES = [
    (["count", "--dims", "6,4"], {"billiards", "kernels"}),
    (["simulate", "--dims", "6,4", "--start", "0,3", "--steps", "5"], {"billiards", "kernels"}),
    (["reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4"], {"billiards", "kernels"}),
    (["orbits", "--dims", "6,4"], {"walks", "kernels"}),
    (["genfunc", "--sign", "+", "--t", "1", "--m", "3", "--expand", "8"], {"circseq"}),
    (["render", "--dims", "6,4", "--out", "OUT"], {"billiards", "kernels", "render"}),
]


class TestStartupImports:
    def test_cli_import_loads_only_core(self):
        loaded = loaded_modules()
        assert sorted(m for m in loaded if m.startswith("arithbilliards")) == [
            "arithbilliards", "arithbilliards.cli", "arithbilliards.core"]
        assert not loaded & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("argv,modules", COMMAND_MODULES, ids=[a[0] for a, _ in COMMAND_MODULES])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, modules):
        argv = [str(tmp_path / "g.svg") if a == "OUT" else a for a in argv]
        loaded = {m for m in loaded_modules(*argv) if m.startswith("arithbilliards.")}
        assert loaded == {f"arithbilliards.{m}" for m in {"cli", "core", *modules}}


# One instance of each value type, built by keyword.
VALUES = [
    (GridSpec, {"dims": (6, 4)}),
    (Point, {"coords": (1, 2)}),
    (PhaseState, {"residues": (1, 2)}),
    (DirectionMask, {"signs": (0, 1)}),
    (OrbitIndex, {"bits": (1,)}),
    (Path, {"representative": PhaseState((0, 1)), "kind": PathKind.OPEN,
            "step_length": 24, "distinct_segments": 12}),
    (Trajectory, {"points": (Point((0, 0)),), "states": (PhaseState((0, 0)),)}),
    (ReachAnswer, {"reachable": True, "witness_steps": 3, "sign_choice": (0, 1)}),
    (IntPolynomial, {"coeffs": (1, 0, 2)}),
    (RationalGF, {"numerator": IntPolynomial((1, 1)), "period": 4}),
    (SeqSpec, {"sign": "-", "first_term": 1, "height": 3}),
    (OrbitSummary, {"index": OrbitIndex((0,)), "size": 5, "sample": Point((0, 0))}),
    (RenderOptions, {"cell_size": 10, "margin": 0, "palette": ("red",)}),
]


def test_values_cover_every_value_type():
    assert {cls for cls, _ in VALUES} == set(Frozen.__subclasses__())


class TestValueTypes:
    @pytest.mark.parametrize("cls,fields", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
    def test_contract(self, cls, fields):
        value = cls(**fields)
        same = cls(*fields.values())
        assert value == same and not value != same
        assert hash(value) == hash(same)
        assert [getattr(value, name) for name in fields] == list(fields.values())
        assert repr(value) == f"{cls.__name__}(" + ", ".join(
            f"{name}={v!r}" for name, v in fields.items()) + ")"
        for name, v in fields.items():
            with pytest.raises(AttributeError):
                setattr(value, name, v)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        restored = pickle.loads(pickle.dumps(value))
        assert type(restored) is cls and restored == value
        assert {value: 1}[same] == 1

    def test_equality_needs_the_same_class(self):
        assert Point((1, 2)) != PhaseState((1, 2))
        assert Point((1, 2)) != (1, 2)
        assert Point((1, 2)) != Point((2, 1))

    def test_render_options_defaults(self):
        assert RenderOptions() == RenderOptions(40, 20, ("green", "blue", "red"))
        assert RenderOptions(margin=5) == RenderOptions(cell_size=40, margin=5)
        assert RenderOptions(palette=["red"]).palette == ("red",)
