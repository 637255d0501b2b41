"""Command-line surface: payloads, exit codes, file output."""

import errno
import json
import os
import subprocess
import sys

import pytest

from arithbilliards import billiards, circseq, cli, core, render, walks
from arithbilliards.core import DEFAULT_STATE_BUDGET
from support import package_env


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1, "expected exactly one JSON document on stdout"
    doc = json.loads(lines[0])
    assert doc["schema_version"] == "1"
    assert "elapsed_ms" in doc
    return code, doc


class TestCount:
    def test_6x4(self, capsys):
        code, doc = run(capsys, "count", "--dims", "6,4")
        payload = doc["payload"]
        assert code == 0
        assert doc["grid"] == {"dims": [6, 4]}
        assert payload["closed"] == 1
        assert payload["open"] == 2
        assert payload["step_length"] == 24
        assert payload["enumeration"]["segments_total"] == 48
        assert payload["consistent"] is True

    def test_4x3x2(self, capsys):
        code, doc = run(capsys, "count", "--dims", "4,3,2")
        payload = doc["payload"]
        assert code == 0
        assert (payload["closed"], payload["open"]) == (2, 4)
        assert payload["step_length"] == 24

    def test_unit_square(self, capsys):
        code, doc = run(capsys, "count", "--dims", "1,1")
        assert code == 0
        assert (doc["payload"]["closed"], doc["payload"]["open"]) == (0, 2)

    def test_budget_still_reports_formula(self, capsys):
        code, doc = run(capsys, "count", "--dims", "3200,3200")
        assert code == 3
        assert doc["payload"]["closed"] == 3199
        assert doc["payload"]["enumeration"] is None
        assert doc["error"]["type"] == "BudgetExceededError"

    def test_bad_dims(self, capsys):
        assert run(capsys, "count", "--dims", "6")[0] == 2
        assert run(capsys, "count", "--dims", "6,x")[0] == 2
        assert run(capsys, "count", "--dims", "0,4")[0] == 2

    def test_grid_beyond_64_bits_is_bad_input(self, capsys):
        # OverflowError is an ArithmeticError, yet it is bad input (2), not a
        # failed self-check (5)
        code, doc = run(capsys, "count", "--dims", "4611686018427387903,4611686018427387901")
        assert code == cli.EXIT_BAD_INPUT == 2
        assert doc["error"]["type"] == "OverflowError"


class TestSimulate:
    def test_octagon(self, capsys):
        code, doc = run(
            capsys, "simulate", "--dims", "4,3", "--start", "2,2", "--steps", "24"
        )
        assert code == 0
        pts = doc["payload"]["points"]
        assert doc["payload"]["closed_at"] == 24
        assert pts[8] == [2, 2]
        assert pts[0] == [2, 2] and pts[24] == [2, 2]

    def test_short_ray(self, capsys):
        code, doc = run(
            capsys, "simulate", "--dims", "6,4", "--start", "0,3", "--steps", "9"
        )
        assert code == 0
        assert doc["payload"]["points"][-1] == [3, 4]
        assert doc["payload"]["closed_at"] is None

    def test_zero_steps(self, capsys):
        code, doc = run(
            capsys, "simulate", "--dims", "6,4", "--start", "1,2", "--steps", "0"
        )
        assert code == 0
        assert doc["payload"]["points"] == [[1, 2]]

    def test_mask_flag(self, capsys):
        code, doc = run(
            capsys, "simulate", "--dims", "6,4", "--start", "0,3",
            "--mask", "+-", "--steps", "2",
        )
        assert code == 0
        assert doc["payload"]["points"] == [[0, 3], [1, 2], [2, 1]]

    def test_all_backward_mask(self, capsys):
        code, doc = run(
            capsys, "simulate", "--dims", "6,4", "--start", "2,2",
            "--mask=--", "--steps", "3",
        )
        assert code == 0
        assert doc["payload"]["points"] == [[2, 2], [1, 1], [0, 0], [1, 1]]

    def test_short_ray_on_long_grid(self, capsys):
        code, doc = run(
            capsys, "simulate", "--dims", "1000000000,2", "--start", "0,0",
            "--steps", "1",
        )
        assert code == 0
        assert doc["payload"]["points"] == [[0, 0], [1, 1]]

    def test_invalid_start(self, capsys):
        assert run(capsys, "simulate", "--dims", "6,4", "--start", "9,9",
                   "--steps", "1")[0] == 2


class TestReach:
    def test_reachable(self, capsys):
        code, doc = run(
            capsys, "reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4"
        )
        assert code == 0
        assert doc["payload"]["reachable"] is True
        assert doc["payload"]["witness_steps"] == 9

    def test_unreachable_any_direction(self, capsys):
        code, doc = run(
            capsys, "reach", "--dims", "6,4", "--from", "0,2", "--to", "3,4",
            "--any-direction",
        )
        assert code == 0
        assert doc["payload"]["reachable"] is False
        assert doc["payload"]["mask"] == "any"

    def test_self_reach(self, capsys):
        code, doc = run(
            capsys, "reach", "--dims", "6,4", "--from", "2,3", "--to", "2,3"
        )
        assert code == 0
        assert doc["payload"]["witness_steps"] == 0

    def test_verify_runs_oracle(self, capsys):
        code, doc = run(
            capsys, "reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4",
            "--verify", "--any-direction",
        )
        assert code == 0
        assert doc["payload"]["oracle_checked"] is True
        assert doc["payload"]["oracle_agrees"] is True

    def test_verify_walks_each_mask_once(self, capsys, monkeypatch):
        # one answer from the merge, and one oracle walk per mask: 2**2 masks
        calls = []
        walk = billiards.light_reachable_oracle

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(billiards, "light_reachable_oracle", counted)
        code, doc = run(
            capsys, "reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4",
            "--verify", "--any-direction",
        )
        assert code == 0
        assert doc["payload"]["oracle_agrees"] is True
        assert len(calls) == 2 ** 2

    def test_verify_compares_the_printed_answer(self, capsys, monkeypatch):
        # the oracle's first least witness over all masks is checked, not each
        # mask's answer: from 0,3 masks ++ and -+ both reach 3,4 in 9 steps
        argv = ["reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4",
                "--verify", "--any-direction"]
        walk = billiards.light_reachable_oracle

        def without_first_mask(grid, source, mask, target):
            if mask.signs == (0, 0):
                return billiards.ReachAnswer(False, None, None)
            return walk(grid, source, mask, target)

        monkeypatch.setattr(billiards, "light_reachable_oracle", without_first_mask)
        code, doc = run(capsys, *argv)
        assert code == 0
        assert doc["payload"]["oracle_agrees"] is True

        def one_step_late(*args):
            ans = walk(*args)
            return billiards.ReachAnswer(True, ans.witness_steps + 1, ans.sign_choice)

        monkeypatch.setattr(billiards, "light_reachable_oracle", one_step_late)
        code, doc = run(capsys, *argv)
        assert code == cli.EXIT_INCONSISTENT == 1
        assert doc["payload"]["oracle_agrees"] is False

    def test_verify_budget(self, capsys, monkeypatch):
        # 4 masks times the period 24 of 6x4 are charged before the first walk
        argv = ["reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4",
                "--verify", "--any-direction"]
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 4 * 24)
        assert run(capsys, *argv)[0] == 0

        def never(*args):
            raise AssertionError("the oracle walked past the budget check")

        monkeypatch.setattr(billiards, "light_reachable_oracle", never)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 4 * 24 - 1)
        code, doc = run(capsys, *argv)
        assert code == cli.EXIT_BUDGET == 3
        assert doc["error"]["type"] == "BudgetExceededError"

    def test_verify_refusal_keeps_law_answer(self, capsys):
        # the oracle's 2*lcm = 17,999,994,000,000 steps are refused; the
        # congruence answer is still reported next to the error, as count does
        argv = ["reach", "--dims", "3000000,2999999", "--from", "0,0", "--to", "1,1"]
        code, law = run(capsys, *argv)
        assert code == 0
        code, doc = run(capsys, *argv, "--verify")
        assert code == cli.EXIT_BUDGET == 3
        assert doc["error"]["type"] == "BudgetExceededError"
        assert doc["payload"]["oracle_checked"] is False
        for key in ("reachable", "witness_steps", "sign_choice"):
            assert doc["payload"][key] == law["payload"][key]
        assert doc["payload"]["reachable"] is True

    @pytest.mark.parametrize("direction", [[], ["--any-direction"]],
                             ids=["one-mask", "any-direction"])
    def test_merge_budget(self, capsys, monkeypatch, direction):
        # refused before the first congruence merge, with or without a mask
        def never(*args):
            raise AssertionError("a congruence was merged past the budget check")

        monkeypatch.setattr(billiards, "_merge_stage", never)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 3)
        code, doc = run(capsys, "reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4",
                        *direction)
        assert code == cli.EXIT_BUDGET == 3
        assert doc["error"]["type"] == "BudgetExceededError"

    @pytest.mark.parametrize("direction", [[], ["--any-direction"]],
                             ids=["one-mask", "any-direction"])
    def test_all_ones_grid_of_arity_62(self, capsys, direction):
        code, doc = run(
            capsys, "reach", "--dims", ",".join(["1"] * 62), "--from", ",".join(["0"] * 62),
            "--to", ",".join(["1"] * 62), *direction,
        )
        assert code == 0
        assert doc["payload"]["witness_steps"] == 1

    def test_all_backward_mask(self, capsys):
        code, doc = run(
            capsys, "reach", "--dims", "6,4", "--from", "1,1", "--to", "2,2",
            "--mask=--",
        )
        assert code == 0
        assert doc["payload"]["mask"] == "--"
        assert doc["payload"]["reachable"] is True
        assert doc["payload"]["witness_steps"] == 3

    def test_bad_point(self, capsys):
        assert run(capsys, "reach", "--dims", "6,4", "--from", "0,9",
                   "--to", "1,1")[0] == 2


class TestOrbits:
    def test_6x4(self, capsys):
        code, doc = run(capsys, "orbits", "--dims", "6,4")
        assert code == 0
        rows = doc["payload"]["orbits"]
        assert [r["size_formula"] for r in rows] == [18, 17]
        assert all(r["agree"] for r in rows)
        assert doc["payload"]["total_points"] == 35

    def test_unit_cube(self, capsys):
        code, doc = run(capsys, "orbits", "--dims", "1,1,1")
        assert code == 0
        rows = doc["payload"]["orbits"]
        assert [r["size_formula"] for r in rows] == [2, 2, 2, 2]
        assert sum(r["size_bruteforce"] for r in rows) == 8

    def test_sizes_sum_to_point_count(self, capsys):
        code, doc = run(capsys, "orbits", "--dims", "5,7,2")
        assert code == 0
        payload = doc["payload"]
        assert sum(r["size_formula"] for r in payload["orbits"]) == payload["total_points"]

    def test_orbit_count_over_budget(self, capsys, monkeypatch):
        # 2**24 orbits on a 25-D grid: refused before any summary is built
        def never(grid, index):
            raise AssertionError("orbit_partition built a summary past its budget check")

        monkeypatch.setattr(walks, "orbit_size", never)
        code, doc = run(capsys, "orbits", "--dims", ",".join(["1"] * 25))
        assert code == cli.EXIT_BUDGET == 3
        assert doc["error"]["type"] == "BudgetExceededError"


class TestGenfunc:
    def test_height4(self, capsys):
        code, doc = run(capsys, "genfunc", "--sign", "+", "--t", "1", "--m", "4")
        assert code == 0
        assert doc["payload"]["numerator_coeffs"] == [1, 2, 3, 4, 3, 2, 1]
        assert doc["payload"]["period"] == 8

    def test_expansion(self, capsys):
        code, doc = run(
            capsys, "genfunc", "--sign", "+", "--t", "3", "--m", "6", "--expand", "12"
        )
        assert code == 0
        assert doc["payload"]["expansion"] == [3, 4, 5, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3]

    def test_minimal_wave(self, capsys):
        code, doc = run(capsys, "genfunc", "--sign", "-", "--t", "0", "--m", "1")
        assert code == 0
        assert doc["payload"]["numerator_coeffs"] == [0, 1]

    def test_bad_first_term(self, capsys):
        assert run(capsys, "genfunc", "--sign", "+", "--t", "5", "--m", "2")[0] == 2


class TestRender:
    def test_all_paths(self, capsys, tmp_path):
        out = tmp_path / "fig.svg"
        code, doc = run(
            capsys, "render", "--dims", "6,4", "--paths", "all", "--out", str(out)
        )
        assert code == 0
        assert doc["payload"]["path_count"] == 3
        data = out.read_bytes()
        assert len(data) == doc["payload"]["bytes"]
        assert data.count(b"<polyline") == 3

    def test_default_options_are_the_library_defaults(self, capsys, tmp_path):
        # without --palette, --cell-size or --margin, the drawing is
        # render_grid's own default one
        out = tmp_path / "fig.svg"
        assert run(capsys, "render", "--dims", "6,4", "--out", str(out))[0] == 0
        g = core.GridSpec((6, 4))
        assert out.read_bytes() == render.render_grid(g, billiards.enumerate_paths(g)).encode()

    def test_no_flags_follow_the_library_defaults(self, capsys, tmp_path, monkeypatch):
        # the CLI holds no copy of RenderOptions' defaults: moved in the
        # library, they move the CLI's drawing with them
        monkeypatch.setattr(render.RenderOptions.__init__, "__defaults__", (7, 3, ("red",)))
        out = tmp_path / "fig.svg"
        assert run(capsys, "render", "--dims", "6,4", "--out", str(out))[0] == 0
        g = core.GridSpec((6, 4))
        expected = render.render_grid(g, billiards.enumerate_paths(g))
        assert 'width="48"' in expected
        assert out.read_bytes() == expected.encode()

    def test_flags_override_the_defaults(self, capsys, tmp_path):
        out = tmp_path / "fig.svg"
        assert run(capsys, "render", "--dims", "6,4", "--out", str(out),
                   "--cell-size", "3", "--margin", "0")[0] == 0
        g = core.GridSpec((6, 4))
        opts = render.RenderOptions(cell_size=3, margin=0)
        assert out.read_bytes() == render.render_grid(g, billiards.enumerate_paths(g), opts).encode()

    def test_closed_only_when_none_exist(self, capsys, tmp_path):
        out = tmp_path / "none.svg"
        code, doc = run(
            capsys, "render", "--dims", "4,3", "--paths", "closed", "--out", str(out)
        )
        assert code == 0
        assert doc["payload"]["path_count"] == 0
        assert out.read_bytes().count(b"<polyline") == 0

    def test_unit_square_closed(self, capsys, tmp_path):
        out = tmp_path / "unit.svg"
        code, doc = run(
            capsys, "render", "--dims", "1,1", "--paths", "closed", "--out", str(out)
        )
        assert code == 0
        assert doc["payload"]["path_count"] == 0

    def test_rejects_3d(self, capsys, tmp_path):
        out = tmp_path / "no.svg"
        assert run(capsys, "render", "--dims", "2,2,2", "--out", str(out))[0] == 2

    def test_unwritable_path(self, capsys, tmp_path):
        out = tmp_path / "missing" / "deep" / "fig.svg"
        assert run(capsys, "render", "--dims", "6,4", "--out", str(out))[0] == 4

    @pytest.mark.parametrize("palette", ['red"/><script>alert(1)</script><x a="', ",", "red,", ""])
    def test_rejects_palette_markup(self, capsys, tmp_path, palette):
        out = tmp_path / "z.svg"
        code, doc = run(capsys, "render", "--dims", "2,2", "--out", str(out),
                        "--palette", palette)
        assert code == cli.EXIT_BAD_INPUT == 2
        assert doc["error"]["type"] == "ValueError"
        assert not out.exists()


class TestRoundTrip:
    def test_simulated_points_are_reach_witnesses(self, capsys):
        _, sim = run(
            capsys, "simulate", "--dims", "6,4", "--start", "0,3", "--steps", "12"
        )
        first_seen = {}
        for k, pt in enumerate(sim["payload"]["points"]):
            first_seen.setdefault(tuple(pt), k)
        for pt, k in first_seen.items():
            _, doc = run(
                capsys, "reach", "--dims", "6,4", "--from", "0,3",
                "--to", f"{pt[0]},{pt[1]}",
            )
            assert doc["payload"]["reachable"] is True
            assert doc["payload"]["witness_steps"] == k


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["count"],
        ["bogus"],
        ["simulate", "--dims", "6,4", "--start", "2,2", "--steps", "3", "--mask", "-+"],
        # --any-direction tries every mask, so a --mask beside it is an error
        *(["reach", "--dims", "6,4", "--from", "0,2", "--to", "3,4", "--any-direction", mask]
          for mask in ("--mask=+x", "--mask=+-+", "--mask=++", "--mask=--")),
    ])
    def test_one_document(self, capsys, argv):
        code, doc = run(capsys, *argv)
        assert code == cli.EXIT_BAD_INPUT == 2
        assert doc["error"]["type"] == "UsageError"
        assert doc["error"]["message"]
        assert "payload" not in doc

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dims", "6,4", "--start", "2,2", "--steps", "3", "--mask=+-+"],
        ["reach", "--dims", "6,4", "--from", "0,2", "--to", "3,4", "--mask=+", "--verify"],
    ])
    def test_wrong_arity_mask(self, capsys, argv):
        # the library's mask check, not the parser, refuses it
        code, doc = run(capsys, *argv)
        assert code == cli.EXIT_BAD_INPUT == 2
        assert doc["error"]["type"] == "ValueError"
        assert "mask arity" in doc["error"]["message"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["-h"])
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestInternalCheck:
    def test_numerator_check(self, capsys, monkeypatch):
        def fail(spec):
            raise ArithmeticError("polynomial division left remainder")

        monkeypatch.setattr(circseq, "numerator_poly", fail)
        code, doc = run(capsys, "genfunc", "--sign", "+", "--t", "3", "--m", "6")
        assert code == cli.EXIT_INTERNAL == 5
        assert doc["error"] == {"type": "ArithmeticError",
                                "message": "polynomial division left remainder"}
        assert "payload" not in doc

    def test_open_path_check(self, capsys, monkeypatch, tmp_path):
        # an open path whose orbit misses every vertex trips the renderer's check
        monkeypatch.setattr(render, "solve_congruences", lambda residues, moduli: None)
        code, doc = run(capsys, "render", "--dims", "6,4", "--out", str(tmp_path / "g.svg"))
        assert code == 5
        assert doc["error"]["type"] == "ArithmeticError"
        assert "vertex" in doc["error"]["message"]


class TestAnyException:
    """Whatever a command raises, the CLI still prints one document."""

    def test_memory_error_is_budget(self, capsys, monkeypatch):
        def exhaust(args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli, "cmd_count", exhaust)
        code, doc = run(capsys, "count", "--dims", "6,4")
        assert code == cli.EXIT_BUDGET == 3
        assert doc["error"] == {"type": "MemoryError", "message": "cannot allocate"}
        assert "payload" not in doc

    def test_other_exception_is_internal(self, capsys, monkeypatch):
        def defect(args):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "cmd_reach", defect)
        code = cli.main(["reach", "--dims", "6,4", "--from", "0,3", "--to", "3,4"])
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert code == cli.EXIT_INTERNAL == 5
        assert doc["error"] == {"type": "KeyError", "message": "'lost'"}
        assert "Traceback" in captured.err and "KeyError" in captured.err


class TestUnwritableStdout:
    """A document that cannot be written to stdout is an I/O error: exit 4,
    one line on stderr, no traceback."""

    @pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                       OSError(errno.ENOSPC, "No space left on device")])
    def test_failed_write_exits_4(self, capsys, monkeypatch, tmp_path, error):
        sink = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class Gone:
            def write(self, text):
                raise error

            flush = write

            def fileno(self):
                return sink

        monkeypatch.setattr(sys, "stdout", Gone())
        try:
            code = cli.main(["count", "--dims", "6,4"])
        finally:
            os.close(sink)
        assert code == cli.EXIT_IO == 4
        assert capsys.readouterr().err.splitlines() == [
            f"arithbilliards: cannot write to stdout: {error}"]

    @pytest.mark.parametrize("stdout", ["closed pipe", "/dev/full"])
    def test_exit_time_flush_stays_silent(self, stdout):
        if stdout == "closed pipe":
            reader, fd = os.pipe()
            os.close(reader)
        elif os.path.exists(stdout):
            fd = os.open(stdout, os.O_WRONLY)
        else:
            pytest.skip(f"no {stdout} on this system")
        try:
            out = subprocess.run([sys.executable, "-m", "arithbilliards.cli", "count", "--dims",
                                  "6,4"], stdout=fd, stderr=subprocess.PIPE, env=package_env(),
                                 text=True, timeout=60)
        finally:
            os.close(fd)
        assert out.returncode == 4
        assert len(out.stderr.splitlines()) == 1, out.stderr
        assert out.stderr.startswith("arithbilliards: cannot write to stdout: ")


class TestGenfuncBudget:
    def test_height_over_budget(self, capsys):
        m = DEFAULT_STATE_BUDGET // 2 + 1
        code, doc = run(capsys, "genfunc", "--sign", "+", "--t", "0", "--m", str(m))
        assert code == cli.EXIT_BUDGET
        assert doc["error"]["type"] == "BudgetExceededError"

    def test_expansion_over_budget(self, capsys):
        code, doc = run(capsys, "genfunc", "--sign", "-", "--t", "1", "--m", "3",
                        "--expand", str(DEFAULT_STATE_BUDGET))
        assert code == cli.EXIT_BUDGET
        assert doc["error"]["type"] == "BudgetExceededError"
