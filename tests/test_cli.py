"""Command-line surface: payloads, exit codes, file output."""

import json

import pytest

from arithbilliards import circseq, cli, render
from arithbilliards.core import DEFAULT_STATE_BUDGET


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

    def test_bad_dims(self, capsys):
        assert run(capsys, "count", "--dims", "6")[0] == 2
        assert run(capsys, "count", "--dims", "6,x")[0] == 2
        assert run(capsys, "count", "--dims", "0,4")[0] == 2


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
    ])
    def test_one_document(self, capsys, argv):
        code, doc = run(capsys, *argv)
        assert code == cli.EXIT_BAD_INPUT == 2
        assert doc["error"]["type"] == "UsageError"
        assert doc["error"]["message"]
        assert "payload" not in doc

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
