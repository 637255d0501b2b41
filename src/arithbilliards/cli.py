"""Command-line interface.

Every command writes exactly one JSON document to stdout (SVG bytes go only
to ``--out`` files) and exits with: 0 ok, 1 consistency-check failure,
2 bad input (argument errors included, as ``error.type`` "UsageError"),
3 budget exceeded (``MemoryError`` included), 4 I/O error, 5 internal error
(a failed library self-check or any other exception; the traceback goes to
stderr).  A stdout that cannot be written (a closed pipe, a full disk) exits 4
with one stderr line.  Only ``-h`` prints help text instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from arithbilliards.core import BudgetExceededError, DirectionMask, GridSpec, Point

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _mask(grid: GridSpec, text: str | None) -> DirectionMask:
    return DirectionMask.ascending(grid.p) if text is None else DirectionMask.parse(text)


# Each command imports the library modules it runs, so that a process loads
# no more than its command needs.  Calls go through module attributes
# (``billiards.light_reachable``), which tracers and tests may replace.

def cmd_count(args) -> tuple[dict, int]:
    from arithbilliards import billiards

    grid = GridSpec(args.dims)
    closed = billiards.count_closed(grid)
    opened = billiards.count_open(grid)
    k = billiards.step_length(grid)
    payload = {
        "closed": closed,
        "open": opened,
        "step_length": k,
        "geometric_length": {
            "steps": k,
            "per_step": f"sqrt({grid.p})",
            "approx": billiards.geometric_length(grid),
        },
        "gcd_or_lcm_details": {
            "gcd": grid.gcd,
            "lcm": grid.lcm,
            "dims_product": math.prod(grid.dims),
        },
        "enumeration": None,
        "consistent": None,
    }
    try:
        paths = billiards.enumerate_paths_exhaustive(grid)
    except BudgetExceededError as exc:
        # refused with the closed forms in hand: main reports both
        exc.payload = payload
        raise
    enum_closed = sum(1 for p in paths if p.kind is billiards.PathKind.CLOSED)
    enum_open = sum(1 for p in paths if p.kind is billiards.PathKind.OPEN)
    payload["enumeration"] = {
        "closed": enum_closed,
        "open": enum_open,
        "segments_total": sum(p.distinct_segments for p in paths),
    }
    payload["consistent"] = (enum_closed == closed and enum_open == opened)
    return payload, EXIT_OK if payload["consistent"] else EXIT_INCONSISTENT


def cmd_simulate(args) -> tuple[dict, int]:
    from arithbilliards import billiards

    grid = GridSpec(args.dims)
    start = Point(_parse_ints(args.start, "--start"))
    mask = _mask(grid, args.mask)
    traj = billiards.simulate(grid, start, mask, args.steps)
    # every trajectory first closes its loop after 2*lcm(dims) steps
    period = billiards.step_length(grid)
    payload = {
        "points": list(map(list, traj.points.rows())),
        "closed_at": period if period <= args.steps else None,
    }
    return payload, EXIT_OK


def cmd_reach(args) -> tuple[dict, int]:
    from arithbilliards import billiards

    grid = GridSpec(args.dims)
    source = Point(_parse_ints(args.src, "--from"))
    target = Point(_parse_ints(args.to, "--to"))
    if args.any_direction:
        ans = billiards.light_reachable_any(grid, source, target)
    else:
        mask = _mask(grid, args.mask)
        ans = billiards.light_reachable(grid, source, mask, target)
    payload = {
        "reachable": ans.reachable,
        "witness_steps": ans.witness_steps,
        "sign_choice": list(ans.sign_choice) if ans.sign_choice is not None else None,
        "mask": "any" if args.any_direction else mask.to_string(),
        "oracle_checked": False,
    }
    if args.verify:
        try:  # the oracle charges its walks before the first one
            oracle = (billiards.light_reachable_any_oracle(grid, source, target)
                      if args.any_direction
                      else billiards.light_reachable_oracle(grid, source, mask, target))
        except BudgetExceededError as exc:
            exc.payload = payload  # refused with the law's answer in hand, as in count
            raise
        payload["oracle_checked"] = True
        payload["oracle_agrees"] = oracle == ans
    return payload, EXIT_OK if payload.get("oracle_agrees", True) else EXIT_INCONSISTENT


def cmd_orbits(args) -> tuple[dict, int]:
    from arithbilliards import walks

    grid = GridSpec(args.dims)
    summaries = walks.orbit_partition(grid)
    try:
        brute = walks.orbit_sizes_bruteforce(grid)
    except BudgetExceededError:
        brute = None
    rows = []
    all_agree = True
    for summary in summaries:
        row = {
            "index": list(summary.index.bits),
            "size_formula": summary.size,
            "size_bruteforce": None,
            "agree": None,
        }
        if brute is not None:
            row["size_bruteforce"] = brute.get(summary.index.bits, 0)
            row["agree"] = row["size_bruteforce"] == summary.size
            all_agree = all_agree and row["agree"]
        rows.append(row)
    payload = {"orbits": rows, "total_points": grid.n_points}
    return payload, EXIT_OK if all_agree else EXIT_INCONSISTENT


def cmd_genfunc(args) -> tuple[dict, int]:
    from arithbilliards import circseq

    spec = circseq.SeqSpec(sign=args.sign, first_term=args.t, height=args.m)
    gf = circseq.gen_function(spec)
    payload = {
        "sign": spec.sign,
        "t": spec.first_term,
        "m": spec.height,
        "numerator_coeffs": list(gf.numerator.coeffs),
        "period": gf.period,
    }
    if args.expand is not None:
        if args.expand < 0:
            raise ValueError(f"--expand must be >= 0, got {args.expand}")
        payload["expansion"] = circseq.series_expand(gf, args.expand)
    return payload, EXIT_OK


def cmd_render(args) -> tuple[dict, int]:
    from arithbilliards import billiards, render

    grid = GridSpec(args.dims)
    if grid.p != 2:
        raise ValueError(f"render requires a 2-D grid, got {grid.p} dimensions")
    paths = billiards.enumerate_paths(grid)
    if args.paths != "all":
        paths = [p for p in paths if p.kind == args.paths]
    # RenderOptions holds the one set of defaults: pass only the options given
    given = {"cell_size": args.cell_size, "margin": args.margin,
             "palette": None if args.palette is None else args.palette.split(",")}
    opts = render.RenderOptions(**{k: v for k, v in given.items() if v is not None})
    svg = render.render_grid(grid, paths, opts)
    data = svg.encode("utf-8")
    with open(args.out, "wb") as fh:
        fh.write(data)
    payload = {"file": args.out, "path_count": len(paths), "bytes": len(data)}
    return payload, EXIT_OK


class _MaskAction(argparse.Action):
    """Store a ``--mask`` value as given.

    argparse before Python 3.12 strips a ``--`` argument, so ``--mask=--``
    (the all-backward 2-D mask) arrives here as an empty list.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


class UsageError(Exception):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raise :class:`UsageError` on bad arguments instead of exiting, so that
    :func:`main` still writes its JSON document.  Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arithbilliards",
        description="Arithmetic billiards on integer grids: counting, simulation, "
        "reachability, walk orbits, generating functions, SVG rendering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed/open path counts with enumeration cross-check")
    p.add_argument("--dims", required=True, help="grid dimensions, e.g. 6,4")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("simulate", help="walk a trajectory and report visited points")
    p.add_argument("--dims", required=True)
    p.add_argument("--start", required=True, help="start point, e.g. 2,2")
    p.add_argument("--mask", action=_MaskAction,
                   help="initial directions as +/- per coordinate (default all +)")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reach", help="can the light from one point pass through another?")
    p.add_argument("--dims", required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", required=True)
    directions = p.add_mutually_exclusive_group()
    directions.add_argument("--mask", action=_MaskAction,
                            help="source directions as +/- (default all +)")
    directions.add_argument("--any-direction", action="store_true",
                            help="try every initial direction mask")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the full-period iteration oracle")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("orbits", help="diagonal-walk orbit sizes by parity index")
    p.add_argument("--dims", required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("genfunc", help="triangle-wave generating function")
    p.add_argument("--sign", required=True, choices=["+", "-"])
    p.add_argument("--t", type=int, required=True, help="first term")
    p.add_argument("--m", type=int, required=True, help="wave height")
    p.add_argument("--expand", type=int, help="also expand the series up to x**N")
    p.set_defaults(func=cmd_genfunc)

    p = sub.add_parser("render", help="write an SVG drawing of a 2-D grid")
    p.add_argument("--dims", required=True)
    p.add_argument("--out", required=True, help="output SVG file")
    p.add_argument("--paths", choices=["all", "open", "closed"], default="all")
    p.add_argument("--cell-size", type=int, help="pixels per grid cell")
    p.add_argument("--margin", type=int, help="pixels around the grid")
    p.add_argument("--palette", help="comma-separated stroke colors")
    p.set_defaults(func=cmd_render)
    return parser


# Exit code per exception type; the first match wins.  OverflowError (a grid
# beyond the 64-bit input limit) must precede ArithmeticError, which is a
# library self-check (walk replay, open-path vertex) finding a wrong result.
# Anything unmatched is a defect.
_EXIT_CODES = (
    ((UsageError, ValueError, OverflowError), EXIT_BAD_INPUT),
    ((BudgetExceededError, MemoryError), EXIT_BUDGET),
    (OSError, EXIT_IO),
    (ArithmeticError, EXIT_INTERNAL),
)


def main(argv=None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    doc = {"schema_version": SCHEMA_VERSION, "command": None, "grid": None}
    try:
        args = parser.parse_args(argv)
        doc["command"] = args.command
        if getattr(args, "dims", None) is not None:
            args.dims = _parse_ints(args.dims, "--dims")
            doc["grid"] = {"dims": list(args.dims)}
        doc["payload"], code = args.func(args)
    except Exception as exc:
        code = next((c for types, c in _EXIT_CODES if isinstance(exc, types)), None)
        if code is None:
            # still one document, with the traceback on stderr (imported
            # here to keep it out of every command's start-up)
            import traceback

            traceback.print_exc()
            code = EXIT_INTERNAL
        if hasattr(exc, "payload"):
            doc["payload"] = exc.payload
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return _emit(doc, started, code)


def _emit(doc: dict, started: float, code: int) -> int:
    doc["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    try:
        print(json.dumps(doc), flush=True)
    except OSError as exc:
        # stdout is gone: aim it at the null device, so the flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"arithbilliards: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
