"""Run one CLI command with span tracing, for the traced ``cli_batch`` pass.

Usage: ``python perfbench/traced_cli.py SPANS_FILE OP_ID CLI_ARG...`` with
``src`` on ``PYTHONPATH``.  Stdout and the exit code are those of
``arithbilliards.cli``; the spans go to SPANS_FILE when the command ends.
"""

import sys

import tracing
from arithbilliards import cli


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.op = op_id
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
