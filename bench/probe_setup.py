"""Run the hpclease CLI in a fresh interpreter up to its first trace draw.

Usage: python3 bench/probe_setup.py <cli arguments...>

Prints ``time.monotonic()`` at the moment the CLI first calls
``generate_trace`` and exits 0. The caller launches this script, notes
``time.monotonic()`` before the launch and takes the difference: interpreter
start, the import of ``hpclease.cli``, argument parsing and scenario
validation. Exits 1 if the CLI returns without drawing a trace.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class _TraceDrawReached(BaseException):
    """Unwinds the CLI at its first trace draw."""


def _stop(*args, **kwargs):
    raise _TraceDrawReached(time.monotonic())


def main(argv: list[str]) -> int:
    from hpclease import cli, env

    from tracer import rebind

    rebind(env.generate_trace, _stop)
    try:
        cli.main(argv)
    except _TraceDrawReached as reached:
        print(repr(reached.args[0]))
        return 0
    print("the CLI returned without drawing a trace", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
