"""One benchmark run inside a fresh interpreter.

The parent (run.py) starts this script and timestamps the spawn.  The worker
imports ``quotientfree.cli``, calls ``build_parser()``, and writes ``ready``
on its real stdout: that line ends the set-up interval.  It then plays passes
of the workload's seeded queries through ``cli.main(argv)`` in process (see
player.py) and writes one JSON report line on its real stdout.

With ``--probe`` it exits right after ``ready``; run.py uses probes for
extra set-up samples.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory that holds the quotientfree package")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans to this CSV file")
    parser.add_argument("--digests", action="store_true",
                        help="report the digest of every query's result, for pinning")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import quotientfree.cli as cli

    cli.build_parser()
    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()
    if args.probe:
        return 0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"quotientfree was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import mpmath
    from player import run

    report = run(cli, args)
    report["mpmath_backend"] = mpmath.libmp.BACKEND
    channel.write(json.dumps(report) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
