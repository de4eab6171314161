"""Command-line interface: ``repro-compass`` / ``python -m repro.cli``.

One module per command family, each with a ``register(sub)``:

* :mod:`~repro.cli.sim` — ``info``, ``compile``, ``run``, ``exec``,
  ``macaque``, ``export``, ``figures``;
* :mod:`~repro.cli.check` — ``check lint|flow|races|model``;
* :mod:`~repro.cli.resilience` — ``resilience inject|report``;
* :mod:`~repro.cli.obs` — ``obs trace|metrics|diff|journey|analyze|
  flame|prof|why``;
* :mod:`~repro.cli.serve` — ``serve run|submit|report``,
  ``shard run|report``.

:mod:`~repro.cli.common` holds what they share: the argument groups, the
run-request builders and the ``--out`` writer.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli import check, obs, resilience, serve, sim
from repro.errors import ReproError
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-compass",
        description="Compass/TrueNorth reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (sim, check, resilience, obs, serve):
        family.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.trace and not args.stats:
        # Reject the misconfiguration before any work happens, not after
        # the (possibly long) run has already completed.
        parser.error("--trace requires --stats (spike recording)")
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; exit
        # quietly like any well-behaved filter.  Detach stdout so the
        # interpreter's shutdown flush doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
