"""The command-line boundary shared by every ``python -m repro.*`` entry point.

Each command-line module builds an :mod:`argparse` parser, registers the
function that runs each command with ``set_defaults(run=...)``, and hands
the parser to :func:`run_command`.  That function is the one place where a
failure leaves the process, with these exit codes:

* ``0`` — the command succeeded;
* ``1`` — a check ran and failed (``merge-shards --check``,
  ``perf compare``, ``scenarios gallery --check``,
  ``serving loadtest --slo``); the command says why on its output stream;
* ``2`` — any error: an argparse usage error, or a
  :class:`~repro.errors.ReproError` or :class:`OSError` raised by the
  command, which is printed as one ``error: <message>`` line on stderr.

The flag converters beside it turn a bad number into a usage error before
any command runs.  This module imports only the standard library and
:mod:`repro.errors`, so no entry point's start-up grows through it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, TextIO

from repro.errors import ReproError


def run_command(
    parser: argparse.ArgumentParser,
    argv: Optional[List[str]] = None,
    stream: Optional[TextIO] = None,
) -> int:
    """Parse ``argv``, run the command it selects and return the exit code.

    The command is the ``run`` default its parser registered, called as
    ``run(args, out)`` where ``out`` is ``stream`` or standard output; it
    returns 0, or 1 when a check it ran failed.  A
    :class:`~repro.errors.ReproError` or :class:`OSError` it raises becomes
    one ``error: <message>`` line on standard error and exit code 2, as an
    argparse usage error does.
    """
    args = parser.parse_args(argv)
    try:
        return args.run(args, sys.stdout if stream is None else stream)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def positive_int(text: str) -> int:
    """Argparse type for integer flags that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """Argparse type for a finite number of seconds that must be > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def non_negative_float(text: str) -> float:
    """Argparse type for a finite number of seconds that must be >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


__all__ = ["non_negative_float", "positive_float", "positive_int", "run_command"]
