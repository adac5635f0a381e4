"""Start the policy server with the tracer's wrappers installed.

Usage (``PYTHONPATH=src``)::

    python3 perfbench/serve_launcher.py TRACE_OUT serve MODEL [serve options]

The arguments after ``TRACE_OUT`` go to ``repro.serving.cli.main`` unchanged.
When the server is interrupted and ``main`` returns, the spans and counters
are written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def main(argv: list) -> int:
    trace_out, serve_args = Path(argv[0]), argv[1:]
    tracer = Tracer().install()
    from repro.serving.cli import main as serving_main

    try:
        code = serving_main(serve_args)
    finally:
        tracer.uninstall()
        trace_out.write_text(json.dumps(tracer.report()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
