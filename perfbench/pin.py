"""Print the payload digest of simulator workload instances, for ``workloads.json``.

Run from the root of a checkout whenever a change is meant to alter the
simulated results (and say why in the change)::

    python3 perfbench/pin.py fig9 29 0 2 5
    python3 perfbench/pin.py dsp_stream 0 1 2 3
"""

from __future__ import annotations

import json
import sys

from common import SRC


def main(argv: list) -> None:
    sys.path.insert(0, str(SRC))
    import simulate

    workload, seeds = argv[0], [int(seed) for seed in argv[1:]]
    pinned = {}
    for seed in seeds:
        result = simulate.PASSES[workload](seed)
        pinned[str(seed)] = result.digest
        print(f"{workload} seed {seed}: {result.digest} {result.invocations} invocations "
              f"in {result.elapsed_s:.3f}s", file=sys.stderr)
    print(json.dumps(pinned, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
