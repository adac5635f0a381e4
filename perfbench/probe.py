"""Set-up probe: import a workload's entry points, build its inputs, say ready.

Run in a fresh interpreter by ``common.SetupProbes``, which times it from
spawn to the ``ready`` line::

    PYTHONPATH=src python3 perfbench/probe.py fig9 29
"""

from __future__ import annotations

import sys


def main(workload: str, seed: int) -> None:
    if workload == "fig9":
        from repro.experiments.socs import figure9_applications, figure9_setup
        from simulate import FIG9_LABELS

        for label in FIG9_LABELS:
            figure9_applications(label, figure9_setup(label, seed=seed), seed=seed)
    elif workload == "dsp_stream":
        from repro.scenarios.registry import get_scenario
        from repro.scenarios.run import run_scenario  # noqa: F401 - the entry point
        from simulate import DSP_SCENARIO

        scenario = get_scenario(DSP_SCENARIO)
        scenario.applications(scenario.build_setup(seed=seed), seed=seed)
    elif workload == "sweep_fanout":
        from repro.experiments.isolation import run_isolation_experiment  # noqa: F401
        from repro.experiments.sweep import ResultCache, SweepRunner  # noqa: F401
        from sweep import Grid

        Grid(seed)
    else:
        raise SystemExit(f"no setup probe for workload {workload!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
