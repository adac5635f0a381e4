"""Experiment harnesses that regenerate the paper's tables and figures.

Each module reproduces one artefact of the evaluation (see
docs/experiments.md for the experiment index):

* :mod:`repro.experiments.isolation` — Figure 2 (accelerators in isolation)
  and the profiling pass behind the fixed-heterogeneous baseline;
* :mod:`repro.experiments.parallel` — Figure 3 (parallel accelerators);
* :mod:`repro.experiments.phases` — Figure 5 (phase analysis on SoC0);
* :mod:`repro.experiments.reward_dse` — Figure 6 (reward-function DSE);
* :mod:`repro.experiments.breakdown` — Figure 7 (coherence-decision
  breakdown);
* :mod:`repro.experiments.training` — Figure 8 (training-time study);
* :mod:`repro.experiments.socs` — Figure 9 (additional SoCs);
* :mod:`repro.experiments.summary` — the Section 6 headline numbers;
* :mod:`repro.experiments.overhead` — the Cohmeleon-overhead measurement.

All harnesses are deterministic given their seed and accept scaling
parameters.  :mod:`repro.experiments.figures` holds each figure's quick and
paper-scale grid in one table, which both ``python -m repro.experiments
<figure>`` and ``pytest benchmarks`` run.

Every harness accepts an optional ``runner`` (a
:class:`repro.experiments.sweep.SweepRunner`) that fans its grid out over
worker processes and caches job results on disk; the command line exposes
it as ``--workers`` and ``--cache-dir``.
"""

from repro.experiments.common import (
    STANDARD_POLICY_KINDS,
    ExperimentSetup,
    PolicyEvaluation,
    build_runtime,
    evaluate_policies,
    motivation_setup,
    traffic_setup,
)
from repro.experiments.sweep import (
    Job,
    ResultCache,
    SweepResult,
    SweepRunner,
    SweepSpec,
    autodetect_workers,
)

__all__ = [
    "ExperimentSetup",
    "Job",
    "PolicyEvaluation",
    "ResultCache",
    "STANDARD_POLICY_KINDS",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "autodetect_workers",
    "build_runtime",
    "evaluate_policies",
    "motivation_setup",
    "traffic_setup",
]
