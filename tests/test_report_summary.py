"""Tests for :mod:`repro.experiments.report` and :mod:`repro.experiments.summary`.

Previously untested: golden-output tests pin the exact table text rendered
from canned results (so formatting regressions are caught byte-for-byte),
and the headline aggregation is checked against hand-computed numbers from
a canned Figure 9 comparison.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ExperimentError
from repro.experiments.common import PolicyEvaluation
from repro.experiments.report import report_headline, report_socs
from repro.experiments.socs import SocComparisonPoint, SocComparisonResult
from repro.experiments.summary import HeadlineSummary, summarize_headline

#: A canned evaluation in the exact JSON form the sweep cache stores.
CANNED_EVALUATION = {
    "policy_name": "cohmeleon",
    "result": {
        "application_name": "canned-app",
        "policy_name": "cohmeleon",
        "phases": [
            {"name": "light", "execution_cycles": 1000.0, "ddr_accesses": 40, "invocations": []},
            {"name": "heavy", "execution_cycles": 3000.0, "ddr_accesses": 160, "invocations": []},
        ],
    },
    "training_results": [],
}


def canned_points():
    """Two SoCs where Cohmeleon beats the reference by known ratios."""
    return [
        SocComparisonPoint("SoC-A", "fixed-non-coh-dma", 1.0, 1.0),
        SocComparisonPoint("SoC-A", "cohmeleon", 0.8, 0.5),
        SocComparisonPoint("SoC-B", "fixed-non-coh-dma", 1.0, 1.0),
        SocComparisonPoint("SoC-B", "cohmeleon", 0.5, 0.25),
    ]


# ----------------------------------------------------------------------
# PolicyEvaluation (canned JSON form)
# ----------------------------------------------------------------------

def test_policy_evaluation_round_trip():
    """from_dict(to_dict(x)) reproduces the canned evaluation exactly."""
    evaluation = PolicyEvaluation.from_dict(CANNED_EVALUATION)
    assert evaluation.policy_name == "cohmeleon"
    assert evaluation.to_dict() == CANNED_EVALUATION


def test_policy_evaluation_per_phase_tables():
    """The per-phase helper properties read the canned phases."""
    evaluation = PolicyEvaluation.from_dict(CANNED_EVALUATION)
    assert evaluation.per_phase_exec == {"light": 1000.0, "heavy": 3000.0}
    assert evaluation.per_phase_ddr == {"light": 40.0, "heavy": 160.0}
    assert evaluation.result.total_execution_cycles == 4000.0
    assert evaluation.result.total_ddr_accesses == 200


# ----------------------------------------------------------------------
# Golden-output formatting
# ----------------------------------------------------------------------

GOLDEN_SOCS = (
    "Figure 9 — additional SoC configurations\n"
    "SoC   | policy            | norm exec time | norm off-chip accesses\n"
    "------+-------------------+----------------+-----------------------\n"
    "SoC-A | fixed-non-coh-dma | 1.000          | 1.000                 \n"
    "SoC-A | cohmeleon         | 0.800          | 0.500                 \n"
    "SoC-B | fixed-non-coh-dma | 1.000          | 1.000                 \n"
    "SoC-B | cohmeleon         | 0.500          | 0.250                 "
)


def test_report_socs_golden():
    """report_socs renders the canned comparison byte-for-byte."""
    result = SocComparisonResult(points=canned_points(), evaluations={})
    assert report_socs(result) == GOLDEN_SOCS


GOLDEN_HEADLINE = (
    "Section 6 — headline summary\n"
    "metric                                                  | value  \n"
    "--------------------------------------------------------+--------\n"
    "average speedup vs fixed policies (%)                   | 62.500 \n"
    "average off-chip access reduction vs fixed policies (%) | 62.500 \n"
    "execution time vs manual heuristic (ratio)              | 0.667  \n"
    "off-chip accesses vs manual heuristic (ratio)           | 0.456  \n"
    "speedup on SoC-A (%)                                    | 25.000 \n"
    "speedup on SoC-B (%)                                    | 100.000"
)


def test_report_headline_golden():
    """report_headline renders a canned summary byte-for-byte."""
    summary = HeadlineSummary(
        speedup_vs_fixed=0.625,
        mem_reduction_vs_fixed=0.625,
        exec_vs_manual=0.6666666,
        mem_vs_manual=0.4564355,
        per_soc_speedup={"SoC-A": 0.25, "SoC-B": 1.0},
        per_soc_mem_reduction={"SoC-A": 0.5, "SoC-B": 0.75},
    )
    assert report_headline(summary) == GOLDEN_HEADLINE



# ----------------------------------------------------------------------
# Headline aggregation
# ----------------------------------------------------------------------

def test_summarize_headline_hand_computed():
    """The headline numbers match a hand-computed canned comparison."""
    points = canned_points() + [
        SocComparisonPoint("SoC-A", "manual", 0.9, 0.6),
        SocComparisonPoint("SoC-B", "manual", 1.0, 1.0),
    ]
    summary = summarize_headline(SocComparisonResult(points=points, evaluations={}))
    # Per SoC: geomean speedup over the only fixed policy present.
    assert summary.per_soc_speedup["SoC-A"] == pytest.approx(1.0 / 0.8 - 1.0)
    assert summary.per_soc_speedup["SoC-B"] == pytest.approx(1.0)
    assert summary.speedup_vs_fixed == pytest.approx((0.25 + 1.0) / 2.0)
    assert summary.per_soc_mem_reduction == pytest.approx({"SoC-A": 0.5, "SoC-B": 0.75})
    assert summary.mem_reduction_vs_fixed == pytest.approx(0.625)
    # Against the manual heuristic: geometric means of the per-SoC ratios.
    assert summary.exec_vs_manual == pytest.approx(math.sqrt((0.8 / 0.9) * 0.5))
    assert summary.mem_vs_manual == pytest.approx(math.sqrt((0.5 / 0.6) * 0.25))


def test_summarize_headline_requires_points():
    """An empty comparison is an explicit error, not NaNs."""
    with pytest.raises(ExperimentError):
        summarize_headline(SocComparisonResult(points=[], evaluations={}))


def test_summarize_headline_requires_subject_policy():
    """A SoC without the subject policy's point is an explicit error."""
    points = [SocComparisonPoint("SoC-A", "fixed-non-coh-dma", 1.0, 1.0)]
    with pytest.raises(ExperimentError):
        summarize_headline(SocComparisonResult(points=points, evaluations={}))
