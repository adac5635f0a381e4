"""Figures 2-9 and the Section 6 overhead measurement, checked for shape.

Each test runs one entry of :data:`repro.experiments.figures.FIGURES` at
its quick scale, serially and without a cache.  It writes the report to
``benchmarks/results/<figure>.txt``, the bytes ``python -m
repro.experiments <figure>`` prints above its ``[sweep]`` line, and checks
the shape of the result against what the paper reports.  Paper scale,
workers and caching are the CLI's ``--full``, ``--workers`` and
``--cache-dir``.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.isolation import best_mode_per_workload
from repro.experiments.parallel import degradation_summary, normalize_parallel
from repro.experiments.summary import summarize_headline
from repro.soc.coherence import CoherenceMode
from repro.utils.stats import mean


def _check_isolation(measurements):
    # The headline observation of Section 3: the best mode is not the same
    # for every (accelerator, size) pair.
    assert len(set(best_mode_per_workload(measurements).values())) >= 2


def _check_parallel(measurements):
    # Every mode degrades with concurrency, and coherent DMA degrades more
    # than non-coherent DMA.
    table = normalize_parallel(measurements)
    slowdown = degradation_summary(measurements)
    coh, non_coh = CoherenceMode.COH_DMA.label, CoherenceMode.NON_COH_DMA.label
    assert table[12][coh]["exec"] > table[1][coh]["exec"]
    assert slowdown[coh] > slowdown[non_coh]


def _check_phases(result):
    # Cohmeleon stays competitive with the best policy in every phase (the
    # paper: it matches or improves on the best execution time).
    for phase in result.phase_names:
        best_exec = min(entry["exec"] for entry in result.table[phase].values())
        assert result.table[phase]["cohmeleon"]["exec"] <= best_exec * 1.35


def _check_reward_dse(result):
    # The learned policies cluster at low execution time and low off-chip
    # accesses relative to the fixed non-coherent baseline.
    points = result.cohmeleon_points()
    assert points
    assert mean([point.norm_mem for point in points]) <= 1.05


def _check_breakdown(result):
    # Both policies made decisions, and every frequency row is a
    # probability distribution.
    assert result.breakdowns["cohmeleon"].frequencies["All"]
    assert result.breakdowns["manual"].frequencies["All"]
    for breakdown in result.breakdowns.values():
        for frequencies in breakdown.frequencies.values():
            assert abs(sum(frequencies.values()) - 1.0) < 1e-9


def _check_training(result):
    # Training does not leave the policy worse than the untrained model,
    # and each budget is evaluated after every iteration.
    for budget, curve in result.curves.items():
        assert curve.final_point().norm_exec <= curve.initial_point().norm_exec * 1.10
        assert len(curve.points) == budget + 1


def _check_socs(comparison):
    # Cohmeleon improves on the fixed policies on average (the paper
    # reports a 38% speedup and 66% fewer off-chip accesses; the
    # magnitudes depend on the platform), and stays close to the
    # manually tuned heuristic's execution time.
    summary = summarize_headline(comparison)
    assert summary.speedup_vs_fixed > 0.0
    assert summary.mem_reduction_vs_fixed > 0.0
    assert summary.exec_vs_manual < 1.25


def _check_overhead(measurements):
    # The overhead falls as the footprint grows and is small at the largest.
    assert measurements[0].overhead_fraction > measurements[-1].overhead_fraction
    assert measurements[-1].overhead_fraction < 0.01


CHECKS = {
    "isolation": _check_isolation,
    "parallel": _check_parallel,
    "phases": _check_phases,
    "reward_dse": _check_reward_dse,
    "breakdown": _check_breakdown,
    "training": _check_training,
    "socs": _check_socs,
    "overhead": _check_overhead,
}


@pytest.mark.parametrize("figure", list(FIGURES))
def test_figure(figure, emit):
    result, report = FIGURES[figure](False, None, None)
    emit(figure, report)
    CHECKS[figure](result)
