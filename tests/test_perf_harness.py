"""Tests for the ``repro.perf`` harness: benchmarks, reports, gates, CLI.

The end-to-end benchmark is exercised by the CI bench lane (it would be
too slow here); these tests cover the cheap benchmarks and all of the
report/compare machinery the performance contract relies on.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.perf import (
    BENCHMARK_NAMES,
    compare_reports,
    load_report,
    make_report,
    run_benchmark,
    run_benchmarks,
    write_report,
)
from repro.perf import bench
from repro.perf.bench import BenchmarkResult
from repro.perf.cli import main
from repro.perf.compare import render_findings
from repro.perf.report import speedup_summary

COMMITTED_RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestBenchmarks:
    def test_known_benchmark_names(self):
        assert set(BENCHMARK_NAMES) == {
            "engine_events",
            "memory_access",
            "noc_routing",
            "qlearning_step",
            "serving",
            "fig9_headline",
        }

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            run_benchmark("warp_drive", quick=True)
        with pytest.raises(ConfigurationError):
            run_benchmarks(names=["warp_drive"], quick=True)

    @pytest.mark.parametrize("name", ["engine_events", "noc_routing", "memory_access"])
    def test_work_and_checksum_are_deterministic(self, name):
        first = run_benchmark(name, quick=True)
        second = run_benchmark(name, quick=True)
        assert first.work == second.work > 0
        assert first.checksum == second.checksum
        assert first.rate > 0

    @pytest.mark.parametrize("name", ["engine_events", "qlearning_step"])
    def test_matches_the_committed_quick_baseline(self, name):
        committed = load_report(COMMITTED_RESULTS / "BENCH_core_hotpaths_quick.json")
        entry = committed["benchmarks"][name]
        result = run_benchmark(name, quick=True)
        assert (result.work, result.checksum) == (entry["work"], entry["checksum"])

    def test_progress_callback_and_ordering(self):
        seen = []
        results = run_benchmarks(
            names=["noc_routing", "engine_events"],
            quick=True,
            progress=lambda name, result: seen.append(name),
        )
        # Canonical order, not request order.
        assert [r.name for r in results] == ["engine_events", "noc_routing"]
        assert seen == ["engine_events", "noc_routing"]


def _report(scale="quick", **rates):
    benchmarks = {
        name: {
            "wall_s": 1.0,
            "work": 100,
            "unit": "ops",
            "rate": rate,
            "checksum": f"cs-{name}",
        }
        for name, rate in rates.items()
    }
    return {
        "schema": "repro-perf/1",
        "scale": scale,
        "python": "3.11",
        "platform": "test",
        "benchmarks": benchmarks,
    }


class TestCompare:
    def test_identical_reports_pass(self):
        old = _report(a=100.0, b=50.0)
        findings = compare_reports(old, copy.deepcopy(old), tolerance=0.2)
        assert all(f.ok for f in findings)
        assert "ok" in render_findings(findings)

    def test_rate_regression_beyond_tolerance_fails(self):
        old = _report(a=100.0)
        new = _report(a=70.0)
        findings = compare_reports(old, new, tolerance=0.2)
        assert [f.ok for f in findings] == [False]
        assert findings[0].kind == "rate"

    def test_rate_regression_within_tolerance_passes(self):
        findings = compare_reports(_report(a=100.0), _report(a=85.0), tolerance=0.2)
        assert [f.ok for f in findings] == [True]

    def test_checksum_change_is_a_determinism_failure(self):
        old = _report(a=100.0)
        new = _report(a=100.0)
        new["benchmarks"]["a"]["checksum"] = "different"
        findings = compare_reports(old, new, tolerance=0.2)
        assert [f.kind for f in findings] == ["determinism"]
        assert not findings[0].ok
        # ... unless the determinism gate is explicitly waived.
        waived = compare_reports(old, new, tolerance=0.2, check_determinism=False)
        assert all(f.ok for f in waived)

    def test_work_count_drift_is_a_determinism_failure(self):
        # Work-count drift means the revisions simulated different things —
        # it must fail the gate even when the checksum happens to match and
        # the rate looks better.
        old = _report(a=100.0)
        new = _report(a=500.0)
        new["benchmarks"]["a"]["work"] = 101
        findings = compare_reports(old, new, tolerance=0.2)
        assert [f.kind for f in findings] == ["determinism"]
        assert not findings[0].ok
        assert "work 100 -> 101" in findings[0].message
        waived = compare_reports(old, new, tolerance=0.2, check_determinism=False)
        assert all(f.ok for f in waived)

    def test_determinism_failure_short_circuits_the_rate_gate(self):
        # A determinism failure makes timings incomparable: exactly one
        # finding per drifted benchmark, and no rate verdict for it.
        old = _report(a=100.0)
        new = _report(a=1.0)  # would also fail the rate gate
        new["benchmarks"]["a"]["work"] = 7
        findings = compare_reports(old, new, tolerance=0.2)
        assert [(f.kind, f.ok) for f in findings] == [("determinism", False)]

    def test_rate_improvement_passes_and_is_reported(self):
        # The rate gate is one-sided: only regressions fail, a speedup is
        # reported with its ratio.
        findings = compare_reports(_report(a=100.0), _report(a=300.0), tolerance=0.2)
        assert [f.ok for f in findings] == [True]
        assert "3.00x" in findings[0].message

    def test_missing_and_new_benchmarks(self):
        old = _report(a=100.0, gone=10.0)
        new = _report(a=100.0, fresh=1.0)
        by_name = {f.name: f for f in compare_reports(old, new, tolerance=0.2)}
        assert by_name["gone"].ok is False and by_name["gone"].kind == "missing"
        assert by_name["fresh"].ok is True and by_name["fresh"].kind == "new"

    def test_scale_mismatch_fails(self):
        findings = compare_reports(
            _report(scale="quick", a=1.0), _report(scale="default", a=1.0), tolerance=0.2
        )
        assert [f.kind for f in findings] == ["scale"]

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_reports(_report(a=1.0), _report(a=1.0), tolerance=1.5)


class TestReport:
    def test_round_trip_and_speedups(self, tmp_path):
        results = run_benchmarks(names=["engine_events"], quick=True)
        before = make_report(results, scale="quick")
        slower = copy.deepcopy(before)
        slower["benchmarks"]["engine_events"]["rate"] = (
            before["benchmarks"]["engine_events"]["rate"] / 2.0
        )
        report = make_report(results, scale="quick", before=slower)
        assert report["speedup_vs_before"]["engine_events"] == pytest.approx(2.0, rel=0.01)

        path = tmp_path / "report.json"
        write_report(report, path)
        assert load_report(path)["benchmarks"] == report["benchmarks"]

    def test_load_rejects_missing_and_invalid(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_report(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_report(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ConfigurationError):
            load_report(wrong)

    def test_speedup_summary_skips_unmatched(self):
        assert speedup_summary(_report(a=50.0), _report(a=100.0, b=1.0)) == {"a": 2.0}


class TestCli:
    def test_run_compare_profile_flow(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["run", "--quick", "--only", "engine_events", "--out", str(out)]) == 0
        assert out.is_file()
        assert main(["compare", str(out), str(out), "--tolerance", "0.2"]) == 0
        assert "all benchmarks within tolerance" in capsys.readouterr().out

        report = load_report(out)
        report["benchmarks"]["engine_events"]["rate"] = 1e-9
        slow = tmp_path / "slow.json"
        write_report(report, slow)
        assert main(["compare", str(out), str(slow), "--tolerance", "0.2"]) == 1

        assert main(["profile", "engine_events", "--quick", "--limit", "5"]) == 0
        assert "benchmark engine_events" in capsys.readouterr().out

    def test_run_with_before_embeds_speedups(self, tmp_path, capsys):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        assert main(["run", "--quick", "--only", "engine_events", "--out", str(before)]) == 0
        assert (
            main(
                [
                    "run",
                    "--quick",
                    "--only",
                    "engine_events",
                    "--out",
                    str(after),
                    "--before",
                    str(before),
                ]
            )
            == 0
        )
        report = load_report(after)
        assert "engine_events" in report["speedup_vs_before"]
        assert report["before"]["benchmarks"]["engine_events"]["checksum"] == (
            report["benchmarks"]["engine_events"]["checksum"]
        )

    def test_compare_missing_file_errors(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_exit_codes_for_each_gate(self, tmp_path, capsys):
        # The CI gate consumes the exit code: 0 pass, 1 failed findings.
        base = tmp_path / "base.json"
        assert main(["run", "--quick", "--only", "engine_events", "--out", str(base)]) == 0
        report = load_report(base)

        drifted = copy.deepcopy(report)
        drifted["benchmarks"]["engine_events"]["work"] += 1
        drifted_path = tmp_path / "work-drift.json"
        write_report(drifted, drifted_path)
        assert main(["compare", str(base), str(drifted_path)]) == 1
        assert "simulation changed" in capsys.readouterr().out

        tampered = copy.deepcopy(report)
        tampered["benchmarks"]["engine_events"]["checksum"] = "0" * 16
        tampered_path = tmp_path / "checksum.json"
        write_report(tampered, tampered_path)
        assert main(["compare", str(base), str(tampered_path)]) == 1
        assert "simulation changed" in capsys.readouterr().out

        slower = copy.deepcopy(report)
        slower["benchmarks"]["engine_events"]["rate"] = (
            report["benchmarks"]["engine_events"]["rate"] * 0.01
        )
        slower_path = tmp_path / "rate.json"
        write_report(slower, slower_path)
        assert main(["compare", str(base), str(slower_path), "--tolerance", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "rate regressed" in out


def _stub_benchmarks(names=None, quick=False, progress=None):
    """Stand-in for run_benchmarks: instant results for the selected names."""
    return [
        BenchmarkResult(name=name, wall_s=1.0, work=1, unit="units", checksum="0" * 16)
        for name in BENCHMARK_NAMES
        if not names or name in names
    ]


def _must_not_run(*args, **kwargs):
    raise AssertionError("the benchmarks ran although the report was protected")


class TestRunOverwriteGuard:
    """``run`` never replaces a report with one of another scale or fewer benchmarks."""

    @pytest.mark.parametrize(
        "flags",
        [["--quick"], ["--only", "serving"], ["--quick", "--only", "fig9_headline"]],
    )
    def test_refuses_before_running(self, tmp_path, capsys, monkeypatch, flags):
        report = tmp_path / "BENCH_core_hotpaths.json"
        shutil.copyfile(COMMITTED_RESULTS / "BENCH_core_hotpaths.json", report)
        committed = report.read_bytes()
        monkeypatch.setattr(bench, "run_benchmarks", _must_not_run)
        assert main(["run", *flags, "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert str(report) in lines[0]
        assert report.read_bytes() == committed

    @pytest.mark.parametrize(
        "committed, flags",
        [
            ("BENCH_core_hotpaths.json", []),
            ("BENCH_core_hotpaths_quick.json", ["--quick"]),
            ("BENCH_serving.json", ["--only", "serving"]),
        ],
    )
    def test_a_run_covering_the_report_may_replace_it(
        self, tmp_path, monkeypatch, committed, flags
    ):
        report = tmp_path / committed
        shutil.copyfile(COMMITTED_RESULTS / committed, report)
        held = set(load_report(report)["benchmarks"])
        monkeypatch.setattr(bench, "run_benchmarks", _stub_benchmarks)
        assert main(["run", *flags, "--out", str(report)]) == 0
        replaced = load_report(report)
        # A full run adds the benchmarks the report lacked (serving).
        assert held <= set(replaced["benchmarks"])
        assert {entry["checksum"] for entry in replaced["benchmarks"].values()} == {"0" * 16}

    @pytest.mark.parametrize(
        "committed, flags",
        [
            ("BENCH_serving.json", ["--only", "serving"]),
            ("BENCH_serving_quick.json", ["--quick", "--only", "serving"]),
        ],
    )
    def test_replacing_a_report_keeps_its_slo_block(
        self, tmp_path, monkeypatch, committed, flags
    ):
        from repro.serving.loadtest import slo_for_scale

        report = tmp_path / committed
        shutil.copyfile(COMMITTED_RESULTS / committed, report)
        slo = load_report(report)["slo"]
        monkeypatch.setattr(bench, "run_benchmarks", _stub_benchmarks)
        assert main(["run", *flags, "--out", str(report)]) == 0
        replaced = load_report(report)
        assert replaced["benchmarks"]["serving"]["checksum"] == "0" * 16
        # Compared as text, so 250.0 may not turn into 250.
        assert json.dumps(replaced["slo"]) == json.dumps(slo)
        for scale in ("quick", "default"):
            assert slo_for_scale(replaced, scale) == slo[scale]
