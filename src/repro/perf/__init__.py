"""Micro-benchmark harness and performance contract for the simulation core.

``repro.perf`` times the hot paths every sweep job spends its wall-clock in
— the discrete-event engine loop, the coherence-mode memory access path,
NoC routing, and the Q-learning decision step — plus the end-to-end
Figure 9 headline sweep, and records the measurements in a JSON report
(``BENCH_core_hotpaths.json`` by convention).  Reports from two revisions
can be diffed with a tolerance gate, which is how CI keeps future changes
from silently regressing the paths this module measures.

Command line::

    python -m repro.perf run [--quick] [--out report.json] [--before old.json]
    python -m repro.perf compare old.json new.json --tolerance 0.5
    python -m repro.perf profile fig9_headline --limit 25

Every benchmark reports a deterministic ``work`` count and ``checksum``
alongside its wall-clock time, so a report diff distinguishes "the same
simulation got slower" (a perf regression) from "the simulation changed"
(a behavioural change that must be explained by the PR).  See
``docs/performance.md`` for the full contract.
"""

from repro import lazy_exports
from repro.perf.compare import CompareFinding, compare_reports

__all__ = [
    "BENCHMARK_NAMES",
    "BenchmarkResult",
    "CompareFinding",
    "DEFAULT_REPORT_PATH",
    "compare_reports",
    "load_report",
    "make_report",
    "run_benchmark",
    "run_benchmarks",
    "write_report",
]

# The benchmarks import the layers they time; comparing two reports (the
# tracking API does) needs none of them.
__getattr__ = lazy_exports(
    globals(),
    {
        "BENCHMARK_NAMES": "repro.perf.bench",
        "BenchmarkResult": "repro.perf.bench",
        "run_benchmark": "repro.perf.bench",
        "run_benchmarks": "repro.perf.bench",
        "DEFAULT_REPORT_PATH": "repro.perf.report",
        "load_report": "repro.perf.report",
        "make_report": "repro.perf.report",
        "write_report": "repro.perf.report",
    },
)
