"""Docstring enforcement for the public API surface (mirrors ruff D1).

CI's lint job runs ruff with the missing-docstring rules (D100-D104,
D106) over ``repro/__init__.py``, ``repro.core``, ``repro.models``,
``repro.scenarios``, ``repro.serving``, ``repro.sim``, ``repro.soc``,
``repro.runtime``, ``repro.workloads``, ``repro.accelerators``,
``repro.perf``, ``repro.net``, ``repro.store``, and ``repro.tracking``
(plus the sweep execution layer listed below); this test applies the
same policy with the standard library's ``ast`` so the check also runs in
environments without ruff — every module, public class, and public
function/method in those trees must carry a docstring whose first line is
a non-empty summary.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The scoped public API surface (same paths as CI's ruff invocation).
SCOPED_FILES: List[Path] = sorted(
    [SRC / "__init__.py"]
    + list((SRC / "core").rglob("*.py"))
    + list((SRC / "models").rglob("*.py"))
    + list((SRC / "scenarios").rglob("*.py"))
    + list((SRC / "serving").rglob("*.py"))
    + list((SRC / "sim").rglob("*.py"))
    + list((SRC / "soc").rglob("*.py"))
    + list((SRC / "runtime").rglob("*.py"))
    + list((SRC / "workloads").rglob("*.py"))
    + list((SRC / "accelerators").rglob("*.py"))
    + list((SRC / "perf").rglob("*.py"))
    + list((SRC / "net").rglob("*.py"))
    + list((SRC / "store").rglob("*.py"))
    + list((SRC / "tracking").rglob("*.py"))
    + [SRC / "utils" / "host.py"]
    + list((SRC / "experiments" / "sweep" / "backends").rglob("*.py"))
    + list((SRC / "experiments" / "sweep" / "distributed").rglob("*.py"))
    + [
        SRC / "experiments" / "sweep" / "config.py",
        SRC / "experiments" / "sweep" / "manifest.py",
        SRC / "experiments" / "sweep" / "shard.py",
        SRC / "experiments" / "sweep" / "merge.py",
    ]
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _walk_definitions(
    node: ast.AST, inside_class: bool = False
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (kind, node) for public defs that the D1 rules cover."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_public(child.name):
                yield "class", child
                yield from _walk_definitions(child, inside_class=True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(child.name):
                yield ("method" if inside_class else "function"), child
            # Nested defs inside functions are implementation details.
        elif isinstance(child, (ast.If, ast.Try)):
            yield from _walk_definitions(child, inside_class=inside_class)


def _missing_docstrings(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: List[str] = []
    module_doc = ast.get_docstring(tree)
    if not module_doc or not module_doc.strip().splitlines()[0].strip():
        problems.append(f"{path}: missing module docstring")
    for kind, node in _walk_definitions(tree):
        doc = ast.get_docstring(node)  # type: ignore[arg-type]
        if not doc or not doc.strip().splitlines()[0].strip():
            problems.append(
                f"{path}:{node.lineno}: {kind} {node.name!r} "  # type: ignore[attr-defined]
                "is missing a docstring summary"
            )
    return problems


@pytest.mark.parametrize(
    "path", SCOPED_FILES, ids=[str(p.relative_to(SRC)) for p in SCOPED_FILES]
)
def test_public_api_is_documented(path: Path):
    """Every public def in the scoped modules has a docstring summary."""
    problems = _missing_docstrings(path)
    assert problems == [], "\n".join(problems)


def test_scope_covers_expected_modules():
    """The scoped surface includes the packages the policy names."""
    names = {str(p.relative_to(SRC)) for p in SCOPED_FILES}
    assert "__init__.py" in names
    assert any(name.startswith("core/") for name in names)
    assert any(name.startswith("models/") for name in names)
    assert any(name.startswith("scenarios/") for name in names)
    assert any(name.startswith("serving/") for name in names)
    assert any(name.startswith("sim/") for name in names)
    assert any(name.startswith("soc/") for name in names)
    assert any(name.startswith("runtime/") for name in names)
    assert any(name.startswith("workloads/") for name in names)
    assert any(name.startswith("accelerators/") for name in names)
    assert any(name.startswith("perf/") for name in names)
    assert any(name.startswith("net/") for name in names)
    assert any(name.startswith("store/") for name in names)
    assert any(name.startswith("tracking/") for name in names)
    assert "utils/host.py" in names
    assert any(name.startswith("experiments/sweep/backends/") for name in names)
    assert any(name.startswith("experiments/sweep/distributed/") for name in names)
    assert "experiments/sweep/config.py" in names
    assert "experiments/sweep/manifest.py" in names
    assert "experiments/sweep/shard.py" in names
    assert "experiments/sweep/merge.py" in names
