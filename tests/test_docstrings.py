"""Docstring enforcement for the public API surface (mirrors ruff D1).

CI's lint job runs ruff with the missing-docstring rules (D100-D104,
D106) over all of ``src/repro``; this test applies the same policy with
the standard library's ``ast`` so the check also runs in environments
without ruff — every module, public class, and public function/method of
the package must carry a docstring whose first line is a non-empty
summary.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The scoped public API surface (same path as CI's ruff invocation).
SCOPED_FILES: List[Path] = sorted(SRC.rglob("*.py"))


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
    """The scoped surface is the whole package, command-line modules included."""
    names = {str(p.relative_to(SRC)) for p in SCOPED_FILES}
    assert "__init__.py" in names
    assert "cli.py" in names
    assert "errors.py" in names
    assert "experiments/sweep/cli.py" in names
    assert any(name.startswith("utils/") for name in names)
    assert len(names) > 100
