"""Documentation lint: dangling path references and docstring coverage.

Mirrors the CI docs-lint job so regressions surface locally: every repo path
mentioned in the markdown docs must exist, and the packages opted into the
pydocstyle rules (execution/, schedules/, reporting/, cli/) must document
every public module, class and function.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: packages held to the public-docstring contract (mirrors pyproject's ruff D1
#: per-file-ignore opt-outs: everything NOT listed there must be documented)
DOCUMENTED_PACKAGES = (
    "src/repro/execution",
    "src/repro/faults",
    "src/repro/schedules",
    "src/repro/reporting",
    "src/repro/cli",
)


def _load_check_doc_refs():
    spec = importlib.util.spec_from_file_location(
        "check_doc_refs", REPO_ROOT / "tools" / "check_doc_refs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_markdown_docs_reference_existing_paths():
    checker = _load_check_doc_refs()
    assert checker.missing_references(REPO_ROOT) == []


def test_bare_module_name_reported_with_path_hint(tmp_path):
    """A bare ``*.py`` name resolves against the root only; the full path resolves."""
    checker = _load_check_doc_refs()
    for doc_name in checker.DOC_FILES:
        (tmp_path / doc_name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / doc_name).write_text("nothing referenced\n")
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "foo.py").write_text("")
    (tmp_path / "ROADMAP.md").write_text("Trim `foo.py`, see `src/pkg/foo.py`.\n")

    assert checker.missing_references(tmp_path) == [
        "ROADMAP.md: foo.py (did you mean src/pkg/foo.py?)"
    ]


def _missing_docstrings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    missing: list[str] = []
    if not ast.get_docstring(tree):
        missing.append(f"{path.relative_to(REPO_ROOT)}:1 (module)")

    def walk(node: ast.AST, prefix: str = "") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                if not name.startswith("_") and not dunder and not ast.get_docstring(child):
                    missing.append(f"{path.relative_to(REPO_ROOT)}:{child.lineno} {prefix}{name}")
                if isinstance(child, ast.ClassDef):
                    walk(child, prefix=f"{name}.")

    walk(tree)
    return missing


def test_public_api_docstring_coverage():
    """Every exported class/function in the opted-in packages has a docstring."""
    problems: list[str] = []
    for package in DOCUMENTED_PACKAGES:
        for path in sorted((REPO_ROOT / package).glob("*.py")):
            problems.extend(_missing_docstrings(path))
    problems.extend(_missing_docstrings(REPO_ROOT / "src" / "repro" / "__main__.py"))
    assert problems == [], "undocumented public API:\n" + "\n".join(problems)
