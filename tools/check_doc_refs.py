"""Docs lint: every repo path referenced in the markdown docs must exist.

Scans the top-level markdown files plus ``docs/`` for tokens that look like
repository paths (``src/...``, ``benchmarks/...``, ``docs/...``, ...) and fails
if any referenced file or directory is missing — so renames and deletions
cannot silently strand the documentation.  Any bare name ending in ``.md``,
``.toml``, ``.py`` or ``.yml`` is resolved against the repo root, so a module
must be written with its full path (``src/repro/nn/plan.py``, not
``plan.py``); when a missing bare name matches exactly one file elsewhere in
the tree, the report suggests that path.  Run directly (CI does) or through
``tests/test_docs.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: markdown files whose path references are checked
DOC_FILES = ("README.md", "PAPER.md", "ROADMAP.md", "docs/ARCHITECTURE.md")

#: top-level prefixes that mark a token as a repo path
_PREFIXES = ("src/", "tests/", "benchmarks/", "examples/", "docs/", "tools/", ".github/")

#: bare names resolved against the repo root
_TOP_LEVEL = re.compile(r"^[A-Za-z][\w.-]*\.(?:md|toml|py|yml)$")

_TOKEN = re.compile(r"[\w./-]+")


def _is_repo_path(token: str) -> bool:
    if _TOP_LEVEL.match(token):
        return True
    return token.startswith(_PREFIXES)


def referenced_paths(text: str) -> set[str]:
    """Extract the repo paths a markdown document refers to."""
    paths: set[str] = set()
    for token in _TOKEN.findall(text):
        token = token.rstrip(".,:;")
        if _is_repo_path(token):
            paths.add(token)
    return paths


def _suggestion(repo_root: Path, path: str) -> str:
    """A "did you mean" hint when a bare name matches exactly one file in the tree."""
    if "/" in path:
        return ""
    matches = [
        candidate
        for candidate in repo_root.rglob(path)
        if candidate.is_file()
        and not any(
            part.startswith(".") or part == "__pycache__"
            for part in candidate.relative_to(repo_root).parts[:-1]
        )
    ]
    if len(matches) != 1:
        return ""
    return f" (did you mean {matches[0].relative_to(repo_root).as_posix()}?)"


def missing_references(repo_root: Path = REPO_ROOT) -> list[str]:
    """All dangling doc references, as ``"<doc>: <path>"`` strings."""
    problems: list[str] = []
    for doc_name in DOC_FILES:
        doc = repo_root / doc_name
        if not doc.is_file():
            problems.append(f"{doc_name}: (document itself is missing)")
            continue
        for path in sorted(referenced_paths(doc.read_text())):
            if not (repo_root / path).exists():
                problems.append(f"{doc_name}: {path}{_suggestion(repo_root, path)}")
    return problems


def main() -> int:
    """Entry point: print dangling references and return a process exit code."""
    problems = missing_references()
    if problems:
        print("dangling documentation references:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"doc references OK across {', '.join(DOC_FILES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
