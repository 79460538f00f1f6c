"""Every ``*.md`` file the code and docs point at exists.

Docstrings, comments and docs pages send readers to markdown files by path
(``docs/api.md``, a relative ``serving.md`` link inside ``docs/``).  A page
that was never written or has since been deleted leaves a dangling pointer
nobody notices — this scan fails on any mention that resolves neither from
the repository root nor from the mentioning file's own directory.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MENTION = re.compile(r"[A-Za-z0-9_./-]+\.md\b")


def scanned_files() -> list[Path]:
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "benchmarks").glob("bench_*.py"),
             *(ROOT / "benchmarks" / "paper").glob("*.py"),
             *(ROOT / "tests" / "oracles").glob("*.py"),
             *(ROOT / "docs").glob("*.md"), *(ROOT / "examples").glob("*.py")]
    assert len(files) > 100, "the scan lost its inputs"
    return files


def test_markdown_references_resolve():
    dangling = [
        f"{path.relative_to(ROOT)}: {mention}"
        for path in scanned_files()
        for mention in sorted(set(MENTION.findall(path.read_text(encoding="utf-8"))))
        if not (ROOT / mention).is_file() and not (path.parent / mention).is_file()
    ]
    assert not dangling, "dangling markdown references:\n" + "\n".join(dangling)


def test_the_pattern_matches_the_shapes_in_use():
    text = "simulated time (see DESIGN.md §1); [docs/ci.md](ci.md), ``benchmarks/e2e/README.md``."
    assert MENTION.findall(text) == ["DESIGN.md", "docs/ci.md", "ci.md",
                                     "benchmarks/e2e/README.md"]
