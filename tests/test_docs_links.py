"""Documentation link checker: local references must resolve.

Walks the markdown links and images of the top-level docs, every
file/module path they name in backticked code spans that look like
paths, and every bare ``*.md`` name in their prose, and asserts the
targets exist in the checkout.  External
(http/https/mailto) links are out of scope — CI has no network
guarantee — but every relative link is a promise about this repo's
layout and goes stale silently without this gate.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

DOCS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "docs" / "REPORT.md",
]

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
# Backticked spans that look like repo paths (contain a slash and an
# extension), e.g. `src/repro/report/compare.py`.
_PATH_SPAN = re.compile(r"`([A-Za-z0-9_./-]+/[A-Za-z0-9_.-]+\.[a-z]{2,4})`")
# Markdown file names anywhere in the text, with or without a directory
# and with or without backticks, e.g. "see DESIGN.md".  The lookbehind
# keeps URL tails (``.../README.md``) out.
_MD_NAME = re.compile(r"(?<![\w/.-])([A-Za-z0-9_][A-Za-z0-9_./-]*\.md)\b")


def _targets(doc: Path):
    text = doc.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        if target.startswith("../"):
            continue  # points outside the checkout (e.g. the CI badge)
        yield target.split("#")[0]
    for match in _PATH_SPAN.finditer(text):
        yield match.group(1)
    for match in _MD_NAME.finditer(text):
        yield match.group(1)


@pytest.mark.parametrize("doc", DOCS, ids=[d.name for d in DOCS])
def test_local_references_resolve(doc):
    assert doc.is_file(), f"{doc} is missing"
    broken = []
    for target in _targets(doc):
        # Docs name paths relative to themselves, to the repo root, or
        # in module shorthand relative to src/ or src/repro/.
        roots = (doc.parent, REPO, REPO / "src", REPO / "src" / "repro")
        if not any((root / target).exists() for root in roots):
            broken.append(target)
    assert not broken, (
        f"{doc.relative_to(REPO)} references missing local paths: "
        f"{sorted(set(broken))}"
    )


def test_report_gallery_images_exist():
    report = REPO / "docs" / "REPORT.md"
    images = [m.group(1) for m in
              re.finditer(r"!\[[^\]]*\]\(([^)\s]+)\)",
                          report.read_text(encoding="utf-8"))]
    assert len(images) >= 5, "REPORT.md should embed the headline gallery"
    missing = [i for i in images if not (report.parent / i).is_file()]
    assert not missing, f"gallery thumbnails missing: {missing}"
