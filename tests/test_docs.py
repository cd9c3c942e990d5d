"""The public names the docs call exist.

The demos run in `test_demos.py`, but the README's snippets run nowhere, so a
removed public name could leave them stale. Every `gv.<name>` in README.md and
demos/*.py must be in `gvendi.__all__`, and every entry of `__all__` must
resolve.
"""

import re
from pathlib import Path

import pytest

import gvendi

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_docs_use_only_public_names(path):
    used = set(re.findall(r"\bgv\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert sorted(used - set(gvendi.__all__)) == []


def test_all_names_resolve():
    assert [name for name in gvendi.__all__ if not hasattr(gvendi, name)] == []
