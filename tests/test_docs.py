"""The public names and CLI lines the docs show exist.

The demos run in `test_demos.py`, but the README's snippets run nowhere, so a
removed public name or a renamed flag could leave them stale. Every
`gv.<name>` in README.md and demos/*.py must be in `gvendi.__all__`, every
entry of `__all__` must resolve, and every `gvendi ...` line of the README's
bash blocks must parse with the CLI's own parser. The README's module map
must name every module of the package.
"""

import re
import shlex
from pathlib import Path

import pytest

import gvendi
from gvendi import cli

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_docs_use_only_public_names(path):
    used = set(re.findall(r"\bgv\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert sorted(used - set(gvendi.__all__)) == []


def test_all_names_resolve():
    assert [name for name in gvendi.__all__ if not hasattr(gvendi, name)] == []


def _readme_cli_lines():
    """Each `gvendi ...` command of the README's bash blocks, continuation
    lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("gvendi ")]


CLI_LINES = _readme_cli_lines()


def test_readme_shows_cli_lines():
    assert len(CLI_LINES) >= 10


@pytest.mark.parametrize("line", CLI_LINES, ids=lambda line: line.split()[1])
def test_readme_cli_lines_parse(line):
    try:
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
    except SystemExit as e:
        pytest.fail(f"README line does not parse (exit {e.code}): {line}")


def test_readme_module_map_names_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    mapped = set(re.findall(r"^\| `gvendi\.(\w+)`", section, flags=re.M))
    modules = {p.stem for p in Path(gvendi.__file__).parent.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules - mapped) == [] and sorted(mapped - modules) == []
