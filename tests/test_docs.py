"""README's Layout block names only what its modules hold, and every script;
its spec-key table has one row per key of the spec reader."""

import functools
import importlib
import re
from pathlib import Path

from quasimin import specfile

README = Path(__file__).resolve().parents[1] / "README.md"


def _layout_block():
    return README.read_text().split("## Layout", 1)[1].split("```")[1]


def _layout_names():
    """(modules of the entry, name) for every backticked name in the Layout block.

    An entry starts on a line indented by two spaces whose first column
    lists module files; its continuation lines are indented further.  A
    line at the margin (a directory) ends the entry.
    """
    modules, out = (), []
    for line in _layout_block().splitlines():
        if not line.startswith(" "):
            modules = ()
        elif not line.startswith("   "):
            modules = tuple(re.findall(r"(\w+)\.py", line.strip().split("  ")[0]))
        out += [(modules, name) for name in re.findall(r"`([^`]+)`", line)]
    return out


def _has(module: str, name: str) -> bool:
    try:
        functools.reduce(getattr, name.split("."), importlib.import_module(f"quasimin.{module}"))
    except AttributeError:
        return False
    return True


def test_layout_names_are_attributes_of_their_modules():
    names = _layout_names()
    assert len(names) >= 5
    stale = [(m, name) for m, name in names if not any(_has(mod, name) for mod in m)]
    assert stale == []


def test_layout_names_every_script_and_only_scripts_that_exist():
    # the scripts/ entry runs from its line at the margin to the next one
    entry, inside = [], False
    for line in _layout_block().splitlines():
        if not line.startswith(" "):
            inside = line.startswith("scripts/")
        if inside:
            entry.append(line)
    named = set(re.findall(r"(?<![\w/])(\w+\.py)", "\n".join(entry)))
    assert named == {p.name for p in (README.parent / "scripts").glob("*.py")}


def test_spec_key_table_has_one_row_per_key():
    block = README.read_text().split("### Spec keys", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in block.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1].startswith("`"):
            section = re.fullmatch(r"`\[(\w+)\]`", cells[0])
            rows.append((section.group(1) if section else "", cells[1].strip("`")))
    assert len(rows) == len(set(rows))
    assert set(rows) == set(specfile._KEYS)
