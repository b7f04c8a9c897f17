"""README's Layout block names only what its modules hold."""

import functools
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _layout_names():
    """(modules of the entry, name) for every backticked name in the Layout block.

    An entry starts on a line indented by two spaces whose first column
    lists module files; its continuation lines are indented further.  A
    line at the margin (a directory) ends the entry.
    """
    block = README.read_text().split("## Layout", 1)[1].split("```")[1]
    modules, out = (), []
    for line in block.splitlines():
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
