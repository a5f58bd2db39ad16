"""scripts/surface.py, the size measure of the package, against counts made
another way: the newlines of the source files and the flags that each
subcommand's --help lists."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

from safeadp.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "safeadp"

_spec = importlib.util.spec_from_file_location(
    "surface", ROOT / "scripts" / "surface.py")
surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface)


def _help(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit):
        main([*argv, "--help"])
    return buf.getvalue()


def test_line_count_is_the_newline_count_of_the_sources():
    lines, _ = surface.surface(SRC)
    assert lines == sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))


def test_public_names_are_module_level_and_method_names():
    _, names = surface.surface(SRC)
    assert {"model.DomainSet", "model.DomainSet.grid", "sim.run"} <= set(names)
    assert not any(part.startswith("_") for name in names
                   for part in name.split(".")[1:])
    assert names == sorted(set(names))


def test_public_names_stay_within_the_ceiling():
    # the size target of ROADMAP.md allows at most 80 public names
    _, names = surface.surface(SRC)
    assert len(names) <= 80


def test_cli_options_are_the_flags_each_subcommand_lists():
    commands = re.search(r"\{([\w,-]+)\}", _help()).group(1).split(",")
    flags = {command: set(re.findall(r"^\s+(?:-\w, )?(--[\w-]+)",
                                     _help(command), re.M)) - {"--help"}
             for command in commands}
    assert "--grid" in flags["audit-bounds"]
    assert surface.cli_options(SRC) == sum(map(len, flags.values()))
