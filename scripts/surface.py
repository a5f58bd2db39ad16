#!/usr/bin/env python3
"""Print the size of the package source, of its public surface and of its
command line.

The line count of ``src/safeadp/*.py`` (what ``cat src/safeadp/*.py | wc -l``
prints), followed by that of each module (what ``wc -l src/safeadp/*.py``
prints); the count of public names, which is the module-level functions
and classes plus the methods and properties of those classes whose names do
not start with an underscore (nested functions and dataclass fields are not
counted); and the count of CLI options, the optional arguments of every
subcommand of ``safeadp.cli.build_parser()`` with ``-h`` excluded.

    python3 scripts/surface.py [SRC_DIR]
"""

import argparse
import ast
import sys
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src" / "safeadp"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(node) -> bool:
    return isinstance(node, _DEFS) and not node.name.startswith("_")


def surface(src: Path) -> tuple[dict[str, int], list[str]]:
    """(line count of each module file, sorted public names as module.name
    or module.Class.name)."""
    lines, names = {}, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines[path.name] = text.count("\n")
        for node in ast.parse(text).body:
            if not _public(node):
                continue
            names.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                names += [f"{path.stem}.{node.name}.{m.name}"
                          for m in node.body if _public(m)]
    return lines, sorted(names)


def cli_options(src: Path) -> int:
    """Optional arguments of all subcommands of the package in src, -h
    excluded."""
    sys.path.insert(0, str(src.parent))
    from safeadp.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sum(1 for parser in sub.choices.values() for a in parser._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction))


def main(argv) -> int:
    src = Path(argv[0]) if argv else DEFAULT_SRC
    lines, names = surface(src)
    print(f"src lines: {sum(lines.values())}")
    for module, count in lines.items():
        print(f"  {module}: {count}")
    print(f"public names: {len(names)}")
    print(f"cli options: {cli_options(src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
