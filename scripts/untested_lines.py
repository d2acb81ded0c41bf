#!/usr/bin/env python3
"""Run the test suite under a line tracer and print each line inside a
function of src/ln_kit that no test ran, as module:line.

The tracer is installed before pytest starts, so before any test imports
ln_kit.  A line counts as run when Python reports a line event on it, or,
for a function's first line (its def, first decorator or one-line lambda
body), when the function is called.  Only this process is traced: a test
that runs ln-kit or a script in a child process (the CLI's broken-pipe
path, say) covers nothing here, so its lines are listed as untested.  The
tracer slows the Tier-1 suite from about 21 s to 50 s (2-CPU host).

Usage (from the repository root):
    python3 scripts/untested_lines.py                      # the Tier-1 suite
    python3 scripts/untested_lines.py tests/test_solver.py # pytest arguments

The exit code is 1 when a line is listed, and pytest's otherwise, so that
the script can gate.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ln_kit"
# ROADMAP's Tier-1 arguments
TIER1 = ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]


def _functions(code: CodeType) -> Iterator[CodeType]:
    """The code of each function, lambda, generator and comprehension
    defined in code, at any depth, class bodies walked through."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def function_lines(path: Path) -> set[int]:
    """The lines of the file at path that hold code inside a function."""
    module = compile(path.read_text(), str(path), "exec")
    return {
        line
        for code in _functions(module)
        for *_, line in code.co_lines()
        if line is not None
    }


def lines_run(
    root: Path, run: Callable[[], object]
) -> tuple[object, set[tuple[str, int]]]:
    """What run() returns, and the (file name, line) pairs that functions of
    files under root execute in this thread while it runs, a function's
    first line counted on each call.  A module or class body's lines are not
    counted, so a def statement run on import does not count as a call."""
    prefix = str(root) + os.sep
    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_flags & inspect.CO_OPTIMIZED and code.co_filename.startswith(prefix):
            ran.add((code.co_filename, code.co_firstlineno))
            return on_line
        return None  # a module or class body, or code outside root

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before)
    return result, ran


def untested(root: Path, ran: set[tuple[str, int]]) -> list[tuple[str, int]]:
    """Each (path relative to root, line) inside a function of a .py file
    under root that ran does not hold, in file then line order."""
    return [
        (path.relative_to(root).as_posix(), line)
        for path in sorted(root.rglob("*.py"))
        for line in sorted(function_lines(path))
        if (str(path), line) not in ran
    ]


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = lines_run(PACKAGE, lambda: pytest.main(argv or TIER1))
    listed = untested(PACKAGE, ran)
    for module, line in listed:
        print(f"{module}:{line}")
    return 1 if listed else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
