"""List every `raise` statement in src/fixedlab that the tier-1 tests never run.

Usage, from anywhere:

    python tools/raise_sites.py

It finds the `raise` statements of src/fixedlab/*.py with `ast`, runs the
tier-1 suite (tests/) in this process under a `sys.settrace` line tracer
that follows only those files, and prints each raise whose line never ran,
then the count. Exit status 1 if a test failed or a raise never ran, else 0.
A new raise arrives with the test that reaches it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fixedlab")


def raise_sites() -> dict[str, list[int]]:
    """Source path -> the first line of each raise statement in it."""
    sites = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(PACKAGE, name))
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            sites[path] = sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Raise))
    return sites


def main() -> int:
    sites = raise_sites()
    lines_of: dict[str, set | None] = {}   # a code object's file name -> its raise lines
    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno in lines_of[frame.f_code.co_filename]:
            ran.add((os.path.realpath(frame.f_code.co_filename), frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = set(sites.get(os.path.realpath(name), ())) or None
        return on_line if lines_of[name] else None

    sys.path.insert(0, SRC)
    import pytest
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [(path, n) for path, ns in sites.items() for n in ns if (path, n) not in ran]
    for path, n in missed:
        print(f"{os.path.relpath(path, ROOT)}:{n}: raise never executed")
    total = sum(map(len, sites.values()))
    print(f"raise sites executed by the tier-1 tests: {total - len(missed)} of {total}")
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main())
