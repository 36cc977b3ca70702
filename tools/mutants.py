"""Flip one comparison at a time in the given modules and report each mutant
that no tier-1 test kills.

Usage, from anywhere:

    python tools/mutants.py src/fixedlab/conditions.py [more modules] \
        [--workdir DIR]

The operator family is the comparison flip: `<` and `<=` swap, and so do
`>` and `>=`. The tool copies the checkout into a temporary directory
(under --workdir if given) and mutates only that copy, one comparison at a
time. It times the unmutated suite once per module, then runs it on each
mutant with `-x`, the test files that import the mutated module first,
and a timeout of TIMEOUT_FACTOR times the unmutated run. It prints one
line per mutant: the mutant's place and text, then "killed", "timed out"
(counted as killed) or "survived". The summary line follows.

A survivor is accepted only if `tools/equivalent_mutants.txt` lists it as
`path | mutated source line, stripped | reason`. Exit status 1 if the
unmutated suite fails or any survivor is not listed, else 0. Too slow for
CI: a mutant that survives runs the whole suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EQUIVALENT = os.path.join(ROOT, "tools", "equivalent_mutants.txt")

# a mutant's run may take this many times the unmutated suite's before it
# counts as timed out (an infinite loop): a run with -x is never longer
# than the whole suite, so the margin only covers the machine's noise
TIMEOUT_FACTOR = 3

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


def mutants(source: bytes) -> list[tuple[int, bytes, str]]:
    """(line, mutated source, mutated line stripped) for every comparison
    operator of FLIPS in source, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) not in FLIPS:
                continue
            old, new = FLIPS[type(op)]
            # the operator is the one token between its operands (ast offsets are bytes)
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            hi = starts[right.lineno - 1] + right.col_offset
            token = re.search(rb"[<>]=?", source[lo:hi])
            at = lo + token.start()
            assert token.group().decode() == old, (node.lineno, token.group())
            mutated = source[:at] + new.encode() + source[at + len(old):]
            line = source.count(b"\n", 0, at) + 1
            text = mutated.splitlines()[line - 1].decode().strip()
            found.append((line, mutated, text))
    return sorted(found, key=lambda m: (m[0], m[2]))


def equivalent() -> dict[tuple[str, str], str]:
    """(path, mutated line) -> reason, from EQUIVALENT."""
    listed = {}
    if not os.path.exists(EQUIVALENT):
        return listed
    with open(EQUIVALENT, encoding="utf-8") as fh:
        for n, raw in enumerate(fh, 1):
            if not raw.strip() or raw.startswith("#"):
                continue
            fields = [f.strip() for f in raw.split(" | ")]
            if len(fields) != 3 or not all(fields):
                sys.exit(f"{EQUIVALENT}:{n}: expected 'path | mutated line | reason'")
            listed[fields[0], fields[1]] = fields[2]
    return listed


def test_files(copy: str, module: str) -> list[str]:
    """Every tier-1 test file, those that import `module` first."""
    tests = os.path.join(copy, "tests")
    files = sorted(os.path.join(tests, f) for f in os.listdir(tests)
                   if f.startswith("test_") and f.endswith(".py"))

    def imports(path: str) -> bool:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(
                    a.name == f"fixedlab.{module}" for a in node.names):
                return True
            if isinstance(node, ast.ImportFrom) and (
                    node.module == f"fixedlab.{module}" or node.module == "fixedlab"
                    and any(a.name == module for a in node.names)):
                return True
        return False
    return sorted(files, key=lambda f: not imports(f))


def run_suite(copy: str, files: list[str], timeout: float | None) -> str:
    """"passed", "failed" or "timed out": tier-1 with -x in the copy."""
    # no bytecode cache: two mutants of one size written in the same second
    # would share a cached module's source stamp
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", help="module paths, e.g. src/fixedlab/conditions.py")
    ap.add_argument("--workdir", default=None, help="where the mutated copy is made")
    args = ap.parse_args()
    listed = equivalent()
    counts = {"killed": 0, "timed out": 0, "survived": 0, "equivalent": 0}
    unlisted = []
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_tmp"))
        for path in args.modules:
            rel = os.path.relpath(os.path.abspath(path), ROOT)
            target = os.path.join(copy, rel)
            with open(target, "rb") as fh:
                original = fh.read()
            files = test_files(copy, os.path.splitext(os.path.basename(rel))[0])
            began = time.monotonic()
            if run_suite(copy, files, None) != "passed":
                print(f"{rel}: the unmutated suite does not pass")
                return 1
            timeout = TIMEOUT_FACTOR * (time.monotonic() - began)
            try:
                for line, mutated, text in mutants(original):
                    with open(target, "wb") as fh:
                        fh.write(mutated)
                    outcome = {"passed": "survived", "failed": "killed"}.get(
                        run_suite(copy, files, timeout), "timed out")
                    if outcome == "survived" and (rel, text) in listed:
                        outcome = "equivalent"
                    elif outcome == "survived":
                        unlisted.append(f"{rel} | {text}")
                    counts[outcome] += 1
                    print(f"{rel}:{line}: {text}  {outcome}", flush=True)
            finally:
                with open(target, "wb") as fh:
                    fh.write(original)
    print(f"{sum(counts.values())} mutants: {counts['killed']} killed, "
          f"{counts['timed out']} timed out, {counts['equivalent']} equivalent (listed), "
          f"{counts['survived']} survived unlisted")
    for entry in unlisted:
        print(f"unlisted survivor: {entry}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
