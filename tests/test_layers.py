"""Layering of the package, read from the source.

Only `harness` reads configs, so only it raises ConfigError; the other
modules export plain tables and functions. A private name one module takes
from another is a seam between them, so each one is listed here: a new
seam is a decision to make in review, not a side effect of an edit.
"""
import ast
import os

import fixedlab

SRC = os.path.dirname(fixedlab.__file__)

#: module -> {sibling module: the private names it imports from it}
PRIVATE_IMPORTS = {
    "conditions": {"mappings": {"_evaluate_rows"}, "vecspace": {"_norm_last_axis"}},
    "harness": {"conditions": {"_CHECKS", "_checks"}, "iterate": {"_fmt", "_write_csv"},
                "schedules": {"_KINDS"}},
    "iterate": {"vecspace": {"_blend", "_norm_floats", "_norm_last_axis"}},
    "mappings": {"vecspace": {"_freeze"}},
}


def _imports():
    """(module, sibling module, imported name) for every name a module of
    the package imports from another, relatively or as fixedlab.<module>."""
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and not module.startswith("fixedlab."):
                continue
            for alias in node.names:
                yield fname[:-3], module.rpartition(".")[2], alias.name


def test_only_harness_imports_config_error():
    """__init__ re-exports every error; no other module but harness takes it."""
    importers = {m for m, _, name in _imports() if name == "ConfigError"}
    assert importers - {"__init__"} == {"harness"}


def test_private_imports_are_exactly_the_listed_seams():
    found = {}
    for module, source, name in _imports():
        if name.startswith("_"):
            found.setdefault(module, {}).setdefault(source, set()).add(name)
    assert found == PRIVATE_IMPORTS
