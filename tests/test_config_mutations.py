"""Property: one mutation of a shipped config never crashes the CLI.

A mutation drops one key or list entry, retypes one value (string, bool,
null, list), negates one number or writes the literal 1e400 in its place.
Whatever the mutant, `main` exits 0, 1, 2 or 3 without a traceback; exit 0
or 1 writes exactly one report whose `passed` matches the code, and exit 2
or 3 leaves the out directory without a single file.
"""
import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fixedlab import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

#: Subcommand per shipped config; five_scalings_tent (10**4 steps) is left
#: out to keep the property cheap.
COMMANDS = {"affine_contraction": "run", "constant_schedule": "schedule",
            "example1": "run", "example1_check": "check",
            "example1_sweep": "sweep", "tent_schedule": "schedule",
            "three_scalings": "run", "truncated_family": "run"}


def _load(name: str) -> dict:
    with open(os.path.join(CONFIGS, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


RAW = {name: _load(name) for name in COMMANDS}

OVERFLOW = "<1e400>"   # stands for the literal, which no Python value dumps as


def _paths(node, prefix=()):
    """Key paths to every value below the root, parents before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


def _mutant(raw, path, op) -> str:
    doc = json.loads(json.dumps(raw))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    if op == "drop":
        del parent[key]
    else:
        parent[key] = {"string": "x" if isinstance(value, str) else str(value),
                       "bool": True, "null": None, "list": [value],
                       "negate": -value if isinstance(value, (int, float)) else value,
                       "1e400": OVERFLOW}[op]
    return json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400")


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    path = draw(st.sampled_from(list(_paths(RAW[name]))))
    op = draw(st.sampled_from(
        ["drop", "string", "bool", "null", "list", "negate", "1e400"]))
    return name, path, op


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutations())
def test_mutated_config_gets_a_documented_exit(mutation):
    name, path, op = mutation
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(_mutant(RAW[name], path, op))
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([COMMANDS[name], "--config", config, "--out", out,
                         "--quiet"])
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        written = sorted(os.listdir(out)) if os.path.isdir(out) else []
        if code >= 2:
            assert written == [], err.getvalue()
            return
        reports = [f for f in written if f.endswith(".json")]
        assert len(reports) == 1 and all(
            f.endswith(".csv") for f in written if f not in reports)
        with open(os.path.join(out, reports[0]), encoding="utf-8") as fh:
            assert json.load(fh)["passed"] == (code == 0)
