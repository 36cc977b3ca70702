"""Properties: one mutation of a shipped config never crashes the CLI, and
one misspelt or unknown key is always refused.

A mutation drops one key or list entry, retypes one value (string, bool,
null, list), negates one number or writes the literal 1e400 in its place.
Whatever the mutant, `main` exits 0, 1, 2 or 3 without a traceback; exit 0
or 1 writes exactly one report whose `passed` matches the code, and exit 2
or 3 leaves the out directory without a single file.

A key mutation renames one key of one object by one letter, or inserts a
key that no object takes. Every such mutant exits 2 with a message naming
the key path, and writes no file. So does a mapping parameter of the wrong
type: a string factor or a label that is not a string.
"""
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import assume, given, settings
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
        assert "internal error:" not in err.getvalue()
        written = sorted(os.listdir(out)) if os.path.isdir(out) else []
        if code >= 2:
            assert written == [], err.getvalue()
            return
        reports = [f for f in written if f.endswith(".json")]
        assert len(reports) == 1 and all(
            f.endswith(".csv") for f in written if f not in reports)
        with open(os.path.join(out, reports[0]), encoding="utf-8") as fh:
            assert json.load(fh)["passed"] == (code == 0)


#: Every shipped config, with the subcommand that reads all of its sections.
ALL = {**COMMANDS, "five_scalings_tent": "run"}
RAW_ALL = {name: _load(name) for name in ALL}

#: The key that picks an object's row, by the top-level section it sits in.
TAGS = {"domain": "shape", "plan": "mode", "schedule": "kind",
        "checks": "check", "mappings": "name"}


def _objects(node, path=()):
    """Key paths to every JSON object in the tree, the root included."""
    if isinstance(node, dict):
        yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _objects(value, (*path, key))


def _render(path) -> str:
    """A key path as the loader's messages write it: checks[2].gamma."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


@st.composite
def key_mutations(draw):
    name = draw(st.sampled_from(sorted(ALL)))
    path = draw(st.sampled_from(list(_objects(RAW_ALL[name]))))
    doc = json.loads(json.dumps(RAW_ALL[name]))
    obj = doc
    for key in path:
        obj = obj[key]
    if draw(st.booleans()):   # rename one key by one letter
        old = draw(st.sampled_from(sorted(obj)))
        i = draw(st.integers(0, len(old) - 1))
        new = old[:i] + draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz")) + old[i + 1:]
        assume(new not in obj)
        items = list(obj.items())
        obj.clear()
        obj.update((new if k == old else k, v) for k, v in items)
        tag = TAGS.get(path[0]) if path and len(path) <= 2 else None
        # a renamed tag leaves the object with no row to read it by
        expected = _render(path) if old == tag else _render((*path, new))
    else:                     # insert a key that no object takes
        new = draw(st.sampled_from(["foo", "lable", "record_evry", "pairng"]))
        obj[new] = draw(st.sampled_from([0.5, "x", None, [1]]))
        expected = _render((*path, new))
    return name, doc, expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(key_mutations())
def test_misspelt_or_unknown_key_exits_2_naming_its_path(mutation):
    name, doc, expected = mutation
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([ALL[name], "--config", config, "--out", out, "--quiet"])
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith(f"config error: {expected}"), err.getvalue()
        assert not (os.path.isdir(out) and os.listdir(out))


@pytest.mark.parametrize("key,value", [("factor", "0.5"), ("label", ["a"]),
                                       ("factor", True), ("label", 3)])
def test_a_wrong_typed_mapping_value_exits_2_naming_its_path(key, value):
    """A builder would take float("0.5") and any label; the reader may not."""
    doc = json.loads(json.dumps(RAW_ALL["three_scalings"]))
    doc["mappings"][0][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "three_scalings.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", config, "--out", out, "--quiet"])
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith(f"config error: mappings[0].{key}: expected a"), \
            err.getvalue()
        assert not (os.path.isdir(out) and os.listdir(out))


def _numbers_in_lists(node, path=()):
    """Key paths to every number that is an element of a list."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        if isinstance(node, list) and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            yield (*path, key)
        yield from _numbers_in_lists(value, (*path, key))


#: One mutant per number inside a list of a shipped config, that number
#: written as its decimal string: a coordinate, a matrix entry, a grid value.
STRING_NUMBERS = [(name, path) for name in sorted(ALL)
                  for path in _numbers_in_lists(RAW_ALL[name])]

#: Coordinate keys no shipped config holds, on top of a shipped config.
EXTRA_LISTS = {
    "constant-value": ("three_scalings", {"name": "constant", "value": [0.1, 0.2]},
                       ("value", 1)),
    "translation-offset": ("three_scalings",
                           {"name": "translation", "offset": [0.1, 0.2]}, ("offset", 0)),
    "fixed-point": ("three_scalings", {"name": "scaling", "factor": 1.0,
                                       "fixed_points": [[0.0, 0.0], [0.5, 0.5]]},
                    ("fixed_points", 1, 0)),
    "piecewise-case": ("example1_check", {"name": "piecewise", "default": 0.0,
                                          "cases": [[4.0, 2.0], [1.0, 0.5]]},
                       ("cases", 1, 1)),
}


def _exits_2_naming(name, doc, expected):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([ALL[name], "--config", config, "--out", out, "--quiet"])
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith(f"config error: {expected}: expected a number"), \
            err.getvalue()
        assert not (os.path.isdir(out) and os.listdir(out))


def _as_string(doc, path):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = str(parent[path[-1]])
    return doc


@pytest.mark.parametrize("name,path", STRING_NUMBERS,
                         ids=[f"{n}-{_render(p)}" for n, p in STRING_NUMBERS])
def test_a_number_in_a_list_written_as_a_string_exits_2_naming_its_path(name, path):
    """np.asarray(["0"], dtype=float) would read the string as 0.0."""
    doc = _as_string(json.loads(json.dumps(RAW_ALL[name])), path)
    _exits_2_naming(name, doc, _render(path))


@pytest.mark.parametrize("case", sorted(EXTRA_LISTS))
def test_a_mapping_coordinate_written_as_a_string_exits_2_naming_its_path(case):
    name, descriptor, path = EXTRA_LISTS[case]
    doc = json.loads(json.dumps(RAW_ALL[name]))
    doc["mappings"] = [descriptor]
    _exits_2_naming(name, _as_string(doc, ("mappings", 0, *path)),
                    _render(("mappings", 0, *path)))
