"""Layering of the package, read from the source.

Only `harness` reads configs, so only it raises ConfigError; the other
modules export plain tables and functions. A private name one module takes
from another is a seam between them, so each one is listed here: a new
seam is a decision to make in review, not a side effect of an edit. So is
every name the package exports.
"""
import ast
import inspect
import os

import fixedlab

SRC = os.path.dirname(fixedlab.__file__)

#: module -> {sibling module: the private names it imports from it}
PRIVATE_IMPORTS = {
    "conditions": {"mappings": {"_evaluate_rows"},
                   "vecspace": {"_norm_last_axis", "_read_numbers"}},
    "harness": {"conditions": {"_CHECKS", "_checks"}, "iterate": {"_fmt", "_write_csv"},
                "schedules": {"_KINDS"}},
    "iterate": {"mappings": {"_image", "_images", "_reader"},
                "vecspace": {"_convex_steps", "_kernel", "_norm_last_axis", "_read_numbers"}},
    "mappings": {"vecspace": {"_freeze"}},
    "schedules": {"vecspace": {"_read_numbers"}},
}


#: every public name `fixedlab` exports, its submodules aside
PUBLIC_NAMES = {
    # errors
    "ConfigError", "ContractViolation", "DomainError", "FixedLabError",
    "InvalidInputError", "InvariantError", "IterationRuntimeError", "PreconditionError",
    # vecspace and verdicts
    "Domain", "NormKind", "SamplePlan", "Vector", "as_vector", "convex_combination",
    "dist", "norm", "pairwise_norm", "sample", "Verdict", "Witness",
    # mappings
    "GALLERY_AFFINE_MATRIX", "GALLERY_AFFINE_SHIFT", "GALLERY_BALL", "GALLERY_BOX",
    "Mapping", "MappingFamily", "affine_map", "builtin_gallery", "check_commuting",
    "common_fixed_points", "compose", "constant_map", "evaluate", "example1_map",
    "identity_map", "make_family", "piecewise_map", "register_mapping",
    "rotation_scaling_map", "scaling_map", "translation_map",
    # conditions
    "BGammaMu", "SweepCell", "SweepTable", "check_condition_B", "check_condition_C",
    "check_condition_C_lambda", "check_lemma3", "check_nonexpansive", "check_prop1",
    "check_quasi_nonexpansive", "sweep_condition_B",
    # schedules
    "DEFAULT_TENT", "AlphaSchedule", "ConstantSchedule", "DecaySchedule",
    "ScheduleReport", "TentSchedule", "verify_schedule",
    # iterate
    "GapReport", "IterationConfig", "Trace", "TraceStep", "asymptotic_radius",
    "goebel_kirk_gap", "krasnoselskii_run", "monotone_distance_check", "multi_map_run",
    "multi_map_weights", "replay_trace", "residual_vanishes_check", "trace_to_csv",
    "truncated_family_run", "truncated_weights",
    # harness
    "ExperimentConfig", "build_mapping", "load_config", "main", "run_command",
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


def test_public_names_are_exactly_the_listed_exports():
    exported = {name for name, v in vars(fixedlab).items()
                if not name.startswith("_") and not inspect.ismodule(v)}
    assert exported == PUBLIC_NAMES
