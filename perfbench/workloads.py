"""The benchmark's three workloads, as generated fixedlab configs.

Each workload is a fixed list of CLI invocations. The configs are written
out by this module rather than read from the repository's `configs/`
directory, so a later edit there cannot silently change what the benchmark
measures. The copies of shipped configs below equal the repository's files
of the same name at the commit that recorded `expected.json`.

The workload seed reaches the program only as the random plan's `seed` in
`scan` invocation 4; every other input is the same for every seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

WORKLOADS = ("scan", "iterate", "schedule")

# The invocation whose echoed config is replayed once per run: cheap ones
# that still carry what the echo must reproduce (failing witnesses, a
# family run's trace CSV, a schedule report).
REPLAYED = {"scan": "scan_example1_check", "iterate": "truncated_family",
            "schedule": "tent_schedule"}


@dataclass(frozen=True)
class Invocation:
    command: str   # fixedlab subcommand
    config: dict   # the config document; its "name" names the report files

    @property
    def name(self) -> str:
        return self.config["name"]


_AFFINE = {"name": "affine", "matrix": [[0.6, 0.1], [-0.1, 0.5]],
           "shift": [0.2, -0.1], "label": "affine_contraction"}
_BOX2 = {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
         "norm": "l2"}
_BALL2 = {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0, "norm": "l2"}
_SHIPPED_TENT = {"kind": "tent", "peak": 0.25, "first_block_length": 343,
                 "growth": 1.6}
_FIVE_SCALINGS = [{"name": "scaling", "factor": f}
                  for f in (0.99, 0.98, 0.97, 0.96, 0.95)]


def _scan(seed: int) -> list[Invocation]:
    grid40 = {"mode": "grid", "resolution": 40, "epsilon": 1e-9}
    return [
        Invocation("check", {
            "name": "scan_affine_check",
            "domain": _BOX2, "mappings": [_AFFINE], "plan": grid40,
            "checks": ["nonexpansive", "condition_C",
                       {"check": "condition_B", "gamma": 0.7, "mu": 0.35},
                       {"check": "prop1", "theta": 0.7, "gamma": 0.7,
                        "mu": 0.35}]}),
        Invocation("sweep", {
            "name": "scan_affine_sweep",
            "domain": _BOX2, "mappings": [_AFFINE], "plan": grid40,
            "sweep": {"gamma_grid": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                      "mu_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
                      "pairing": "cross"}}),
        Invocation("check", {
            "name": "scan_example1_check",
            "domain": {"shape": "box", "lower": [0.0], "upper": [4.0],
                       "norm": "l2"},
            "mappings": [{"name": "example1"}],
            "plan": {"mode": "grid", "resolution": 2001, "epsilon": 1e-9},
            "checks": ["nonexpansive", "condition_C",
                       {"check": "condition_B", "gamma": 0.7, "mu": 0.35}]}),
        Invocation("check", {
            "name": "scan_l1_random_check",
            "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0,
                       "norm": "l1"},
            "mappings": [{"name": "scaling", "factor": 0.8}],
            "plan": {"mode": "random", "seed": seed, "count": 1500,
                     "epsilon": 1e-9},
            "checks": ["nonexpansive",
                       {"check": "condition_B", "gamma": 0.5, "mu": 0.25}]}),
    ]


def _iterate() -> list[Invocation]:
    grid4 = {"mode": "grid", "resolution": 4, "epsilon": 1e-9}
    return [
        Invocation("run", {   # configs/five_scalings_tent.json
            "name": "five_scalings_tent", "domain": _BALL2,
            "mappings": _FIVE_SCALINGS, "plan": grid4, "engine": "multi",
            "horizon": 10000, "schedule": _SHIPPED_TENT,
            "iteration": {"lambda": 0.5, "x0": [0.6, 0.3], "max_iters": 10000,
                          "residual_tol": 0.0, "record_every": 1}}),
        Invocation("run", {
            "name": "iterate_long_tent", "domain": _BALL2,
            "mappings": [{"name": "scaling", "factor": f}
                         for f in (0.999, 0.998, 0.997)],
            "plan": grid4, "engine": "multi",
            "schedule": {"kind": "tent", "peak": 0.25,
                         "first_block_length": 200, "growth": 1.0},
            "iteration": {"lambda": 0.5, "x0": [0.6, 0.3], "max_iters": 20000,
                          "residual_tol": 0.0, "record_every": 100}}),
        Invocation("run", {   # configs/truncated_family.json
            "name": "truncated_family", "domain": _BALL2,
            "mappings": _FIVE_SCALINGS, "plan": grid4, "engine": "truncated",
            "schedule": _SHIPPED_TENT,
            "iteration": {"lambda": 0.5, "x0": [0.6, 0.3], "max_iters": 500,
                          "residual_tol": 0.0, "record_every": 1,
                          "truncation_K": 2}}),
        Invocation("run", {   # configs/affine_contraction.json
            "name": "affine_contraction", "domain": _BOX2,
            "mappings": [_AFFINE], "engine": "single",
            "iteration": {"lambda": 0.9, "x0": [0.9, -0.9], "max_iters": 200,
                          "residual_tol": 1e-10, "record_every": 1}}),
    ]


def _schedule() -> list[Invocation]:
    return [
        Invocation("schedule", {
            "name": "schedule_flat_tent",
            "schedule": {"kind": "tent", "peak": 0.25,
                         "first_block_length": 600, "growth": 1.0},
            "horizon": 100000}),
        Invocation("schedule", {   # configs/tent_schedule.json
            "name": "tent_schedule", "schedule": _SHIPPED_TENT,
            "horizon": 100000}),
        Invocation("schedule", {
            "name": "schedule_decay",
            "schedule": {"kind": "decay", "scale": 0.5, "rate": 0.5},
            "horizon": 1000000}),
    ]


def invocations(workload: str, seed: int) -> list[Invocation]:
    if workload == "scan":
        return _scan(seed)
    if workload == "iterate":
        return _iterate()
    if workload == "schedule":
        return _schedule()
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def write_configs(invs: list[Invocation], directory: str) -> list[str]:
    """Write each invocation's config as JSON; return the paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for inv in invs:
        path = os.path.join(directory, f"{inv.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh, indent=2)
        paths.append(path)
    return paths
