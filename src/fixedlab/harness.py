"""Config-driven command line: check, run, schedule, sweep.

One JSON document describes an experiment (domain, mappings, sample plan,
schedule, iteration settings, checks or sweep grids); each subcommand
consumes the parts it needs and writes a JSON report next to any CSV
output. Reports echo the fully resolved config, and feeding that echo back
in reproduces every verdict and trace byte for byte — wall-clock duration
is the one field that may differ. This is the only module that reads
configs: its parse steps and tables hold the whole config syntax.

Exit codes: 0 all verdicts passed, 1 some check failed, 2 the config could
not be resolved (missing, wrong-typed or non-finite values included), 3 an
engine failed mid-run, a computed report value was not finite or an
unexpected internal error occurred. Files are written only once the report
passes its checks, so exit 2 or 3 leaves none (barring an I/O failure).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Optional

from .conditions import _CHECKS, _checks, sweep_condition_B
from .errors import (ConfigError, ContractViolation, InvariantError,
                     IterationRuntimeError, PreconditionError)
from .iterate import (IterationConfig, goebel_kirk_gap,
                      krasnoselskii_run, monotone_distance_check,
                      multi_map_run, replay_trace, residual_vanishes_check,
                      trace_to_csv, truncated_family_run, _fmt, _write_csv)
from .mappings import (Mapping, affine_map, constant_map, example1_map,
                       identity_map, make_family, piecewise_map,
                       register_mapping, rotation_scaling_map, scaling_map,
                       translation_map)
from .schedules import AlphaSchedule, _KINDS, verify_schedule
from .vecspace import Domain, SamplePlan

__all__ = ["ExperimentConfig", "build_mapping", "load_config", "run_command", "main"]


@dataclass
class ExperimentConfig:
    """A parsed experiment: resolved objects plus the re-serializable echo."""

    name: str
    echo: dict
    domain: Optional[Domain] = None
    mappings: list[Mapping] = field(default_factory=list)
    plan: Optional[SamplePlan] = None
    schedule: Optional[AlphaSchedule] = None
    horizon: Optional[int] = None
    iteration: Optional[IterationConfig] = None
    x0: Optional[tuple[float, ...]] = None
    engine: Optional[str] = None
    checks: list[dict] = field(default_factory=list)
    sweep: Optional[dict] = None
    out: dict = field(default_factory=dict)


# Parse steps: parse(value, its key path) is the value as the program reads
# it, or a ConfigError naming the path.

_REQUIRED = object()


def _any(value, at: str):
    """The parse step that takes a value as given, for its builder to check."""
    return value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _test(ok, expected: str, read=lambda v: v):
    """The parse step that reads v where ok(v) holds."""
    def parse(v, at: str):
        if not ok(v):
            raise ConfigError(f"{at}: expected {expected}, got {v!r}")
        return read(v)
    return parse


_number = _test(_is_number, "a number")
_count = _test(lambda v: _is_number(v) and v == int(v), "a whole number", int)
_list = _test(lambda v: isinstance(v, list), "a list")
# a file name is joined to --out, so it must name no other directory
_file_name = _test(lambda v: isinstance(v, str) and v not in ("", ".", "..")
                   and os.path.basename(v) == v and "\0" not in v,
                   "a plain file name")


def _one_of(*options):
    return _test(lambda v: v in options, f"one of {', '.join(map(repr, options))}")


def _nullable(parse):
    return lambda v, at: None if v is None else parse(v, at)


def _at_least(least: int):
    """The parse step of a whole number >= least."""
    return _test(lambda v: _is_number(v) and v == int(v) and v >= least,
                 f"a whole number >= {least}", int)


def _at_most(parse, bound: int):
    """The parse step that reads v by parse and refuses it above bound."""
    def read(v, at: str):
        if (v := parse(v, at)) > bound:
            raise ConfigError(f"{at}: {v} is above the bound of {bound}")
        return v
    return read


def _list_of(item, expected: str, empty: bool = False):
    """The parse step of a JSON list, non-empty unless `empty`, whose every
    element item parses at its own path at[i]."""
    def parse(v, at: str):
        if not isinstance(v, list) or not (v or empty):
            raise ConfigError(f"{at}: expected {expected}, got {v!r}")
        return [item(e, f"{at}[{i}]") for i, e in enumerate(v)]
    return parse


#: Coordinate lists, every element a JSON number (a bool or a string is
#: refused): a point, a matrix, a list of points, a list of [x, value] pairs
#: (whose length piecewise_map checks).
_vector = _list_of(_number, "a non-empty list of numbers")
_matrix = _list_of(_vector, "a non-empty list of rows")
_points = _list_of(_vector, "a list of points", empty=True)
_pairs = _list_of(_list_of(_number, "an [x, value] pair"), "a list of [x, value] pairs",
                  empty=True)


def _point(v, at: str) -> tuple[float, ...]:
    return tuple(map(float, _vector(v, at)))


def _read(node, where: str, keys: dict, error=ConfigError) -> list:
    """The JSON object `node` read by `keys`, which maps each key node may
    hold to (parse, default): one value per key, parse(value, its key path)
    if given, else the default, and an error if that is _REQUIRED. A key
    that `keys` does not name is refused. Every error names its path."""
    if not isinstance(node, dict):
        raise error(f"{where}: expected an object, got {node!r}")
    prefix = f"{where}." if where else ""
    for key in node:
        if key not in keys:
            raise error(f"{prefix}{key}: unknown key; known: {', '.join(keys)}")
    for key, (_, default) in keys.items():
        if default is _REQUIRED and key not in node:
            raise error(f"{where}: missing required field {key!r}")
    return [parse(node[key], prefix + key) if key in node else default
            for key, (parse, default) in keys.items()]


def _pick(node, where: str, tag: str, rows: dict, error=ConfigError):
    """(make, values): the row (make, keys) of `rows` that node[tag] names,
    and the values `_read` takes from node by that row's keys."""
    if not isinstance(node, dict) or tag not in node:
        raise error(f"{where}: expected an object with a {tag!r}, got {node!r}")
    if not isinstance(node[tag], str) or node[tag] not in rows:
        raise error(f"{where}: unknown {tag} {node[tag]!r}; known: {', '.join(rows)}")
    make, keys = rows[node[tag]]
    return make, _read(node, where, {tag: (_any, _REQUIRED), **keys}, error)[1:]


def _section(tag: Optional[str], rows):
    """The parse step of a config object: node[tag] picks its row (make,
    keys) of `rows`, or, with no tag, rows is the row. The object read is
    make(*values), or, where make is None, a copy of node as written."""
    def parse(node, at: str):
        make, values = (_pick(node, at, tag, rows) if tag
                        else (rows[0], _read(node, at, rows[1])))
        try:   # a bad value is reported as a ConfigError naming `at`
            return make(*values) if make else dict(node)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{at}: {exc}") from exc
    return parse


def _reject_non_finite(node, where: str,
                       error: Callable[[str], Exception] = ConfigError) -> None:
    """Raise error(message naming the key path) on the first number in the
    tree with no finite float value: NaN, an infinity (1e400 parses to inf)
    or an int too large for a float (1 and 400 zeros)."""
    if isinstance(node, float) and not math.isfinite(node):
        raise error(f"{where}: non-finite number {node!r}")
    if isinstance(node, int):
        try:
            float(node)
        except OverflowError:
            raise error(f"{where}: integer of {len(str(abs(node)))} digits "
                        "is too large for a float") from None
    if isinstance(node, dict):
        for k, v in node.items():
            _reject_non_finite(v, f"{where}.{k}" if where else str(k), error)
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _reject_non_finite(v, f"{where}[{i}]", error)


# The config's tables. A row (make, keys) reads an object: keys maps each key
# it may hold to (parse step, default or _REQUIRED), in make's argument order.

_ANY, _NUMBER, _COUNT = (_any, _REQUIRED), (_number, _REQUIRED), (_count, _REQUIRED)
_VECTOR = (_vector, _REQUIRED)   # every coordinate list names its element paths

_DOMAINS = {
    "box": (Domain.box, {"lower": _VECTOR, "upper": _VECTOR, "norm": (_any, "l2")}),
    "ball": (Domain.ball, {"center": _VECTOR, "radius": _NUMBER, "norm": (_any, "l2")})}

#: The most points a plan may sample. A scan's memory peaks at 1.08-1.23 kB
#: per point (tracemalloc, condition_B and prop1 at d = 2): 285-325 MB here.
_MAX_PLAN_POINTS = 2**18

#: The longest horizon a config may ask for. The tail window is a quarter
#: of it, and the decay, the slowest kind, takes about 160 ns a value: 4 s.
_MAX_HORIZON = 10**8

#: The most steps a run may take. Five maps take about 28 us a step and a
#: kept record about 0.6 kB: 28 s and a 110 MB peak RSS here.
_MAX_ITERS = 10**6

#: The most (gamma, mu) cells a sweep may have. On a 2-point plan a cell
#: takes about 40 us and 1.6 kB of RSS: 2.5 s and 107 MB here.
_MAX_SWEEP_CELLS = 2**16

_PLANS = {
    "grid": (SamplePlan.grid, {"resolution": _ANY, "epsilon": (_number, 1e-9)}),
    "random": (SamplePlan.random, {"seed": (_at_least(0), _REQUIRED), "count": _COUNT,
                                   "epsilon": (_number, 1e-9)})}

#: kind -> (class, keys): a schedule's keys are its class's fields, all numbers.
_SCHEDULES = {kind: (cls, {f.name: (_number, _REQUIRED if f.default is MISSING else f.default)
                           for f in fields(cls)}) for kind, cls in _KINDS.items()}

#: The iteration section reads as (IterationConfig, x0).
_ITERATION = (lambda *v: (IterationConfig(*v[:-1]), v[-1]), {
    "lambda": _NUMBER, "max_iters": (_at_most(_count, _MAX_ITERS), _REQUIRED),
    "residual_tol": (_number, 0.0), "truncation_K": (_nullable(_count), None),
    "record_every": (_count, 1), "gamma": (_nullable(_number), None),
    "x0": (_nullable(_point), None)})

#: Parse steps of the parameters a builder would take of any type (float("0.5")).
_PARAMS = {"factor": _number, "angle": _number, "default": _number,
           "label": _test(lambda v: isinstance(v, str), "a string"),
           "value": _vector, "shift": _vector, "offset": _vector,
           "matrix": _matrix, "cases": _pairs}


def _descriptor(build) -> tuple:
    """build's row: its parameters after the domain, parsed by _PARAMS, and
    "fixed_points", the one key for extra fixed points (not known_fixed_points)."""
    params = list(inspect.signature(build).parameters.values())[1:]
    return build, {**{p.name: (_PARAMS[p.name],
                               _REQUIRED if p.default is p.empty else p.default)
                      for p in params if p.name != "known_fixed_points"},
                   "fixed_points": (_points, ())}


#: Every builtin mapping a descriptor may name, in the order errors list them.
_MAPPINGS = {name: _descriptor(build) for name, build in {
    "example1": example1_map, "identity": identity_map,
    "constant": constant_map, "affine": affine_map, "scaling": scaling_map,
    "rotation_scaling": rotation_scaling_map, "piecewise": piecewise_map,
    "translation": translation_map}.items()}


def build_mapping(descriptor: dict, domain: Domain) -> Mapping:
    """Construct a mapping on `domain` from a config descriptor.

    descriptor["name"] picks a builder of `_MAPPINGS`: example1, identity,
    constant, affine, scaling, rotation_scaling, piecewise or translation.
    The other keys are its parameters after `domain`, and "fixed_points",
    extra fixed points verified at registration; any other key is refused.
    Errors name the descriptor's key paths from "mapping".
    """
    build, (*args, extra) = _pick(descriptor, "mapping", "name", _MAPPINGS,
                                  ContractViolation)
    m = build(domain, *args)
    if extra:
        # registration verifies them and keeps a re-declared point once
        m.known_fixed_points = register_mapping(
            m.fn, domain, m.label, [*m.known_fixed_points, *extra],
            self_map=False).known_fixed_points
    return m


#: Every check a config may request, in the order error messages list them:
#: the checks of `conditions._CHECKS`, every parameter a number, then
#: "commuting", which certifies the whole family and has no per-map request.
_request = _section("check", {
    **{name: (make, dict.fromkeys(params, _NUMBER))
       for name, (make, params) in _CHECKS.items()},
    "commuting": (lambda: None, {})})


def _check_specs(v, at: str) -> list[dict]:
    """The check entries, each as a spec object once it names a request."""
    specs = [{"check": e} if isinstance(e, str) else e for e in _list(v, at)]
    for i, spec in enumerate(specs):
        _request(spec, f"{at}[{i}]")
    return [dict(spec) for spec in specs]


def load_config(path: str, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Read and resolve a JSON experiment config.

    Each object is read by its table above: every value is parsed, absent
    keys take their defaults, and a key that no row names is refused.
    seed_override replaces the seed of a random sample plan (a no-op for
    grid plans) and is reflected in the echo, so a report always names the
    seed that actually ran. NaN, infinities and literals that overflow to
    infinity are rejected wherever they appear.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    except ValueError as exc:   # e.g. an integer past Python's digit limit
        raise ConfigError(f"config {path!r} cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    plan = raw.get("plan")
    if seed_override is not None and isinstance(plan, dict) and plan.get("mode") == "random":
        raw["plan"] = {**plan, "seed": seed_override}
    _reject_non_finite(raw, "")
    (name, domain, descriptors, plan, schedule, horizon, (iteration, x0), engine,
     checks, sweep, out) = _read(raw, "", {
        "name": (_file_name, os.path.splitext(os.path.basename(path))[0]),
        "domain": (_section("shape", _DOMAINS), None),
        "mappings": (_list, []),
        "plan": (_section("mode", _PLANS), None),
        "schedule": (_section("kind", _SCHEDULES), None),
        "horizon": (_at_most(_at_least(10), _MAX_HORIZON), None),
        "iteration": (_section(None, _ITERATION), (None, None)),
        "engine": (_one_of("single", "multi", "truncated"), None),
        "checks": (_check_specs, []),
        "sweep": (_section(None, (None, {
            "gamma_grid": _VECTOR, "mu_grid": _VECTOR,
            "pairing": (_one_of("cross", "zip"), "cross")})), None),
        "out": (_section(None, (None, dict.fromkeys(
            ("report", "trace", "table"), (_file_name, None)))), {}),
    })
    if "mappings" in raw and domain is None:
        raise ConfigError("mappings given without a domain")
    if plan is not None:   # refused before anything is sampled
        res = plan.resolution or ()
        points = plan.count if plan.mode == "random" else math.prod(
            res * (domain.dimension if domain and len(res) == 1 else 1))
        if points > _MAX_PLAN_POINTS:
            raise ConfigError(
                f"plan.{'count' if plan.mode == 'random' else 'resolution'}: the plan "
                f"samples up to {points} points, above the bound of {_MAX_PLAN_POINTS}")
    if sweep is not None:
        cells = len(sweep["gamma_grid"]) * (
            len(sweep["mu_grid"]) if sweep.get("pairing", "cross") == "cross" else 1)
        if cells > _MAX_SWEEP_CELLS:
            raise ConfigError(f"sweep: the grids make {cells} cells, "
                              f"above the bound of {_MAX_SWEEP_CELLS}")
    mappings = []
    for i, desc in enumerate(descriptors):
        try:
            mappings.append(build_mapping(desc, domain))
        except (ValueError, TypeError) as exc:   # its key paths start at "mapping"
            msg = str(exc)
            raise ConfigError(f"mappings[{i}]{msg[7:]}" if msg.startswith(
                ("mapping.", "mapping:")) else f"mappings[{i}]: {msg}") from exc
    echo = {"name": name, "domain": domain and domain.to_dict(),
            "mappings": [dict(d) for d in descriptors],
            "plan": plan and plan.to_dict(), "schedule": schedule and schedule.to_dict(),
            "horizon": horizon, "iteration": iteration and {
                **iteration.to_dict(), **({"x0": list(x0)} if x0 else {})},
            "engine": engine, "checks": checks, "sweep": sweep, "out": out}
    return ExperimentConfig(name, {k: v for k, v in echo.items() if v}, domain,
                            mappings, plan, schedule, horizon, iteration, x0,
                            engine, checks, sweep, out)


# ---------------------------------------------------------------------------
# subcommands: each returns (report body, verdict, {out key: write(path)})
# and prints through `say`; run_command writes every file
# ---------------------------------------------------------------------------

_Say = Callable[[str], None]


#: How a subcommand reports a config part it needs but did not get.
_MISSING = {"mappings": "names no mappings", "plan": "has no sample plan",
            "checks": "requests no checks",
            "iteration": "has no iteration settings",
            "x0": "gives no iteration x0",
            "schedule": "has no schedule descriptor",
            "horizon": "has no horizon", "sweep": "has no sweep grids"}


def _check(cfg: ExperimentConfig, say: _Say):
    requests = [_request(s, "check") for s in cfg.checks if s["check"] != "commuting"]
    want_commuting = any(s["check"] == "commuting" for s in cfg.checks)
    if want_commuting and len(cfg.mappings) < 2:
        raise ConfigError("check: 'commuting' needs at least two mappings")
    verdicts = []
    for T in cfg.mappings if requests else ():
        for v in _checks(T, cfg.plan, requests):   # one scan per mapping
            verdicts.append({"mapping": T.label, **v.to_dict()})
            say(f"[{'PASS' if v.passed else 'FAIL'}] {T.label}: "
                f"{v.condition_label}{dict(v.params) if v.params else ''}")
    commuting = None
    if want_commuting:
        commuting = make_family(cfg.mappings, cfg.plan).commuting_certificate
        say(f"[{'PASS' if commuting.passed else 'FAIL'}] family: commuting")
    passed = all(v["passed"] for v in verdicts) and (
        commuting is None or commuting.passed)
    return {"verdicts": verdicts,
            "commuting": commuting.to_dict() if commuting else None}, passed, {}


def _run(cfg: ExperimentConfig, say: _Say):
    engine = cfg.engine or ("single" if len(cfg.mappings) == 1 else "multi")
    commuting = None
    if engine == "single":
        if len(cfg.mappings) != 1:
            raise ConfigError(
                f"run: engine 'single' needs exactly one mapping, got {len(cfg.mappings)}")
        subject = cfg.mappings[0]
        trace = krasnoselskii_run(subject, cfg.x0, cfg.iteration)
    else:
        if cfg.schedule is None:
            raise ConfigError(f"run: engine {engine!r} needs a schedule")
        subject = make_family(cfg.mappings, cfg.plan)
        commuting = subject.commuting_certificate
        trace = (multi_map_run if engine == "multi" else truncated_family_run)(
            subject, cfg.schedule, cfg.x0, cfg.iteration)
    gap = goebel_kirk_gap(trace)
    replay = replay_trace(trace, subject)
    monotone = [monotone_distance_check(trace, z) for z in trace.fixed_points]
    residual = residual_note = None
    try:
        residual = residual_vanishes_check(trace)
    except PreconditionError as exc:   # too few records to compare
        residual_note = f"skipped: {exc}"
    schedule_report = None
    if cfg.schedule is not None and cfg.horizon is not None:
        schedule_report = verify_schedule(cfg.schedule, cfg.horizon).to_dict()
    s = trace.summary()
    say(f"stop={s['stop_reason']} steps={s['total_steps']} "
        f"final_residual={s['final_residual']:.3e}")
    return {
        "engine": engine,
        "commuting": commuting.to_dict() if commuting else None,
        "summary": s,
        "diagnostics": {
            "gap_tail_max": gap.tail_max,
            "gap_pairs": len(gap.gaps),
            "replay": replay.to_dict(),
            "monotone": [v.to_dict() for v in monotone],
            "residual_vanishes": residual.to_dict() if residual else None,
            "residual_note": residual_note,
        },
        "schedule_report": schedule_report,
    }, all(v.passed for v in (replay, *monotone, residual, commuting) if v), {
        "trace": lambda path: trace_to_csv(trace, path)}


def _schedule(cfg: ExperimentConfig, say: _Say):
    rep = verify_schedule(cfg.schedule, cfg.horizon)
    say(f"liminf_proxy={rep.liminf_proxy:.6g} "
        f"limsup_proxy={rep.limsup_proxy:.6g} "
        f"diff_proxy={rep.diff_proxy:.6g}")
    for flag in rep.flags():
        say(f"flag: {flag}")
    return {"report": rep.to_dict()}, rep.compliant, {}


def _sweep(cfg: ExperimentConfig, say: _Say):
    if len(cfg.mappings) != 1:
        raise ConfigError(
            f"sweep: config must name exactly one mapping, got {len(cfg.mappings)}")
    table = sweep_condition_B(cfg.mappings[0], cfg.sweep["gamma_grid"],
                              cfg.sweep["mu_grid"], cfg.plan,
                              pairing=cfg.sweep.get("pairing", "cross"))
    rows = table.to_rows()
    csv_rows = (",".join([_fmt(r["gamma"]), _fmt(r["mu"]), r["status"],
                          ";".join(map(_fmt, r["witness_x"] or ())),
                          ";".join(map(_fmt, r["witness_y"] or ())),
                          "" if r["lhs"] is None else _fmt(r["lhs"]),
                          "" if r["rhs"] is None else _fmt(r["rhs"])]) + "\n"
                for r in rows)
    header = ["gamma", "mu", "status", "witness_x", "witness_y", "lhs", "rhs"]
    for c in table.cells:
        say(f"gamma={c.gamma:g} mu={c.mu:g}: {c.status}")
    return ({"mapping": table.mapping_label, "pairing": table.pairing, "cells": rows},
            table.all_passed,
            {"table": lambda path: _write_csv(path, header, csv_rows)})


#: command -> (compute, the config parts it needs, {each output key but the
#: report: its default file suffix}, help text)
_COMMANDS = {
    "check": (_check, ("mappings", "plan", "checks"), {},
              "run condition checks from a config"),
    "run": (_run, ("iteration", "x0", "mappings"), {"trace": "_trace.csv"},
            "execute an iteration experiment"),
    "schedule": (_schedule, ("schedule", "horizon"), {},
                 "verify a blend-weight schedule"),
    "sweep": (_sweep, ("sweep", "plan"), {"table": "_sweep.csv"},
              "sweep the two-parameter condition over grids"),
}


def run_command(command: str, config_path: str, out_dir: Optional[str] = None,
                seed: Optional[int] = None, quiet: bool = False) -> tuple[int, dict]:
    """Run the row of `_COMMANDS` named `command` on the config: (exit code, report)."""
    if command not in _COMMANDS:
        raise ContractViolation(
            f"unknown command {command!r}; known: {', '.join(_COMMANDS)}")
    compute, parts, files, _ = _COMMANDS[command]
    t0 = time.perf_counter()
    cfg = load_config(config_path, seed)
    root = out_dir or "."
    path = {key: os.path.join(root, cfg.out.get(key, f"{cfg.name}{suffix}"))
            for key, suffix in {**files, "report": "_report.json"}.items()}
    owner: dict[str, str] = {}
    for key, p in path.items():
        if owner.setdefault(p, key) != key:
            raise ConfigError(f"out.{owner[p]} and out.{key} both name "
                              f"{os.path.basename(p)!r}")
    for part in parts:
        if not getattr(cfg, part):
            raise ConfigError(f"{command}: config {_MISSING[part]}")
    say: _Say = (lambda msg: None) if quiet else print
    body, passed, writers = compute(cfg, say)
    body.update({f"{key}_csv": os.path.basename(path[key]) for key in files})
    report = {"command": command, "config": cfg.echo, **body, "passed": passed,
              "duration_seconds": time.perf_counter() - t0}
    _reject_non_finite(report, "", InvariantError)   # before any file exists
    os.makedirs(root, exist_ok=True)
    for key, write in writers.items():
        write(path[key])
    with open(path["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    say(f"{'PASS' if passed else 'FAIL'} -> {path['report']}")
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fixedlab",
        description="Empirical fixed-point laboratory: condition checks, "
                    "averaged iteration runs, schedule verification, and "
                    "parameter sweeps, all driven by JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (*_, helptext) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", default=None, help="output directory (default: .)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the random sample plan's seed")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    args = parser.parse_args(argv)
    try:
        code, _ = run_command(args.command, args.config, args.out, args.seed, args.quiet)
        return code
    except IterationRuntimeError as exc:
        print(f"runtime error at step {exc.step}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # ConfigError and every contract violation
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:   # exit 1 means "a check failed", never a crash
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
