"""Span tracing of fixedlab from outside the package.

`Tracer.install` replaces public functions at fixedlab's module boundaries
with wrappers that record one span per call: (id, name, parent id, start,
end). Spans stay in memory until `fold` turns them, together with counters
taken from arguments and results, into the per-layer metrics of one pass.
`uninstall` puts every original back. Nothing inside `src/` is edited.

A span is named `<module>.<operation>`, where the module is the fixedlab
module that owns the function. Self time is a span's duration minus the
durations of its direct children, so the self times of all spans in a pass
partition the traced time and give each module's share.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np

from fixedlab import conditions, harness, iterate, mappings, schedules, vecspace

MODULES = ("vecspace", "mappings", "conditions", "schedules", "iterate",
           "harness")

# Unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "vecspace.pairwise_norm_s": "s",
    "vecspace.pairwise_norm_entries": "count",
    "vecspace.pairwise_norm_bytes_computed": "B",
    "vecspace.sample_s": "s",
    "vecspace.sample_points": "count",
    "vecspace.dist_calls": "count",
    "vecspace.dist_s": "s",
    "vecspace.contains_calls": "count",
    "mappings.fn_calls": "count",
    "mappings.evaluate_s": "s",
    "mappings.make_family_s": "s",
    "conditions.check_s": "s",
    "conditions.sweep_s": "s",
    "conditions.pairs_total": "count",
    "conditions.pairs_per_s": "1/s",
    "conditions.cells_evaluated": "count",
    "conditions.cells_skipped": "count",
    "conditions.scan_useful_ratio": "ratio",
    "schedules.verify_s": "s",
    "schedules.values": "count",
    "schedules.alpha_calls": "count",
    "schedules.alpha_us": "us",
    "iterate.engine_s": "s",
    "iterate.steps": "count",
    "iterate.step_us": "us",
    "iterate.records": "count",
    "iterate.replay_s": "s",
    "iterate.replay_pairs": "count",
    "iterate.replay_coverage": "ratio",
    "iterate.gap_s": "s",
    "iterate.diagnostics_s": "s",
    "iterate.csv_s": "s",
    "iterate.csv_bytes": "B",
    "harness.load_config_s": "s",
    "harness.self_s": "s",
    "harness.report_bytes": "B",
    "harness.invocations": "count",
    "harness.failed": "count",
    **{f"share.{m}": "ratio" for m in MODULES},
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}

_CHECKS = ("check_nonexpansive", "check_quasi_nonexpansive", "check_lemma3",
           "check_condition_C", "check_condition_C_lambda",
           "check_condition_B", "check_prop1")
_ENGINES = ("krasnoselskii_run", "multi_map_run", "truncated_family_run")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.counts: Counter = Counter()
        self.verdicts: list = []   # (mapping, plan, verdict) of each pair scan
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end))
            if post is not None:
                post(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, post=None) -> None:
        original = owner.__dict__.get(attr)
        if original is None:   # a refactor removed the name: trace what exists
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, post))

    def install(self) -> None:
        c = self.counts

        def counted_fn(fn):
            def counted(x):
                c["mappings.fn_calls"] += 1
                return fn(x)
            return counted

        def on_mapping(args, m):
            m.fn = counted_fn(m.fn)

        def on_verdict(args, v):
            self.verdicts.append((args[0], args[-1], v))

        def on_sweep(args, table):
            for cell in table.cells:
                if cell.verdict is None:
                    c["conditions.cells_skipped"] += 1
                else:
                    c["conditions.cells_evaluated"] += 1
                    self.verdicts.append((args[0], args[3], cell.verdict))

        def on_engine(args, trace):
            c["iterate.steps"] += trace.total_steps
            c["iterate.records"] += len(trace.records)

        def on_replay(args, v):
            c["iterate.replay_pairs"] += v.checked_pairs

        def on_csv(args, result):
            if isinstance(args[1], str):
                c["iterate.csv_bytes"] += os.path.getsize(args[1])

        def on_verify(args, rep):
            c["schedules.values"] += rep.horizon - rep.window_start + 1

        def on_pairwise(args, result):
            a, b = args[0], args[1]
            c["vecspace.pairwise_norm_entries"] += len(a) * len(b)
            c["vecspace.pairwise_norm_bytes_computed"] += \
                len(a) * len(b) * a.shape[1] * np.dtype(float).itemsize

        def on_sample(args, pts):
            c["vecspace.sample_points"] += len(pts)

        self._patch(harness, "main", "harness.main")
        self._patch(harness, "load_config", "harness.load_config")
        self._patch(harness, "build_mapping", "mappings.build_mapping", on_mapping)
        self._patch(harness, "make_family", "mappings.make_family")
        for attr in _CHECKS:
            self._patch(harness, attr, "conditions.check", on_verdict)
        self._patch(harness, "sweep_condition_B", "conditions.sweep", on_sweep)
        for attr in _ENGINES:
            self._patch(harness, attr, "iterate.engine", on_engine)
        self._patch(harness, "replay_trace", "iterate.replay", on_replay)
        self._patch(harness, "goebel_kirk_gap", "iterate.gap")
        for attr in ("monotone_distance_check", "residual_vanishes_check"):
            self._patch(harness, attr, "iterate.diagnostics")
        self._patch(harness, "trace_to_csv", "iterate.csv", on_csv)
        self._patch(harness, "verify_schedule", "schedules.verify", on_verify)
        for mod in (conditions, iterate, mappings):
            self._patch(mod, "pairwise_norm", "vecspace.pairwise_norm", on_pairwise)
            self._patch(mod, "sample", "vecspace.sample", on_sample)
            self._patch(mod, "dist", "vecspace.dist")
        self._patch(conditions, "evaluate", "mappings.evaluate")
        self._patch(mappings, "evaluate", "mappings.evaluate")
        self._patch(vecspace.Domain, "contains", "vecspace.contains")
        for cls in (schedules.ConstantSchedule, schedules.DecaySchedule,
                    schedules.TentSchedule):
            self._patch(cls, "alpha", "schedules.alpha")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- folding ----------------------------------------------------------

    def fold(self, pass_s: float, report_bytes: int, invocations: int,
             failed: int) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last fold.

        Call with the tracer uninstalled: locating witness rows samples
        the plan again. Clears the spans, counters and verdicts.
        """
        child = defaultdict(float)
        for sid, name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, name, parent, start, end in self.spans:
            incl[name] += end - start
            self_s[name] += end - start - child[sid]
            calls[name] += 1
        c = self.counts

        pairs = sum(v.checked_pairs for _, _, v in self.verdicts)
        useful = sum(_useful_pairs(T, plan, v) for T, plan, v in self.verdicts)
        scan_s = incl["conditions.check"] + incl["conditions.sweep"]
        steps = c["iterate.steps"]
        alpha_calls = calls["schedules.alpha"]
        module_self = defaultdict(float)
        for name, s in self_s.items():
            module_self[name.split(".")[0]] += s

        m = {
            "vecspace.pairwise_norm_s": incl["vecspace.pairwise_norm"],
            "vecspace.pairwise_norm_entries": c["vecspace.pairwise_norm_entries"],
            "vecspace.pairwise_norm_bytes_computed":
                c["vecspace.pairwise_norm_bytes_computed"],
            "vecspace.sample_s": incl["vecspace.sample"],
            "vecspace.sample_points": c["vecspace.sample_points"],
            "vecspace.dist_calls": calls["vecspace.dist"],
            "vecspace.dist_s": incl["vecspace.dist"],
            "vecspace.contains_calls": calls["vecspace.contains"],
            "mappings.fn_calls": c["mappings.fn_calls"],
            "mappings.evaluate_s": incl["mappings.evaluate"],
            "mappings.make_family_s": incl["mappings.make_family"],
            "conditions.check_s": self_s["conditions.check"],
            "conditions.sweep_s": self_s["conditions.sweep"],
            "conditions.pairs_total": pairs,
            "conditions.pairs_per_s": pairs / scan_s if scan_s else 0.0,
            "conditions.cells_evaluated": c["conditions.cells_evaluated"],
            "conditions.cells_skipped": c["conditions.cells_skipped"],
            "conditions.scan_useful_ratio": useful / pairs if pairs else 0.0,
            "schedules.verify_s": incl["schedules.verify"],
            "schedules.values": c["schedules.values"],
            "schedules.alpha_calls": alpha_calls,
            "schedules.alpha_us":
                incl["schedules.alpha"] / alpha_calls * 1e6 if alpha_calls else 0.0,
            "iterate.engine_s": incl["iterate.engine"],
            "iterate.steps": steps,
            "iterate.step_us": incl["iterate.engine"] / steps * 1e6 if steps else 0.0,
            "iterate.records": c["iterate.records"],
            "iterate.replay_s": incl["iterate.replay"],
            "iterate.replay_pairs": c["iterate.replay_pairs"],
            "iterate.replay_coverage":
                c["iterate.replay_pairs"] / steps if steps else 0.0,
            "iterate.gap_s": incl["iterate.gap"],
            "iterate.diagnostics_s": incl["iterate.diagnostics"],
            "iterate.csv_s": incl["iterate.csv"],
            "iterate.csv_bytes": c["iterate.csv_bytes"],
            "harness.load_config_s": incl["harness.load_config"],
            "harness.self_s": self_s["harness.main"],
            "harness.report_bytes": report_bytes,
            "harness.invocations": invocations,
            "harness.failed": failed,
            **{f"share.{mod}": module_self[mod] / pass_s for mod in MODULES},
        }
        self.spans.clear()
        self.counts.clear()
        self.verdicts.clear()
        return m


def _useful_pairs(T, plan, v) -> int:
    """Pairs up to and including the witness's row; all pairs on a pass.

    A scan that stopped at the first violating row would have computed
    only these; the rest of a failing scan is wasted work.
    """
    if v.passed:
        return v.checked_pairs
    pts = np.stack(vecspace.sample(T.domain, plan))
    row = int(np.flatnonzero(np.all(pts == np.asarray(v.witness.x), axis=1))[0])
    return (row + 1) * (v.checked_pairs // len(pts))
