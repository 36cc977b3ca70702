"""Averaged fixed-point iteration engines and trace diagnostics.

All engines share one step rule: blend the current images into
w_n = sum_k c_k * T_k(x_n), then average x_{n+1} = lam*w_n + (1-lam)*x_n.
They differ only in how the blend weights c_k are produced:

  krasnoselskii_run     one map, c = (1,)
  multi_map_run         m maps, c_1 = 1 - sum_{k=1}^{m-1} a_n^k,
                        c_k = a_n^{k-1} for k = 2..m
  truncated_family_run  first K maps of a family, c_k = a_n^{k-1} for
                        k = 2..K, and c_1 = 1 - a_n/(1-a_n) + a_n^K/(1-a_n)
                        (the weight mass of the dropped geometric tail is
                        folded into the first map)

Weight vectors are nonnegative and sum to 1 whenever a_n <= 1/2; the
engines assert this once per distinct alpha. Zero weights are skipped in the
blend, so the constant-zero schedule makes every engine execute bit-for-bit
the same arithmetic as `krasnoselskii_run` — degeneracy is an identity here,
not an approximation.

A run stops when the blend residual ||w_n - x_n|| falls to residual_tol,
or after max_iters steps. The Trace records enough per step (iterate,
residuals, blend weight parameter, distances to known common fixed points)
to re-derive everything offline; `replay_trace` does exactly that.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, IO, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (ContractViolation, DomainError, InvariantError,
                     IterationRuntimeError, PreconditionError)
from .mappings import Mapping, MappingFamily, common_fixed_points
from .schedules import AlphaSchedule
from .vecspace import Domain, _blend, _norm_floats, _norm_last_axis, as_vector
from .verdicts import Verdict, Witness

__all__ = [
    "IterationConfig", "TraceStep", "Trace", "GapReport",
    "krasnoselskii_run", "multi_map_run", "truncated_family_run",
    "multi_map_weights", "truncated_weights",
    "goebel_kirk_gap", "monotone_distance_check", "residual_vanishes_check",
    "asymptotic_radius", "replay_trace", "trace_to_csv",
    "DECIMATION_START", "MONOTONE_TOL", "REPLAY_TOL", "WEIGHT_TOL",
]

#: Steps below this index honor record_every as given; from it on the
#: stride is multiplied by 10 to bound trace memory on long runs.
DECIMATION_START = 10_000

MONOTONE_TOL = 1e-12
REPLAY_TOL = 1e-12
WEIGHT_TOL = 1e-12

#: The engines keep the validated weights of at most this many distinct
#: alphas, emptied when full: a growth-1 tent repeats its values, the shipped
#: tent each one at t and L - t of a block. 1024 cost 0.15 MB more peak memory.
_WEIGHT_MEMO = 512

#: The engines norm the distances of this many records in one call; 256 held
#: 0.2 MB more of images on a five-map run, for no measurable speed.
_RECORD_BLOCK = 64

#: The record intervals `replay_trace` runs in one lockstep. A block's
#: arrays stay a few kB, so replay's memory does not grow with the trace: on
#: a 10**4-step five-map trace one lockstep over every interval raised peak
#: RSS by 2.1 MB, blocks of this size by 0.4 MB.
_LOCKSTEP_ROWS = 1024

#: Above this, the averaging floor lam >= gamma is far from the regime the
#: convergence experiments explore; runs proceed but warn.
GAMMA_WARN_THRESHOLD = 0.1

STOP_TOL = "tol"
STOP_MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class IterationConfig:
    """Step rule parameters shared by all engines.

    lam is the averaging weight in (0, 1). When a condition context is
    supplied via `gamma`, lam must additionally satisfy lam >= gamma for
    gamma > 0 (the step rule's admissible range shrinks with gamma).
    truncation_K is only consumed by truncated_family_run.
    """

    lam: float
    max_iters: int
    residual_tol: float = 0.0
    truncation_K: Optional[int] = None
    record_every: int = 1
    gamma: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ContractViolation(f"lam must lie in (0, 1), got {self.lam}")
        for name in ("max_iters", "record_every", "truncation_K"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer, type(None))):
                raise ContractViolation(f"{name} must be an integer, got {v!r}")
        if self.max_iters < 1:
            raise ContractViolation(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0.0 <= self.residual_tol < math.inf):
            raise ContractViolation(
                f"residual_tol must be finite and >= 0, got {self.residual_tol}")
        if self.record_every < 1:
            raise ContractViolation(
                f"record_every must be >= 1, got {self.record_every}")
        if self.truncation_K is not None and self.truncation_K < 1:
            raise ContractViolation(
                f"truncation_K must be >= 1, got {self.truncation_K}")
        if self.gamma is not None:
            if not (0.0 <= self.gamma <= 1.0):
                raise ContractViolation(
                    f"gamma context must lie in [0, 1], got {self.gamma}")
            if self.gamma > 0.0 and self.lam < self.gamma:
                raise ContractViolation(
                    f"lam must be >= gamma when gamma > 0; "
                    f"got lam={self.lam}, gamma={self.gamma}")

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "max_iters": self.max_iters,
                "residual_tol": self.residual_tol,
                "truncation_K": self.truncation_K,
                "record_every": self.record_every, "gamma": self.gamma}


@dataclass(frozen=True)
class TraceStep:
    step: int
    x: tuple[float, ...]
    residual: float                      # ||w_n - x_n||
    map_residuals: tuple[float, ...]     # ||T_k x_n - x_n|| per engine map
    alpha: float
    fp_distances: tuple[float, ...]      # ||x_n - z|| per known fixed point


@dataclass(frozen=True)
class Trace:
    engine: str                          # "single" | "multi" | "truncated"
    records: tuple[TraceStep, ...]
    stop_reason: str                     # STOP_TOL | STOP_MAX_ITERS
    total_steps: int
    config: IterationConfig
    mapping_labels: tuple[str, ...]
    fixed_points: tuple[tuple[float, ...], ...]
    domain: Domain
    schedule: Optional[AlphaSchedule] = None   # the run's own; replay draws on it

    @property
    def final(self) -> TraceStep:
        return self.records[-1]

    def summary(self) -> dict:
        last = self.final
        return {
            "engine": self.engine,
            "mappings": list(self.mapping_labels),
            "stop_reason": self.stop_reason,
            "total_steps": self.total_steps,
            "recorded_steps": len(self.records),
            "lambda": self.config.lam,
            "schedule": None if self.schedule is None else self.schedule.to_dict(),
            "final_x": list(last.x),
            "final_residual": last.residual,
            "final_fp_distances": list(last.fp_distances),
            "fixed_points": [list(z) for z in self.fixed_points],
            "config": self.config.to_dict(),
        }


def multi_map_weights(a: float, m: int) -> list[float]:
    """Blend weights (c_1 .. c_m) of the m-map scheme at blend level a.

    c_1 = 1 - (a + a^2 + ... + a^{m-1}), c_k = a^{k-1} for k >= 2. For
    a = 0 this is exactly (1.0, 0.0, ..., 0.0).
    """
    if m < 1:
        raise ContractViolation(f"need at least one map, got m={m}")
    powers = [a ** k for k in range(1, m)]
    return [1.0 - math.fsum(powers)] + powers


def truncated_weights(a: float, K: int) -> list[float]:
    """Weights for the first K maps of the infinite blend at level a < 1.

    The infinite scheme gives the first map 1 - a/(1-a) and map k the
    weight a^{k-1}; dropping maps beyond K leaves the geometric tail mass
    a^K/(1-a), which is returned to the first map so the vector still sums
    to 1. For a = 0 this is exactly (1.0, 0.0, ..., 0.0).
    """
    if K < 1:
        raise ContractViolation(f"need at least one map, got K={K}")
    if not (0.0 <= a < 1.0):
        raise ContractViolation(f"blend level must lie in [0, 1), got {a}")
    powers = [a ** k for k in range(1, K)]
    head = 1.0 - a / (1.0 - a) + a ** K / (1.0 - a)
    return [head] + powers


#: Blend weights (c_1 .. c_m) of each engine at blend level a over its m
#: active maps; the engines and `replay_trace` share this one rule.
_WEIGHT_RULES: dict[str, Callable[[float, int], list[float]]] = {
    "single": lambda a, m: [1.0],
    "multi": multi_map_weights,
    "truncated": truncated_weights,
}


def _invalid_image(t: Mapping, n: int) -> IterationRuntimeError:
    return IterationRuntimeError(
        f"mapping {t.label!r} returned an invalid image at step {n}", step=n)


def _image(t: Mapping, x: list[float], n: int) -> list[float]:
    """T x_n for x = x_n, a float list: `fn.floats(x)` where fn carries that
    form, else fn on a fresh float64 copy, read as `as_vector` reads it (a
    scalar is a 1-vector). An image of the wrong shape or with a non-finite
    coordinate raises IterationRuntimeError at step n."""
    form = getattr(t.fn, "floats", None)
    if form is None:
        img = np.atleast_1d(np.asarray(t.fn(np.array(x)), dtype=float))
        floats = img.tolist() if img.ndim == 1 else ()
    else:
        floats = form(x)
    if len(floats) != len(x) or not all(map(math.isfinite, floats)):
        raise _invalid_image(t, n)
    return floats


def _step(members: Sequence[Mapping], x: Sequence[float], wts: Sequence[float],
          lam: float, n: int):
    """The step rule at x = x_n, a float list: (images T_k x_n, w_n - x_n,
    x_{n+1} = lam*w_n + (1-lam)*x_n), all floats, each image by `_image`."""
    images = [_image(t, x, n) for t in members]
    w = _blend(images, wts)
    return (images, [a - b for a, b in zip(w, x)],
            [lam * a + (1.0 - lam) * b for a, b in zip(w, x)])


def _records(pending: Sequence[tuple], fps: list[list[float]], kind, m: int):
    """The TraceSteps of the pending records (n, x_n, residual, alpha, images),
    their ||T_k x - x|| per map, then ||z - x|| (bitwise ||x - z||) per fixed
    point z, normed in one call over a (records, m + k, d) array: each entry
    reduces its own contiguous d terms, as one record's array would."""
    X = np.array([p[1] for p in pending])
    D = _norm_last_axis(np.array([p[4] + fps for p in pending]) - X[:, None], kind)
    return [TraceStep(step=n, x=tuple(x), residual=r, map_residuals=tuple(d[:m]),
                      alpha=a, fp_distances=tuple(d[m:]))
            for (n, x, r, a, _), d in zip(pending, D.tolist())]


def _run_engine(engine: str, members: Sequence[Mapping], domain: Domain, x0,
                cfg: IterationConfig, s: Optional[AlphaSchedule],
                fixed_points: Sequence[np.ndarray]) -> Trace:
    if cfg.gamma is not None and cfg.gamma > GAMMA_WARN_THRESHOLD:
        warnings.warn(
            f"gamma context {cfg.gamma} exceeds {GAMMA_WARN_THRESHOLD}; the "
            "shipped experiments only probe small values", stacklevel=3)
    x = as_vector(x0)
    if x.shape[0] != domain.dimension:
        raise DomainError(
            f"start point has dimension {x.shape[0]}, domain needs {domain.dimension}")
    if not domain.contains(x):
        raise DomainError(f"start point {x.tolist()} lies outside the domain")
    # in the loop only images and iterates are checked; distances are not
    x = x.tolist()
    kind, member = domain.norm_kind, domain._member
    rule, m = _WEIGHT_RULES[engine], len(members)
    fps = [np.asarray(z, dtype=float).tolist() for z in fixed_points]
    records: list[TraceStep] = []
    pending: list[tuple] = []            # the records whose norms are still to take
    memo: dict[float, list[float]] = {}  # alpha -> its validated weights
    alphas = itertools.repeat(0.0) if s is None else s.values(0, cfg.max_iters + 1)
    for n, a_n in enumerate(alphas):
        # a NaN alpha never becomes a key, so it fails at its own step; -0.0
        # may get 0.0's weights, whose zero weights `_blend` skips either way
        wts = memo.get(a_n)
        if wts is None:
            wts = rule(a_n, m)
            # `not <=` so that a NaN weight fails as well
            if any(c < 0.0 for c in wts) or not abs(math.fsum(wts) - 1.0) <= WEIGHT_TOL:
                raise InvariantError(
                    f"blend weights {wts} invalid at step {n} (alpha={a_n})")
            if len(memo) == _WEIGHT_MEMO:
                memo.clear()
            memo[a_n] = wts
        images, w_x, x_next = _step(members, x, wts, cfg.lam, n)
        residual = _norm_floats(w_x, kind)
        stop = None
        if residual <= cfg.residual_tol:
            stop = STOP_TOL
        elif n >= cfg.max_iters:
            stop = STOP_MAX_ITERS
        stride = cfg.record_every if n < DECIMATION_START else cfg.record_every * 10
        if n % stride == 0 or stop is not None:
            pending.append((n, x, residual, a_n, images))
            if len(pending) == _RECORD_BLOCK or stop is not None:
                records += _records(pending, fps, kind, m)
                pending.clear()
        if stop is not None:
            return Trace(engine=engine, records=tuple(records),
                         stop_reason=stop, total_steps=n, config=cfg,
                         mapping_labels=tuple(t.label for t in members),
                         fixed_points=tuple(map(tuple, fps)), domain=domain,
                         schedule=s)
        if not member(x_next):
            raise IterationRuntimeError(
                f"iterate left the domain at step {n + 1}: {x_next}", step=n + 1)
        x = x_next
    raise InvariantError(f"schedule values ended before step {cfg.max_iters}")


def krasnoselskii_run(T: Mapping, x0, cfg: IterationConfig) -> Trace:
    """Single-map averaged iteration x_{n+1} = lam*T(x_n) + (1-lam)*x_n."""
    return _run_engine("single", [T], T.domain, x0, cfg, None,
                       T.known_fixed_points)


def multi_map_run(F: MappingFamily, s: AlphaSchedule, x0,
                  cfg: IterationConfig) -> Trace:
    """m-map blend iteration driven by the schedule; needs m >= 2.

    Distances are tracked to the family's verified common fixed points.
    """
    m = len(F)
    if m < 2:
        raise ContractViolation(f"multi_map_run needs at least 2 maps, got {m}")
    return _run_engine("multi", F.members, F.domain, x0, cfg, s,
                       common_fixed_points(F))


def truncated_family_run(F: MappingFamily, s: AlphaSchedule, x0,
                         cfg: IterationConfig) -> Trace:
    """Blend over the first K = cfg.truncation_K family members.

    Images, residual columns and weights cover exactly those K members;
    the dropped tail's weight mass rides on the first map (see
    `truncated_weights`). K must not exceed the family size.
    """
    if cfg.truncation_K is None:
        raise ContractViolation("truncated_family_run needs cfg.truncation_K")
    K = cfg.truncation_K
    if K > len(F):
        raise ContractViolation(
            f"truncation_K={K} exceeds the family size {len(F)}")
    return _run_engine("truncated", F.members[:K], F.domain, x0, cfg, s,
                       common_fixed_points(F))


# ---------------------------------------------------------------------------
# diagnostics on traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Blend residuals recovered from consecutive recorded iterates."""

    steps: tuple[int, ...]
    gaps: tuple[float, ...]
    tail_max: Optional[float]            # None over zero pairs


def _xs(records: Sequence[TraceStep]) -> np.ndarray:
    """The recorded iterates as one (len(records), d) array."""
    return np.array([r.x for r in records], dtype=float)


def _steps(records: Sequence[TraceStep]) -> np.ndarray:
    return np.array([r.step for r in records])


def goebel_kirk_gap(t: Trace) -> GapReport:
    """Recover ||w_n - x_n|| from the iterates alone.

    Inverts the step rule: w_n = (x_{n+1} - (1-lam)*x_n)/lam. Only pairs of
    records one step apart can be inverted, so decimated stretches
    contribute nothing. tail_max is the maximum over the last quarter of
    the recovered series (the whole series if shorter than 4), None if
    no pair is one step apart.
    """
    steps = _steps(t.records)
    j = np.flatnonzero(steps[1:] == steps[:-1] + 1)
    if not j.size:
        return GapReport(steps=(), gaps=(), tail_max=None)
    X = _xs(t.records)
    lam = t.config.lam
    w = (X[j + 1] - (1.0 - lam) * X[j]) / lam
    gaps = _norm_last_axis(w - X[j], t.domain.norm_kind).tolist()
    q = max(1, len(gaps) // 4)
    return GapReport(steps=tuple(steps[j].tolist()), gaps=tuple(gaps),
                     tail_max=max(gaps[-q:]))


def monotone_distance_check(t: Trace, z) -> Verdict:
    """Distances to z must never increase along the recorded iterates."""
    d = _norm_last_axis(_xs(t.records) - as_vector(z), t.domain.norm_kind)
    pairs = len(d) - 1
    rises = np.flatnonzero(d[1:] > d[:-1] + MONOTONE_TOL)
    if rises.size:
        j = int(rises[0]) + 1
        return Verdict(condition_label="monotone_distance", passed=False,
                       checked_pairs=pairs,
                       witness=Witness.at(t.records[j].x, lhs=float(d[j]),
                                          rhs=float(d[j - 1]),
                                          step=t.records[j].step))
    return Verdict(condition_label="monotone_distance", passed=True,
                   checked_pairs=pairs,
                   observed_max=float(d.max()) if d.size else None)


def residual_vanishes_check(t: Trace) -> Verdict:
    """Tail residuals must not exceed head residuals.

    Pass iff the max residual over the last quarter of records is <= the
    max over the first quarter, and — when the run stopped on tolerance —
    the final residual actually honors it. Needs >= 20 records.
    """
    n = len(t.records)
    if n < 20:
        raise PreconditionError(f"needs >= 20 recorded steps, trace has {n}")
    q = n // 4
    head = max(r.residual for r in t.records[:q])
    tail_recs = t.records[-q:]
    tail = max(r.residual for r in tail_recs)
    passed = tail <= head
    if t.stop_reason == STOP_TOL:
        passed = passed and t.final.residual <= t.config.residual_tol
    worst = max(tail_recs, key=lambda r: r.residual)
    return Verdict(condition_label="residual_vanishes", passed=passed,
                   checked_pairs=n, observed_max=tail,
                   witness=None if passed else Witness.at(
                       worst.x, lhs=tail, rhs=head, step=worst.step))


def asymptotic_radius(t: Trace, x, window: int) -> float:
    """Max distance from the last `window` recorded iterates to x."""
    if window < 1:
        raise ContractViolation(f"window must be >= 1, got {window}")
    if window > len(t.records):
        raise PreconditionError(
            f"window {window} exceeds the {len(t.records)} recorded steps")
    return max(_norm_last_axis(_xs(t.records[-window:]) - as_vector(x),
                               t.domain.norm_kind).tolist())


def _column_images(t: Mapping, x: list[np.ndarray], steps: np.ndarray):
    """T at the rows of the coordinate columns x, taken at the given steps:
    (the image's d columns, None or the mask of the rows whose image is
    invalid; such a row's image is its x). A map whose fn carries the float
    form takes the columns at once if they come out valid; otherwise, and
    for any other map, each row goes through `_image`."""
    form = getattr(t.fn, "floats", None)
    if form is not None:
        img = form(x)
        if len(img) == len(x) and all(np.isfinite(c).all() for c in img):
            return img, None
    rows, bad = np.array(x).T.tolist(), np.zeros(len(steps), bool)
    for i, n in enumerate(steps.tolist()):
        try:
            rows[i] = _image(t, rows[i], n)
        except IterationRuntimeError:
            bad[i] = True
    return list(np.array(rows).T), bad if bad.any() else None


def _lockstep(members: Sequence[Mapping], engine: str, lam: float,
              steps: np.ndarray, X: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """x_{k'} predicted from the record x_k for each interval (k, k') of
    consecutive record steps, one row per interval; alphas[i] is the alpha
    of step steps[0] + i.

    All intervals advance together. At offset o every interval still running
    takes its step k + o as one batched step on d float64 columns, one per
    coordinate: the images, the blend and the average of `_step`, the same
    IEEE operations in the same order on each row. A zero weight makes its
    term -0.0, which added to any v gives v bit for bit, so it contributes
    nothing, as in `_blend`. The rows are sorted longest interval first, so
    the intervals still running are a prefix of them. An invalid image
    raises `_image`'s error at the lowest such step, after every row ran.
    """
    m, first = len(members), int(steps[0])
    # the weights once per distinct alpha, kept as one float array (np.unique
    # would import numpy.ma, 1.2 MB of RSS, on its first call)
    values = np.sort(alphas)
    values = values[np.append(True, values[1:] != values[:-1])]
    weights = map(_WEIGHT_RULES[engine], map(float, values), itertools.repeat(m))
    W = np.fromiter(itertools.chain.from_iterable(weights), float, len(values) * m).reshape(-1, m)
    L = np.diff(steps)
    order = np.argsort(-L)
    L, start = L[order], steps[:-1][order] - first
    C = X[:-1][order].T.copy()           # (d, intervals): the columns
    live, worst = len(L), math.inf       # worst: the lowest invalid step*m + k
    for o in range(int(L[0]) if live else 0):
        while L[live - 1] <= o:
            live -= 1
        x, at = list(C[:, :live]), start[:live] + o
        which = np.searchsorted(values, alphas[at])
        acc = None
        for k, T in enumerate(members):
            img, bad = _column_images(T, x, at + first)
            if bad is not None:
                worst = min(worst, int(at[bad].min() + first) * m + k)
            c = W[which, k]
            terms = [c * v for v in img]
            if not c.all():
                z = c == 0.0
                for term in terms:
                    term[z] = -0.0
            acc = terms if acc is None else [np.add(a, b, out=a) for a, b in zip(acc, terms)]
        # lam*w + (1-lam)*v into C's own rows: a sum is one IEEE result in either order
        for w, v in zip(acc, x):
            w *= lam
            v *= 1.0 - lam
            v += w
    if worst < math.inf:
        n, k = divmod(worst, m)
        raise _invalid_image(members[k], n)
    return C.T[np.argsort(order)]


def replay_trace(t: Trace, maps: Union[Mapping, MappingFamily]) -> Verdict:
    """Re-run every step of the trace from its records and compare.

    Each interval (k, k') between consecutive records is re-run from the
    record at k, `_LOCKSTEP_ROWS` intervals at a time in lockstep (see
    `_lockstep`), with the trace's lam, the engine's weight rule at the
    alphas of the trace's schedule (0 for the single engine) and the
    supplied mappings, which must match the trace's labels. Pass iff
    each record's alpha is the schedule's and each interval ends within
    REPLAY_TOL of the record at k'; else the verdict names the first record
    where either fails. checked_pairs counts the steps replayed, up to that
    record on a fail; observed_max is the largest deviation at an
    interval's end, None over no step. An image the engine refuses raises
    its IterationRuntimeError, at the lowest step where one does.
    """
    members = (maps,) if isinstance(maps, Mapping) else maps.members
    # a truncated trace names only the active members; accept the full family
    members = members[:len(t.mapping_labels)]
    labels = tuple(m.label for m in members)
    if labels != t.mapping_labels:
        raise ContractViolation(
            f"trace was produced by {list(t.mapping_labels)}, got {list(labels)}")
    if t.engine not in _WEIGHT_RULES:
        raise ContractViolation(f"unknown engine kind {t.engine!r}")
    if t.engine != "single" and t.schedule is None:
        raise ContractViolation(f"a {t.engine!r} trace carries no schedule to replay")
    steps, X = _steps(t.records), _xs(t.records)
    first, last = int(steps[0]), int(steps[-1])
    stream = (itertools.repeat(0.0) if t.engine == "single"
              else t.schedule.values(first, last + 1))

    def take(n: int) -> np.ndarray:   # the stream's next n alphas
        a = np.fromiter(itertools.islice(stream, n), float)
        if a.size < n:
            raise InvariantError(f"schedule values ended before step {last}")
        return a

    # a block of intervals at a time, in step order, so the first invalid
    # image raised is the lowest; alpha: the stream's alpha at each record
    dev, alpha = np.empty(len(steps) - 1), np.empty(len(steps))
    for lo in range(0, len(dev), _LOCKSTEP_ROWS):
        hi = min(lo + _LOCKSTEP_ROWS, len(dev))
        a = take(int(steps[hi] - steps[lo]))
        alpha[lo:hi] = a[steps[lo:hi] - steps[lo]]
        predicted = _lockstep(members, t.engine, t.config.lam, steps[lo:hi + 1],
                              X[lo:hi + 1], a)
        dev[lo:hi] = _norm_last_axis(predicted - X[lo + 1:hi + 1], t.domain.norm_kind)
    alpha[-1] = take(1)[0]
    off = np.append(False, ~(dev <= REPLAY_TOL))   # by record; NaN included
    bad = np.flatnonzero(off | ~(alpha == [r.alpha for r in t.records]))
    if bad.size:
        j = int(bad[0])
        rec = t.records[j]
        witness = (Witness.at(t.records[j - 1].x, lhs=dev[j - 1], rhs=REPLAY_TOL,
                              step=rec.step) if off[j] else
                   Witness.at(rec.x, lhs=rec.alpha, rhs=alpha[j], step=rec.step,
                              detail="alpha"))
        return Verdict(condition_label="replay", passed=False,
                       checked_pairs=rec.step - first, witness=witness)
    return Verdict(condition_label="replay", passed=True, checked_pairs=last - first,
                   observed_max=float(dev.max()) if dev.size else None)


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(v, ".17g")


def _write_csv(dest: Union[str, IO[str]], header: Sequence[str],
               lines: Iterable[str]) -> None:
    """Write a header line and then each line (newline included) as it comes."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            _write_csv(fh, header, lines)
        return
    dest.write(",".join(header) + "\n")
    dest.writelines(lines)


def trace_to_csv(t: Trace, dest: Union[str, IO[str]]) -> None:
    """Write the trace as CSV with a fixed column order.

    Columns: step, x_0..x_{d-1}, residual, residual_1..residual_m, alpha,
    dist_1..dist_K (one per tracked fixed point). Floats carry 17
    significant digits so a parse round-trips the exact double.
    """
    d = len(t.records[0].x)
    m = len(t.records[0].map_residuals)
    k = len(t.records[0].fp_distances)
    header = (["step"] + [f"x_{i}" for i in range(d)] + ["residual"]
              + [f"residual_{i + 1}" for i in range(m)] + ["alpha"]
              + [f"dist_{i + 1}" for i in range(k)])
    # '%.17g' % v is format(v, ".17g"): one template per trace, not per field
    row = "%d" + ",%.17g" * (len(header) - 1) + "\n"
    _write_csv(dest, header, (row % (r.step, *r.x, r.residual, *r.map_residuals,
                                     r.alpha, *r.fp_distances) for r in t.records))
