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

The engines step on Python floats, `_STEP_BLOCK` steps at a time and never
past max_iters, reading each image unchecked; `_advance` gives each step's
blend w_n and x_{n+1}. Each block is then checked at once on float64 arrays:
every image's shape and finiteness, the residuals (the block's blends less
its iterates), the stop and each next iterate's membership; its records
are normed from the same arrays. That runs under one
np.errstate(all="ignore"): a norm that overflows reads inf, silently,
whatever numpy's error state. The first step that fails a check, or where
a map or the weight rule raised, is run again alone, its images checked as
they are read, after the steps before it, so every stop, record, error and
its step is what a step-by-step run gives. A map may be evaluated at up to
`_STEP_BLOCK` - 1 iterates past the step where a run stops or fails; those
images are discarded. Each weight rule maps a list of alphas to m columns:
an engine computes a block's new alphas at once, replay a lockstep's
distinct ones.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import abc
from dataclasses import dataclass
from typing import Callable, IO, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (ContractViolation, DomainError, InvalidInputError, InvariantError,
                     IterationRuntimeError, PreconditionError)
from .mappings import (Mapping, MappingFamily, _image, _images, _reader,
                       common_fixed_points)
from .schedules import AlphaSchedule
from .vecspace import Domain, _blend, _norm_last_axis, _read_numbers, as_vector
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

#: The engines run this many steps on floats, unchecked, then check them at
#: once on float64 arrays and norm their records in one call; so a map may
#: be evaluated at up to this many less one iterates past a run's end.
_STEP_BLOCK = 64

#: The rows a trace's records are read in at a time, as TraceSteps or CSV
#: lines: a block's lists, not the trace's, are held at once.
_READ_ROWS = 1024

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
        _read_numbers(self)
        if not (0.0 < self.lam < 1.0):
            raise ContractViolation(f"lam must lie in (0, 1), got {self.lam}")
        for name in ("max_iters", "record_every", "truncation_K"):
            v = getattr(self, name)
            if not isinstance(v, (int, type(None))):
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


class _Records(abc.Sequence):
    """A trace's records as read-only columns, one row per record: step
    (R,) int64; x (R, d), residual (R,), map_residuals (R, m), alpha (R,)
    and fp_distances (R, k) float64. A TraceStep is made when one is read,
    with the int and the floats (the sign of a zero kept) that it was made
    of. ==, hash and repr are those of the tuple of its TraceSteps. On a
    five-map trace they keep 91 B a record; the TraceSteps took 589 B."""

    __slots__ = ("step", "x", "residual", "map_residuals", "alpha", "fp_distances")

    def __init__(self, *columns: np.ndarray):
        for name, c in zip(self.__slots__, columns):
            c.flags.writeable = False
            setattr(self, name, c)

    @classmethod
    def of(cls, records: Iterable[TraceStep]) -> "_Records":
        """The columns of the given TraceSteps, which must agree in the
        lengths of x, map_residuals and fp_distances."""
        records = list(records)
        for name in ("x", "map_residuals", "fp_distances"):
            widths = {len(getattr(r, name)) for r in records}
            if len(widths) > 1:
                raise ContractViolation(
                    f"records differ in the length of {name}: {sorted(widths)}")
        return cls(*(np.array([getattr(r, c) for r in records], np.int64 if c == "step" else float)
                     for c in cls.__slots__))

    @classmethod
    def join(cls, blocks: list) -> "_Records":
        """The records of the blocks of columns, in order. Each column is
        joined, and its blocks freed, before the next, so the columns are
        never held twice; `blocks` is left empty."""
        columns = [list(c) for c in zip(*blocks)]
        blocks.clear()
        for i in range(len(columns)):
            columns[i] = np.concatenate(columns[i])
        return cls(*columns)

    def _rows(self, lo: int, hi: int) -> Iterable[TraceStep]:
        step, x, res, mr, alpha, fp = (getattr(self, c)[lo:hi].tolist() for c in self.__slots__)
        return map(TraceStep, step, map(tuple, x), res, map(tuple, mr), alpha, map(tuple, fp))

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Records(*(getattr(self, c)[i] for c in self.__slots__))
        i = range(len(self))[i]          # a negative or numpy index, range's errors
        return next(self._rows(i, i + 1))

    def __iter__(self):
        for lo in range(0, len(self), _READ_ROWS):
            yield from self._rows(lo, lo + _READ_ROWS)

    def __eq__(self, other):
        if isinstance(other, _Records):
            return all(np.array_equal(getattr(self, c), getattr(other, c))
                       for c in self.__slots__)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):                # a copy's columns are read-only too
        return _Records, tuple(getattr(self, c) for c in self.__slots__)


@dataclass(frozen=True)
class Trace:
    engine: str                          # "single" | "multi" | "truncated"
    records: Sequence[TraceStep]         # kept as `_Records`, its columns
    stop_reason: str                     # STOP_TOL | STOP_MAX_ITERS
    total_steps: int
    config: IterationConfig
    mapping_labels: tuple[str, ...]
    fixed_points: tuple[tuple[float, ...], ...]
    domain: Domain
    schedule: Optional[AlphaSchedule] = None   # the run's own; replay draws on it

    def __post_init__(self):
        if not isinstance(self.records, _Records):
            object.__setattr__(self, "records", _Records.of(self.records))

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


def _powers(alphas: list[float], k: int) -> list[float]:
    """a^k for each alpha: math.pow is libm's pow, as float ** int is, bit
    for bit, with no Python frame per alpha."""
    return list(map(math.pow, alphas, itertools.repeat(float(k))))


def _multi_columns(alphas: list[float], m: int) -> list[list[float]]:
    """The m-map weights of each alpha, as m columns (c_1 .. c_m)."""
    if m < 1:
        raise ContractViolation(f"need at least one map, got m={m}")
    powers = [_powers(alphas, k) for k in range(1, m)]
    heads = [1.0 - s for s in map(math.fsum, zip(*powers))] if powers else [1.0] * len(alphas)
    return [heads] + powers


def _truncated_columns(alphas: list[float], K: int) -> list[list[float]]:
    """The truncated weights of each alpha, as K columns (c_1 .. c_K)."""
    if K < 1:
        raise ContractViolation(f"need at least one map, got K={K}")
    for a in alphas:
        if not (0.0 <= a < 1.0):
            raise ContractViolation(f"blend level must lie in [0, 1), got {a}")
    heads = [1.0 - a / (1.0 - a) + t / (1.0 - a) for a, t in zip(alphas, _powers(alphas, K))]
    return [heads] + [_powers(alphas, k) for k in range(1, K)]


def multi_map_weights(a: float, m: int) -> list[float]:
    """Blend weights (c_1 .. c_m) of the m-map scheme at blend level a.

    c_1 = 1 - (a + a^2 + ... + a^{m-1}), c_k = a^{k-1} for k >= 2. For
    a = 0 this is exactly (1.0, 0.0, ..., 0.0).
    """
    return [c for (c,) in _multi_columns([a], m)]


def truncated_weights(a: float, K: int) -> list[float]:
    """Weights for the first K maps of the infinite blend at level a < 1.

    The infinite scheme gives the first map 1 - a/(1-a) and map k the
    weight a^{k-1}; dropping maps beyond K leaves the geometric tail mass
    a^K/(1-a), which is returned to the first map so the vector still sums
    to 1. For a = 0 this is exactly (1.0, 0.0, ..., 0.0).
    """
    return [c for (c,) in _truncated_columns([a], K)]


#: Blend weights (c_1 .. c_m) of each engine over its m active maps, for a
#: list of blend levels at once, as m columns; the engines and
#: `replay_trace` share this one rule.
_WEIGHT_RULES: dict[str, Callable[[list[float], int], list[list[float]]]] = {
    "single": _multi_columns,       # [1.0] at every alpha for m = 1
    "multi": _multi_columns,
    "truncated": _truncated_columns,
}


def _broken(weights: Sequence[float]) -> bool:
    """Whether weights break the invariant: a weight below 0, or a sum off 1
    by more than WEIGHT_TOL. `not <=` so that a NaN weight fails as well; a
    row with no NaN has a weight below 0 iff its min is."""
    return min(weights) < 0.0 or not abs(math.fsum(weights) - 1.0) <= WEIGHT_TOL


def _remember(memo: dict, rule: Callable, alphas: list[float], m: int) -> None:
    """Put into memo the weights of the alphas it lacks, computed once for
    all of them, each kept only if it keeps the invariant, a zero as None.
    If the rule raises for one of them none is kept: each step then takes
    its alpha's weights alone. memo is emptied first if they would not fit."""
    new = [a for a in dict.fromkeys(alphas) if a not in memo]
    if not new:
        return
    try:
        columns = rule(new, m)
        kept = zip(*([c or None for c in col] for col in columns))
        fresh = {a: w for a, row, w in zip(new, zip(*columns), kept) if not _broken(row)}
    except Exception:                    # whatever the rule raises, its step raises alone
        return
    if len(memo) + len(fresh) > _WEIGHT_MEMO:
        memo.clear()
    memo.update(fresh)


def _advance(images: Sequence, weights: Sequence, x: Sequence, lam: float):
    """The step rule's arithmetic at x = x_n: (w_n, x_{n+1} = lam*w_n +
    (1-lam)*x_n), w_n = `_blend(images, weights)`. Its coordinates are floats
    (the engines) or float64 arrays (replay), the same IEEE operations in the
    same order either way; a weight that is None is skipped."""
    w = _blend(images, weights)
    return w, [lam * a + (1.0 - lam) * b for a, b in zip(w, x)]


def _run_engine(engine: str, members: Sequence[Mapping], domain: Domain, x0,
                cfg: IterationConfig, s: Optional[AlphaSchedule],
                fixed_points: Sequence[np.ndarray]) -> Trace:
    """The step rule from x0, a block of steps at a time (see the module's
    docstring): the run ends at the block's first step that stops with
    valid images, and the first that fails a check or raised is run again
    alone, its images read by `_image`, to raise as a run checked step by
    step would."""
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
    # only images and iterates are checked; distances are not
    x = x.tolist()
    kind, d, chain = domain.norm_kind, domain.dimension, itertools.chain.from_iterable
    rule, m, reads = _WEIGHT_RULES[engine], len(members), [_reader(t) for t in members]
    fps = [np.asarray(z, dtype=float).tolist() for z in fixed_points]
    Z = np.array(fps).reshape(len(fps), d)
    blocks: list[tuple] = []             # the records' columns, 64 blocks' at a time
    recent: list[tuple] = []             # and those of the blocks since
    memo: dict[float, tuple] = {}        # alpha -> its validated weights, a zero as None
    stream = itertools.repeat(0.0) if s is None else s.values(0, cfg.max_iters + 1)
    alphas, n, settle = [], 0, False     # alphas: drawn, not yet stepped
    while True:
        size = 1 if settle else min(_STEP_BLOCK, cfg.max_iters + 1 - n)
        alphas += itertools.islice(stream, max(size - len(alphas), 0))
        todo, xs, ims, ws = alphas[:size], [x], [], []
        # a NaN alpha never becomes a key, so it fails at its own step;
        # -0.0 may get 0.0's weights, which differ from its own only in zeros
        _remember(memo, rule, todo, m)
        try:
            for i, a_n in enumerate(todo, n):
                wts = memo.get(a_n)
                if wts is None:          # the block's weights raised, or a_n's are broken
                    wts = [c for (c,) in rule([a_n], m)]
                    if _broken(wts):
                        raise InvariantError(
                            f"blend weights {wts} invalid at step {i} (alpha={a_n})")
                    wts = [c or None for c in wts]
                images = [_image(t, x, i) for t in members] if settle else [f(x) for f in reads]
                w, x = _advance(images, wts, x, cfg.lam)
                ims.append(images)
                ws.append(w)
                xs.append(x)
        except Exception:                # the step that raised is settled alone
            if settle:
                raise
        if not set(map(len, chain(ims))) <= {d}:    # cut at an image of another shape
            del ims[next(i for i, im in enumerate(ims) if set(map(len, im)) != {d}):]
        k = len(ims)
        TX = np.fromiter(chain(chain(ims)), float, k * m * d).reshape(k, m, d)
        X = np.fromiter(chain(xs[:k + 1]), float, (k + 1) * d).reshape(k + 1, d)
        steps = np.arange(n, n + k, dtype=np.int64)
        # a norm whose squares overflow reads inf and one whose squares
        # underflow reads them as 0, silently, whatever numpy's error state
        with np.errstate(all="ignore"):
            ok = np.isfinite(TX).all(axis=(1, 2))
            W = np.fromiter(chain(ws[:k]), float, k * d).reshape(k, d) - X[:-1]
            R = _norm_last_axis(W, kind)
            inside = domain.contains_rows(X[1:])
            tol = R <= cfg.residual_tol
            stop = tol | (steps >= cfg.max_iters)
            bad = stop | ~inside | ~ok
            j = int(bad.argmax()) if bad.any() else k       # the first unclean step
            end = j < k and stop[j] and ok[j]               # the run stops at step j
            if settle and j == 0 and not end:
                raise IterationRuntimeError(
                    f"iterate left the domain at step {n + 1}: {xs[1]}", step=n + 1)
            done = steps[:j + end]
            r = np.flatnonzero((done % np.where(done < DECIMATION_START, cfg.record_every,
                                                cfg.record_every * 10) == 0)
                               | stop[:len(done)])
            if r.size:
                at = X[r, None]
                recent.append((steps[r], X[r], R[r], _norm_last_axis(TX[r] - at, kind),
                               np.array(todo)[r], _norm_last_axis(Z - at, kind)))
        if len(recent) == _STEP_BLOCK or end:   # fewer arrays: a 10**6-step run's RSS -15 MB
            blocks.append(tuple(map(np.concatenate, zip(*recent))))
            recent.clear()
        if end:
            return Trace(engine=engine, records=_Records.join(blocks),
                         stop_reason=STOP_TOL if tol[j] else STOP_MAX_ITERS,
                         total_steps=n + j, config=cfg,
                         mapping_labels=tuple(t.label for t in members),
                         fixed_points=tuple(map(tuple, fps)), domain=domain,
                         schedule=s)
        if j == len(todo) < size:
            raise InvariantError(f"schedule values ended before step {cfg.max_iters}")
        del alphas[:j]
        n, x, settle = n + j, xs[j], j < len(todo)


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


def goebel_kirk_gap(t: Trace) -> GapReport:
    """Recover ||w_n - x_n|| from the iterates alone.

    Inverts the step rule: w_n = (x_{n+1} - (1-lam)*x_n)/lam. Only pairs of
    records one step apart can be inverted, so decimated stretches
    contribute nothing. tail_max is the maximum over the last quarter of
    the recovered series (the whole series if shorter than 4), None if
    no pair is one step apart. As in the engine, a norm whose squares
    overflow reads inf and one whose squares underflow reads them as 0,
    silently, whatever numpy's error state.
    """
    steps, X = t.records.step, t.records.x
    j = np.flatnonzero(steps[1:] == steps[:-1] + 1)
    if not j.size:
        return GapReport(steps=(), gaps=(), tail_max=None)
    lam = t.config.lam
    with np.errstate(all="ignore"):
        w = (X[j + 1] - (1.0 - lam) * X[j]) / lam
        gaps = _norm_last_axis(w - X[j], t.domain.norm_kind).tolist()
    q = max(1, len(gaps) // 4)
    return GapReport(steps=tuple(steps[j].tolist()), gaps=tuple(gaps),
                     tail_max=max(gaps[-q:]))


def _distances(X: np.ndarray, z, kind) -> np.ndarray:
    """||x - z|| for each row x of X, under the engine's np.errstate; a z
    of another dimension is refused, with the error `dist` raises for it."""
    z = as_vector(z)
    if z.shape != X.shape[1:]:
        raise InvalidInputError(
            f"no distance between points of shapes {X.shape[1:]} and {z.shape}")
    with np.errstate(all="ignore"):
        return _norm_last_axis(X - z, kind)


def monotone_distance_check(t: Trace, z) -> Verdict:
    """Distances to z must never increase along the recorded iterates."""
    d = _distances(t.records.x, z, t.domain.norm_kind)
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
    q, res = n // 4, t.records.residual.tolist()
    # Python's max, so a NaN compares as it did among the records' floats
    head = max(res[:q])
    j = max(range(n - q, n), key=res.__getitem__)   # the tail's first largest
    tail = res[j]
    passed = tail <= head
    if t.stop_reason == STOP_TOL:
        passed = passed and res[-1] <= t.config.residual_tol
    return Verdict(condition_label="residual_vanishes", passed=passed,
                   checked_pairs=n, observed_max=tail,
                   witness=None if passed else Witness.at(
                       t.records[j].x, lhs=tail, rhs=head, step=t.records[j].step))


def asymptotic_radius(t: Trace, x, window: int) -> float:
    """Max distance from the last `window` recorded iterates to x."""
    if window < 1:
        raise ContractViolation(f"window must be >= 1, got {window}")
    if window > len(t.records):
        raise PreconditionError(
            f"window {window} exceeds the {len(t.records)} recorded steps")
    return max(_distances(t.records.x[-window:], x, t.domain.norm_kind).tolist())


def _lockstep(members: Sequence[Mapping], engine: str, lam: float,
              steps: np.ndarray, X: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """x_{k'} predicted from the record x_k for each interval (k, k') of
    consecutive record steps, one row per interval; alphas[i] is the alpha
    of step steps[0] + i.

    All intervals advance together. At offset o every interval still running
    takes its step k + o through `_advance`, on one (d, live) float64 operand
    per map, its images from `_images`, and on the point [C[:, :live]], with
    a row of weights per map. A row's zero weight is 1.0 on an image of -0.0,
    which added to any v gives v bit for bit, so it contributes nothing, as a
    skipped weight does. The rows are sorted longest interval first, so the
    intervals still running are a prefix of them. If an image is invalid,
    `_rerun` runs the intervals.
    """
    m, first = len(members), int(steps[0])
    # the weights once per distinct alpha, as the rule's columns (np.unique
    # would import numpy.ma, 1.2 MB of RSS, on its first call)
    values = np.sort(alphas)
    values = values[np.append(True, values[1:] != values[:-1])]
    W = np.array(_WEIGHT_RULES[engine](values.tolist(), m))
    zero = W == 0.0                      # W and zero: (m, values), a row per map
    W = np.where(zero, 1.0, W)
    L = np.diff(steps)
    order = np.argsort(-L)
    L, start = L[order], steps[:-1][order] - first
    C = X[:-1][order].T.copy()           # (d, intervals): the columns
    live = len(L)
    for o in range(int(L[0]) if live else 0):
        while L[live - 1] <= o:
            live -= 1
        x, at = C[:, :live], start[:live] + o
        which = np.searchsorted(values, alphas[at])
        # `take` costs a third of the same fancy index on these sizes
        images, z = [], zero.take(which, axis=1)
        for k, T in enumerate(members):
            img = _images(T, x.T)
            if img is None:
                return np.array(list(_rerun(members, engine, lam, steps, X, alphas)))
            images.append([np.where(z[k], -0.0, img.T) if z[k].any() else img.T])
        C[:, :live] = _advance(images, list(W.take(which, axis=1)), [x], lam)[1][0]
    return C.T[np.argsort(order)]


def _rerun(members: Sequence[Mapping], engine: str, lam: float,
           steps: np.ndarray, X: np.ndarray, alphas: np.ndarray) -> Iterable[list[float]]:
    """The rows of `_lockstep`'s result by the engines' own float step, an
    interval at a time in step order: the first error raised, fn's too, is the lowest."""
    rule, m, first, a = _WEIGHT_RULES[engine], len(members), int(steps[0]), alphas.tolist()
    for k, end, x in zip(steps[:-1].tolist(), steps[1:].tolist(), X[:-1].tolist()):
        for n in range(k, end):
            wts = [c or None for (c,) in rule([a[n - first]], m)]
            x = _advance([_image(T, x, n) for T in members], wts, x, lam)[1]
        yield x


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
    interval's end, None over no step. An image the engine refuses, or an
    error fn raises, comes at the lowest step, as the engine raises it.
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
    steps, X = t.records.step, t.records.x
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
    bad = np.flatnonzero(off | ~(alpha == t.records.alpha))
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
    r = t.records
    d, m, k = r.x.shape[1], r.map_residuals.shape[1], r.fp_distances.shape[1]
    header = (["step"] + [f"x_{i}" for i in range(d)] + ["residual"]
              + [f"residual_{i + 1}" for i in range(m)] + ["alpha"]
              + [f"dist_{i + 1}" for i in range(k)])
    # '%.17g' % v is format(v, ".17g"): one template per trace, not per field
    row = "%d" + ",%.17g" * (len(header) - 1) + "\n"

    def lines():                         # a block of rows' lists at a time
        for lo in range(0, len(r), _READ_ROWS):
            at = slice(lo, lo + _READ_ROWS)
            floats = np.hstack((r.x[at], r.residual[at, None], r.map_residuals[at],
                                r.alpha[at, None], r.fp_distances[at]))
            yield from (row % (n, *v) for n, v in zip(r.step[at].tolist(), floats.tolist()))

    _write_csv(dest, header, lines())
