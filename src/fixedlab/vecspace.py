"""Finite-dimensional normed-space primitives.

Vectors are read-only float64 arrays; a sample is one read-only (N, d)
array. Domains (boxes and balls) and sample plans are frozen value types,
and every operation is a pure function of its inputs, safe across threads.

Built for desk scale: low dimension, domain diameters up to ~1e3, plain
double precision with no compensated summation. The l2 norm is computed as
sqrt(sum(v*v)) rather than through BLAS so that scalar and vectorized code
paths produce bitwise-identical values: per-vector norms share one
np.add.reduce. `pairwise_norm` folds a sum of fewer than
`_IN_SEQUENCE_BELOW` terms in that reduction's sequence and hands a longer
one to it; it never holds a (rows, cols, d) array.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ContractViolation, InvalidInputError

Vector = np.ndarray

#: Absolute tolerance for domain membership. Samplers guarantee membership
#: up to rounding, and convex combinations of members may drift by a few ULP.
MEMBERSHIP_TOL = 1e-9

#: Convex weights must sum to 1 within this absolute tolerance.
WEIGHT_SUM_TOL = 1e-12


def as_vector(coords: Union[float, Sequence[float], np.ndarray]) -> Vector:
    """Coerce to a read-only 1-d float64 array, rejecting non-finite input."""
    v = np.atleast_1d(np.asarray(coords, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"non-finite coordinate in {v.tolist()!r}")
    return _freeze(v.copy())


def _freeze(v: np.ndarray) -> Vector:
    v.flags.writeable = False
    return v


class NormKind(str, Enum):
    """Which norm a domain carries: l1, l2 (default), or linf."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def norm(v: Union[float, Sequence[float], np.ndarray], kind: NormKind = NormKind.L2) -> float:
    """Norm of a vector under `kind`; zero vector gives exactly 0.0."""
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"non-finite coordinate in {a.tolist()!r}")
    return float(_norm_last_axis(a, kind))


def dist(x: np.ndarray, y: np.ndarray, kind: NormKind = NormKind.L2) -> float:
    """Distance ||x - y|| under `kind` between two finite points of one
    shape: inf where the norm of their difference overflows, as in `pairwise_norm`."""
    a, b = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError(f"no distance between points of shapes {a.shape} and {b.shape}")
    for v in (a, b):
        if not np.all(np.isfinite(v)):
            raise InvalidInputError(f"non-finite coordinate in {v.tolist()!r}")
    with np.errstate(over="ignore"):
        return float(_norm_last_axis(np.atleast_1d(a - b), kind))


#: np.add.reduce adds fewer than this many terms in sequence, left to right;
#: from here on numpy's pairwise summation adds them in 8 running partials.
_IN_SEQUENCE_BELOW = 8


def pairwise_norm(A: np.ndarray, B: np.ndarray, kind: NormKind = NormKind.L2,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix of ||A[i] - B[j]|| values, shape (len(A), len(B)), each bitwise
    equal to the scalar `dist`, written into `out` if given. Below
    `_IN_SEQUENCE_BELOW` coordinates it folds them in sequence on
    (len(A), len(B)) arrays, with at most one such array besides the result;
    from there on row i is `_norm_last_axis` of A[i] - B in C order, where
    numpy reduces each entry's contiguous terms as it does one vector's."""
    if kind not in (NormKind.L1, NormKind.L2, NormKind.LINF):
        raise InvalidInputError(f"unknown norm kind {kind!r}")
    if out is None:
        out = np.empty((len(A), len(B)))
    if A.shape[1] >= _IN_SEQUENCE_BELOW:
        for i, a in enumerate(A):
            out[i] = _norm_last_axis(np.subtract(a, B, order="C"), kind)
        return out

    def term(k: int, t: Optional[np.ndarray] = None) -> np.ndarray:
        t = np.subtract.outer(A[:, k], B[:, k], out=t)
        return np.multiply(t, t, out=t) if kind == NormKind.L2 else np.abs(t, out=t)

    op = np.maximum if kind == NormKind.LINF else np.add
    functools.reduce(lambda acc, k: op(acc, term(k), out=acc), range(1, A.shape[1]),
                     term(0, out))
    return np.sqrt(out, out=out) if kind == NormKind.L2 else out


def _norm_last_axis(a: np.ndarray, kind: NormKind) -> np.ndarray:
    """Unchecked norms along the last axis, by np.sum/np.max's own ufuncs."""
    if kind == NormKind.L2:
        return np.sqrt(np.add.reduce(a * a, axis=-1))
    if kind == NormKind.L1:
        return np.add.reduce(np.abs(a), axis=-1)
    if kind == NormKind.LINF:
        return np.maximum.reduce(np.abs(a), axis=-1)
    raise InvalidInputError(f"unknown norm kind {kind!r}")


@dataclass(frozen=True)
class Domain:
    """A convex, bounded sampling region: an axis-aligned box or a norm ball.

    Coordinates are stored as plain tuples so Domain values hash and compare
    like any other frozen dataclass. Use `lower_array` etc. for numpy work.
    """

    shape: str  # "box" | "ball"
    norm_kind: NormKind = NormKind.L2
    lower: Optional[tuple[float, ...]] = None
    upper: Optional[tuple[float, ...]] = None
    center: Optional[tuple[float, ...]] = None
    radius: Optional[float] = None

    @staticmethod
    def box(lower: Sequence[float], upper: Sequence[float],
            norm_kind: NormKind = NormKind.L2) -> "Domain":
        lo = as_vector(lower)
        up = as_vector(upper)
        if lo.shape != up.shape:
            raise InvalidInputError("box bounds have mismatched dimensions")
        if not np.all(lo <= up):
            raise InvalidInputError(f"box lower bound exceeds upper: {lo.tolist()} vs {up.tolist()}")
        return Domain(shape="box", norm_kind=NormKind(norm_kind),
                      lower=tuple(map(float, lo)), upper=tuple(map(float, up)))._bounded()

    @staticmethod
    def ball(center: Sequence[float], radius: float,
             norm_kind: NormKind = NormKind.L2) -> "Domain":
        c = as_vector(center)
        r = float(radius)
        if not (math.isfinite(r) and r > 0):
            raise InvalidInputError(f"ball radius must be finite and positive, got {radius}")
        return Domain(shape="ball", norm_kind=NormKind(norm_kind),
                      center=tuple(map(float, c)), radius=r)._bounded()

    def _bounded(self) -> "Domain":
        """self, once its bounding box has finite bounds and its extent a
        finite norm in the domain's own norm: a sample of a wider one would
        hold NaN points, or distances that overflow."""
        with np.errstate(over="ignore"):
            lo, up = self.bounding_box()
            extent = _norm_last_axis(up - lo, self.norm_kind)
        if not np.isfinite(extent):
            raise InvalidInputError(
                f"the extent of the bounding box from {lo.tolist()} to {up.tolist()} "
                f"overflows a float in the {self.norm_kind.value} norm")
        return self

    @property
    def dimension(self) -> int:
        return len(self.lower) if self.shape == "box" else len(self.center)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) arrays of the tightest axis-aligned enclosing box."""
        if self.shape == "box":
            return np.array(self.lower), np.array(self.upper)
        c = np.array(self.center)
        # For l1/l2/linf balls the coordinate extent is always +-radius.
        return c - self.radius, c + self.radius

    def contains(self, p) -> bool:
        """Membership of p, read as np.array(p, float), by `contains_rows`:
        a point of another shape is never a member."""
        q = np.array(p, dtype=float, ndmin=1)
        return q.shape == (self.dimension,) and bool(self.contains_rows(q))

    def contains_rows(self, Q: np.ndarray) -> np.ndarray:
        """Membership of each row of an (n, dimension) array, or of one
        (dimension,) point, with absolute tolerance MEMBERSHIP_TOL: a
        non-finite row is never a member. A ball's norm whose squares
        overflow reads inf and one whose squares underflow reads them as 0,
        silently, whatever numpy's error state."""
        if self.shape == "box":
            inside = ((Q >= np.array(self.lower) - MEMBERSHIP_TOL)
                      & (Q <= np.array(self.upper) + MEMBERSHIP_TOL))
            return inside.all(axis=-1) & np.isfinite(Q).all(axis=-1)
        with np.errstate(all="ignore"):
            r = _norm_last_axis(Q - np.array(self.center), self.norm_kind)
        return (r <= self.radius + MEMBERSHIP_TOL) & np.isfinite(Q).all(axis=-1)

    def to_dict(self) -> dict:
        if self.shape == "box":
            return {"shape": "box", "lower": list(self.lower),
                    "upper": list(self.upper), "norm": self.norm_kind.value}
        return {"shape": "ball", "center": list(self.center),
                "radius": self.radius, "norm": self.norm_kind.value}


@dataclass(frozen=True)
class SamplePlan:
    """How to draw points from a domain, plus the slack used by checks.

    Grid mode is a per-axis lattice including box corners; random mode is a
    seeded pseudo-random draw. Either way the produced sequence is a pure
    function of (domain, plan).
    """

    mode: str  # "grid" | "random"
    resolution: Optional[tuple[int, ...]] = None  # grid: per-axis, or 1-tuple for all
    seed: Optional[int] = None
    count: Optional[int] = None
    epsilon: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise InvalidInputError(
                f"plan epsilon must be positive and finite, got {self.epsilon}")

    @staticmethod
    def grid(resolution: Union[int, Sequence[int]], epsilon: float = 1e-9) -> "SamplePlan":
        res = tuple(_whole(r, "resolution") for r in
                    ([resolution] if np.ndim(resolution) == 0 else resolution))
        if not res or any(r < 2 for r in res):
            raise InvalidInputError(f"grid resolution must be >= 2 per axis, got {res}")
        return SamplePlan(mode="grid", resolution=res, epsilon=float(epsilon))

    @staticmethod
    def random(seed: int, count: int, epsilon: float = 1e-9) -> "SamplePlan":
        seed, count = _whole(seed, "seed"), _whole(count, "count")
        if seed < 0:   # numpy's own refusal would name no field
            raise InvalidInputError(f"random sample seed must be >= 0, got {seed}")
        if count < 1:
            raise InvalidInputError(f"random sample count must be >= 1, got {count}")
        return SamplePlan(mode="random", seed=seed, count=count, epsilon=float(epsilon))

    def to_dict(self) -> dict:
        if self.mode == "grid":
            res = self.resolution[0] if len(self.resolution) == 1 else list(self.resolution)
            return {"mode": "grid", "resolution": res, "epsilon": self.epsilon}
        return {"mode": "random", "seed": self.seed, "count": self.count,
                "epsilon": self.epsilon}


def _whole(v, what: str) -> int:
    """v as an int; a bool or a fractional number is an error, not truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.number)) \
            or not float(v).is_integer():
        raise InvalidInputError(f"{what} must be a whole number, got {v!r}")
    return int(v)


def _read_numbers(obj, prefix: str = "") -> None:
    """Read every field of the frozen dataclass obj as a Python number: a
    bool or anything not real is refused, a value of an integral type becomes
    an int and any other real a float, so a numpy scalar computes and echoes
    as its Python number does. A field whose default is None may be None."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if v is None and f.default is None:
            continue
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ContractViolation(f"{prefix}{f.name} must be a real number, got {v!r}")
        object.__setattr__(obj, f.name, int(v) if isinstance(v, numbers.Integral) else float(v))


def _axis_resolutions(plan: SamplePlan, d: int) -> tuple[int, ...]:
    res = plan.resolution
    if len(res) == 1:
        return res * d
    if len(res) != d:
        raise InvalidInputError(
            f"grid resolution has {len(res)} axes but the domain has {d}")
    return res


#: Random l1-ball plans up to this dimension reject from the bounding box,
#: whose acceptance is 1/d!; their draws are pinned. Above it they are exact.
_L1_REJECTION_MAX_D = 3


def sample(domain: Domain, plan: SamplePlan) -> np.ndarray:
    """Deterministic point sample of `domain` according to `plan`, as one
    read-only (N, d) float64 array: row i is point i, a read-only view.

    Grid order is lexicographic with the first axis slowest; every produced
    point satisfies domain.contains. Grid sampling of a ball keeps the
    lattice points of the bounding box that fall inside the ball and raises
    if none do (increase the resolution). A random plan on an l1 ball is
    drawn by rejection up to d = 3 and exactly above (`_L1_REJECTION_MAX_D`).
    """
    d = domain.dimension
    if plan.mode == "grid":
        lo, up = domain.bounding_box()
        res = _axis_resolutions(plan, d)
        axes = [np.linspace(lo[i], up[i], res[i]) for i in range(d)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, d)
        if domain.shape == "ball":
            pts = pts[_norm_last_axis(pts - domain.center, domain.norm_kind)
                      <= domain.radius]
            if pts.shape[0] == 0:
                raise InvalidInputError(
                    "grid too coarse for ball domain: no lattice point falls "
                    "inside; increase the resolution")
        return _freeze(pts)

    rng = np.random.default_rng(plan.seed)
    if domain.shape == "box":
        lo, up = domain.bounding_box()
        pts = rng.uniform(lo, up, size=(plan.count, d))
    else:
        c = np.array(domain.center)
        if domain.norm_kind == NormKind.L2:
            raw = rng.standard_normal((plan.count, d))
            norms = _norm_last_axis(raw, NormKind.L2)
            norms[norms == 0.0] = 1.0
            unit = raw / norms[:, None]
            radii = domain.radius * rng.random(plan.count) ** (1.0 / d)
            pts = c + unit * radii[:, None]
        elif domain.norm_kind == NormKind.L1 and d > _L1_REJECTION_MAX_D:
            # exact: Y iid Laplace, W ~ Exp(1), c + r*Y/(||Y||_1 + W) is uniform
            # on the l1 ball (Barthe, Guedon, Mendelson & Naor, Ann. Probab. 2005)
            y = rng.laplace(size=(plan.count, d))
            s = _norm_last_axis(y, NormKind.L1) + rng.exponential(size=plan.count)
            pts = c + domain.radius * (y / s[:, None])
        else:
            # l1/linf balls: rejection-sample the bounding box, `count` per batch.
            lo, up = domain.bounding_box()
            pts = np.empty((0, d))
            while len(pts) < plan.count:
                cand = rng.uniform(lo, up, size=(plan.count, d))
                pts = np.concatenate(
                    [pts, cand[_norm_last_axis(cand - c, domain.norm_kind) <= domain.radius]])
            pts = pts[:plan.count]
    return _freeze(pts)


def convex_combination(points: Sequence[np.ndarray], weights: Sequence[float]) -> Vector:
    """Weighted average with nonnegative weights summing to 1 (within 1e-12).

    Zero-weight terms are skipped entirely, passed to `_blend` as None. That
    keeps a degenerate combination on the same arithmetic path as its reduced
    form, which the iteration engines rely on for bitwise reproducibility.
    """
    if len(points) != len(weights):
        raise ContractViolation(
            f"{len(points)} points but {len(weights)} weights")
    if len(points) == 0:
        raise ContractViolation("convex combination of zero points")
    ws = [float(w) for w in weights]
    for w in ws:
        if not math.isfinite(w) or w < 0.0:
            raise ContractViolation(f"weights must be finite and >= 0, got {w}")
    total = sum(ws)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ContractViolation(
            f"weights sum to {total!r}, off from 1 by more than {WEIGHT_SUM_TOL}")
    arrays = [np.asarray(p, dtype=float) for p in points]
    if any(a.shape != arrays[0].shape for a in arrays):
        raise ContractViolation("points of mixed dimension in convex combination")
    blended = _blend([a.ravel().tolist() for a in arrays], [w or None for w in ws])
    return _freeze(np.reshape(blended, arrays[0].shape))


def _blend(points: Sequence[Sequence], weights: Sequence) -> list:
    """sum_k weights[k] * points[k] by coordinate, skipping a weight that is None
    (a zero weight, see convex_combination): floats, or float64 columns with a
    float or a column per weight. At least one weight is not None."""
    acc = None
    for w, p in zip(weights, points):
        if w is not None:
            acc = [w * c for c in p] if acc is None else [a + w * c for a, c in zip(acc, p)]
    return acc
