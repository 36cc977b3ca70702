"""Mappings on a domain, composition, commutativity, and a builtin gallery.

A Mapping bundles a point function with the domain it acts on, a label, and
any known fixed points (verified to 1e-10 at registration). Registration
runs an empirical self-map check over a sample plan by default; mappings
whose codomain extends beyond the domain can opt out with self_map=False,
in which case only evaluation-time input checks guard them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractViolation, DomainError, InvalidInputError, IterationRuntimeError
from .vecspace import Domain, SamplePlan, Vector, _freeze, as_vector, dist, sample
from .verdicts import Verdict, Witness

FIXED_POINT_TOL = 1e-10


def _registration_sample(domain: Domain) -> np.ndarray:
    """The default self-map sample: the 5-per-axis grid up to d = 5 (at most
    3 125 points), else 3 125 of its points: the four on each axis through the
    centre besides it, then ones drawn with seed 0; a ball keeps those inside."""
    d = domain.dimension
    if d <= 5:
        return sample(domain, SamplePlan.grid(5))
    k = np.concatenate([2 + np.kron(np.eye(d, dtype=int), [[-2], [-1], [1], [2]]),
                        np.random.default_rng(0).integers(0, 5, (5 ** 5, d))])[:5 ** 5]
    pts = np.linspace(*domain.bounding_box(), 5)[k, np.arange(d)]
    return _freeze(pts[domain.contains_rows(pts)])


@dataclass(eq=False)
class Mapping:
    """A labelled point mapping on a fixed domain.

    A builtin map whose array form is elementwise also sets `fn.floats`, the
    same map on the list of a point's d coordinates, each one a Python float
    or a float64 column of rows. `_reader` gives it for floats and `_images`
    calls it on columns, instead of fn. It computes each coordinate by float
    operations alone, so every row of a column gets the IEEE result it gets
    as a float, and a constant coordinate may stay a float, which broadcasts.
    A wrapped or reassigned fn carries no such form."""

    fn: Callable[[np.ndarray], np.ndarray]
    domain: Domain
    label: str
    known_fixed_points: tuple[Vector, ...] = ()
    self_map: bool = True

    def __repr__(self) -> str:  # keep reports readable
        return f"Mapping({self.label!r} on {self.domain.shape} d={self.domain.dimension})"


def register_mapping(fn: Callable[[np.ndarray], np.ndarray],
                     domain: Domain,
                     label: str,
                     known_fixed_points: Optional[Sequence] = None,
                     plan: Optional[SamplePlan] = None,
                     self_map: bool = True) -> Mapping:
    """Build a Mapping, checking the self-map property and fixed points.

    The self-map check is empirical: every point of `plan` must map back
    into the domain. The default is a 5-per-axis grid, bounded to 3 125 of
    its points above d = 5 (see `_registration_sample`). Each claimed fixed
    point must lie in the domain and satisfy ||T(z) - z|| <= 1e-10 under the
    domain norm; a point claimed twice is kept once, where first seen.
    """
    kfp = _distinct(map(as_vector, known_fixed_points or ()))
    for z in kfp:
        if not domain.contains(z):
            raise ContractViolation(
                f"mapping {label!r}: claimed fixed point {z.tolist()} lies outside the domain")
        image = as_vector(fn(np.array(z)))
        try:
            gap = dist(image, z, domain.norm_kind)
        except InvalidInputError as e:
            raise ContractViolation(
                f"mapping {label!r}: claimed fixed point {z.tolist()}: {e}") from e
        if gap > FIXED_POINT_TOL:
            raise ContractViolation(
                f"mapping {label!r}: claimed fixed point {z.tolist()} moves by {gap:.3e}")
    if self_map:
        for p in sample(domain, plan) if plan else _registration_sample(domain):
            image = as_vector(fn(np.array(p)))
            if not domain.contains(image):
                raise ContractViolation(
                    f"mapping {label!r} is not a self-map: {p.tolist()} -> {image.tolist()}")
    return Mapping(fn=fn, domain=domain, label=label,
                   known_fixed_points=tuple(kfp), self_map=self_map)


def evaluate(T: Mapping, x) -> Vector:
    """T(x), checked: x finite and in T's domain, T(x) finite and of x's shape.
    fn gets a fresh float64 copy of x, as at every call of fn in this module,
    so a map that writes into its argument runs."""
    v = as_vector(x)
    if v.shape != (T.domain.dimension,):
        raise DomainError(
            f"point of dimension {v.shape[0]} fed to {T.label!r} on a "
            f"{T.domain.dimension}-d domain")
    if not T.domain.contains(v):
        raise DomainError(f"{v.tolist()} is outside the domain of {T.label!r}")
    image = as_vector(T.fn(np.array(v)))
    if image.shape != v.shape:
        raise DomainError(f"{T.label!r} maps {v.tolist()} to an image of shape "
                          f"{image.shape} on a {v.shape[0]}-d domain")
    return image


def _reader(T: Mapping) -> Callable[[list[float]], Sequence[float]]:
    """T's image of a point x given as a float list, read unchecked:
    `fn.floats` where fn carries that form, else fn on a fresh float64 copy
    of x, read as `as_vector` reads it (a scalar is a 1-vector; an image of
    another rank reads as no coordinates)."""
    form = getattr(T.fn, "floats", None)
    if form is not None:
        return form

    def read(x: list[float], fn=T.fn) -> Sequence[float]:
        img = np.atleast_1d(np.asarray(fn(np.array(x)), dtype=float))
        return img.tolist() if img.ndim == 1 else ()

    return read


def _image(T: Mapping, x: list[float], n: int) -> list[float]:
    """T x_n for x = x_n, a float list, as `_reader` reads it. An image of
    the wrong shape or with a non-finite coordinate raises
    IterationRuntimeError at step n."""
    floats = _reader(T)(x)
    if len(floats) != len(x) or not all(map(math.isfinite, floats)):
        raise IterationRuntimeError(
            f"mapping {T.label!r} returned an invalid image at step {n}", step=n)
    return floats


def _images(T: Mapping, X: np.ndarray) -> Optional[np.ndarray]:
    """The images of the rows of the (n, d) float array X as `_image` reads
    them, or None if fn raised or one is invalid: `fn.floats` on X's d columns
    at once, kept by column, where fn carries that form; else fn on each row of a copy."""
    form = getattr(T.fn, "floats", None)
    try:
        if form is None:
            TX = np.array([np.array(T.fn(x), dtype=float) for x in X.copy()])
            TX = TX[:, None] if TX.ndim == 1 else TX   # scalar images, as as_vector reads them
        else:
            img = form(list(X.T))
            TX = np.empty((len(img), len(X))).T   # a wrong count of columns is a wrong shape
            for j, c in enumerate(img):
                TX[:, j] = c                      # a constant coordinate's float broadcasts
    except Exception:   # T.fn may raise anything; the caller re-runs point by point
        return None
    return TX if TX.shape == X.shape and np.isfinite(TX).all() else None


def _evaluate_rows(T: Mapping, X: np.ndarray) -> np.ndarray:
    """np.stack([evaluate(T, x) for x in X]) for a float array X, its rows
    checked as one array and mapped by `_images`; on a failure, that loop."""
    if X.shape[1:] == (T.domain.dimension,) and len(X) and T.domain.contains_rows(X).all():
        TX = _images(T, X)
        if TX is not None:
            return np.ascontiguousarray(TX)
    return np.stack([evaluate(T, x) for x in X])


def _distinct(points: Iterable[Vector]) -> list[Vector]:
    """The points in first-seen order, each byte pattern once."""
    return list({z.tobytes(): z for z in points}.values())


def _fixed_by(candidates: Iterable[Vector], fns: Sequence[Callable],
              domain: Domain) -> list[Vector]:
    """The distinct candidates, in first-seen order, that lie in the domain
    and that every fn fixes within FIXED_POINT_TOL; an image of another
    shape than its candidate fixes nothing."""
    def fixes(fn: Callable, z: Vector) -> bool:
        image = as_vector(fn(np.array(z)))
        return image.shape == z.shape and dist(image, z, domain.norm_kind) <= FIXED_POINT_TOL

    return [z for z in _distinct(candidates)
            if domain.contains(z) and all(fixes(fn, z) for fn in fns)]


def compose(S: Mapping, T: Mapping) -> Mapping:
    """The composite x -> S(T(x)), registered on the shared domain.

    Pointwise the composite equals evaluate(S, evaluate(T, x)) bitwise: the
    same two raw calls run in the same order. Fixed-point candidates are
    taken from both factors' lists and kept only if the composite actually
    fixes them.
    """
    if S.domain != T.domain:
        raise ContractViolation(
            f"cannot compose {S.label!r} with {T.label!r}: different domains")
    sfn, tfn = S.fn, T.fn

    def composite(x, _s=sfn, _t=tfn):
        return _s(_t(x))

    candidates = _fixed_by((*S.known_fixed_points, *T.known_fixed_points),
                           [composite], S.domain)
    return register_mapping(composite, S.domain, f"{S.label}∘{T.label}",
                            known_fixed_points=candidates)


def check_commuting(S: Mapping, T: Mapping, plan: SamplePlan) -> Verdict:
    """Scan for points where S(T(x)) and T(S(x)) differ by more than epsilon.

    Samples are visited in plan order and the scan stops at the first
    violation, so the witness is deterministic and a violation is reported
    even when later samples would leave the domain under one of the maps.
    On a pass the maximum observed gap is recorded.
    """
    if S.domain != T.domain:
        raise ContractViolation(
            f"cannot compare {S.label!r} and {T.label!r}: different domains")
    label = f"commuting({S.label},{T.label})"
    pts = sample(S.domain, plan)
    worst = 0.0
    for i, x in enumerate(pts):
        left = evaluate(S, evaluate(T, x))
        right = evaluate(T, evaluate(S, x))
        gap = dist(left, right, S.domain.norm_kind)
        if gap > plan.epsilon:
            return Verdict(condition_label=label, passed=False, checked_pairs=i + 1,
                           witness=Witness.at(x, lhs=gap, rhs=0.0,
                                              left_value=left, right_value=right),
                           plan=plan)
        worst = max(worst, gap)
    return Verdict(condition_label=label, passed=True, checked_pairs=len(pts),
                   plan=plan, observed_max=worst)


@dataclass(eq=False)
class MappingFamily:
    """Mappings sharing one domain, optionally with a commuting certificate."""

    members: tuple[Mapping, ...]
    commuting_certificate: Optional[Verdict] = None

    def __post_init__(self):
        if not self.members:
            raise ContractViolation("a mapping family needs at least one member")
        d0 = self.members[0].domain
        for m in self.members[1:]:
            if m.domain != d0:
                raise ContractViolation(
                    f"family members {self.members[0].label!r} and {m.label!r} "
                    "live on different domains")

    @property
    def domain(self) -> Domain:
        return self.members[0].domain

    def __len__(self) -> int:
        return len(self.members)


def make_family(members: Sequence[Mapping],
                plan: Optional[SamplePlan] = None) -> MappingFamily:
    """Bundle mappings into a family; with a plan, certify pairwise commuting.

    The certificate is the merged outcome over all unordered pairs: a pass
    records the largest commutator gap seen anywhere, a fail carries the
    first failing pair's witness.
    """
    fam = MappingFamily(members=tuple(members))
    if plan is not None:
        worst = 0.0
        checked = 0
        for S, T in itertools.combinations(fam.members, 2):
            v = check_commuting(S, T, plan)
            checked += v.checked_pairs
            if not v.passed:
                fam.commuting_certificate = replace(v, checked_pairs=checked)
                return fam
            worst = max(worst, v.observed_max or 0.0)
        fam.commuting_certificate = Verdict(
            condition_label="commuting(family)", passed=True,
            checked_pairs=checked, plan=plan, observed_max=worst)
    return fam


def common_fixed_points(family: MappingFamily) -> tuple[Vector, ...]:
    """Known fixed points that every member actually fixes within 1e-10.

    Candidates come from the members' known_fixed_points lists and are
    re-verified by evaluation, so the result never trusts a stale claim.
    """
    return tuple(_fixed_by(
        [z for m in family.members for z in m.known_fixed_points],
        [t.fn for t in family.members], family.domain))


# ---------------------------------------------------------------------------
# builtin gallery
# ---------------------------------------------------------------------------

def piecewise_map(domain: Domain, default: float,
                  cases: Sequence[tuple[float, float]],
                  label: str = "piecewise",
                  known_fixed_points: Optional[Sequence] = None) -> Mapping:
    """1-d map equal to `default` except at finitely many exact coordinates.

    Case matching is exact float equality; the exceptional coordinates are
    meant to be grid endpoints, which linspace reproduces exactly.
    """
    if domain.dimension != 1:
        raise ContractViolation("piecewise_map is 1-dimensional")
    table = {}
    for j, case in enumerate(cases):
        try:
            x, v = case
        except (TypeError, ValueError):
            raise ContractViolation(
                f"cases[{j}]: expected an [x, value] pair, got {case!r}") from None
        table[float(x)] = float(v)

    def fn(p, _table=table, _default=float(default)):
        return np.array([_table.get(float(p[0]), _default)])

    return register_mapping(fn, domain, label,
                            known_fixed_points=known_fixed_points)


def example1_map(domain: Optional[Domain] = None) -> Mapping:
    """Piecewise interval map: 0 everywhere except the right endpoint 4 -> 2.

    Discontinuous at 4, not nonexpansive, but quasi-nonexpansive with fixed
    point 0. The canonical stress case for the condition checks.
    """
    dom = domain or Domain.box([0.0], [4.0])
    return piecewise_map(dom, default=0.0, cases=[(4.0, 2.0)],
                         label="example1", known_fixed_points=[[0.0]])


def identity_map(domain: Domain, label: str = "identity") -> Mapping:
    """x -> x, as scaling by 1 (1.0 * x is x bitwise)."""
    return scaling_map(domain, 1.0, label)


def constant_map(domain: Domain, value: Sequence[float],
                 label: Optional[str] = None) -> Mapping:
    v = as_vector(value)
    if not domain.contains(v):
        raise ContractViolation(f"constant value {v.tolist()} lies outside the domain")

    def fn(p, _v=v):
        return _v

    fn.floats = lambda q, _v=v.tolist(): list(_v)
    return register_mapping(fn, domain, label or f"constant{v.tolist()}",
                            known_fixed_points=[v])


def affine_map(domain: Domain, matrix: Sequence[Sequence[float]],
               shift: Sequence[float], label: str = "affine") -> Mapping:
    """x -> A x + b. If I - A is invertible and the solution lies in the
    domain, its fixed point is recorded."""
    A = np.asarray(matrix, dtype=float)
    b = as_vector(shift)
    d = domain.dimension
    if A.shape != (d, d) or b.shape != (d,):
        raise ContractViolation(
            f"affine map shapes {A.shape}/{b.shape} do not fit dimension {d}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("non-finite entry in affine matrix")

    def fn(p, _A=A, _b=b):
        return _A @ p + _b

    try:
        kfp = _fixed_by([np.linalg.solve(np.eye(d) - A, b)], [fn], domain)
    except np.linalg.LinAlgError:
        kfp = None
    return register_mapping(fn, domain, label, known_fixed_points=kfp)


def scaling_map(domain: Domain, factor: float,
                label: Optional[str] = None) -> Mapping:
    a = float(factor)

    def fn(p, _a=a):
        return _a * p

    fn.floats = lambda q, _a=a: [_a * c for c in q]
    return register_mapping(fn, domain, label or f"scaling({a})",
                            known_fixed_points=_fixed_by(
                                [np.zeros(domain.dimension)], [fn], domain))


def rotation_scaling_map(domain: Domain, angle: float, factor: float = 1.0,
                         label: Optional[str] = None) -> Mapping:
    """Planar rotation by `angle` radians followed by scaling by `factor`."""
    if domain.dimension != 2:
        raise ContractViolation("rotation_scaling_map needs a 2-d domain")
    c, s = math.cos(angle), math.sin(angle)
    R = float(factor) * np.array([[c, -s], [s, c]])

    def fn(p, _R=R):
        return _R @ p

    return register_mapping(fn, domain, label or f"rotation_scaling({angle:g},{factor:g})",
                            known_fixed_points=_fixed_by(
                                [np.zeros(domain.dimension)], [fn], domain))


def translation_map(domain: Domain, offset: Sequence[float],
                    label: Optional[str] = None) -> Mapping:
    """x -> x + offset. Never a self-map of a bounded set, so it registers
    without the self-map check; useful as a commutativity counterexample."""
    v = as_vector(offset)
    if v.shape != (domain.dimension,):
        raise ContractViolation(f"translation offset has {v.size} coordinates, "
                                f"domain has {domain.dimension}")

    def fn(p, _v=v):
        return p + _v

    fn.floats = lambda q, _v=v.tolist(): [c + o for c, o in zip(q, _v, strict=True)]
    return register_mapping(fn, domain, label or f"translation{v.tolist()}",
                            self_map=False)


GALLERY_BOX = Domain.box([-1.0, -1.0], [1.0, 1.0])
GALLERY_BALL = Domain.ball([0.0, 0.0], 1.0)

#: Matrix with spectral norm ~0.609 < 1; fixed point (3/7, -2/7).
GALLERY_AFFINE_MATRIX = ((0.6, 0.1), (-0.1, 0.5))
GALLERY_AFFINE_SHIFT = (0.2, -0.1)


def builtin_gallery() -> list[Mapping]:
    """The standing test gallery. Every member passes registration checks."""
    return [
        example1_map(),
        identity_map(GALLERY_BOX),
        constant_map(GALLERY_BOX, [0.3, -0.2]),
        affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT,
                   label="affine_contraction"),
        scaling_map(GALLERY_BALL, 0.9),
        scaling_map(GALLERY_BALL, 0.7),
        scaling_map(GALLERY_BALL, 0.5),
        rotation_scaling_map(GALLERY_BALL, math.pi / 6, 0.8),
    ]
