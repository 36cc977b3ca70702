"""Vector primitives: norms, domains, sampling, convex combinations.

The scan modules depend on two exact-arithmetic contracts checked here:
pairwise_norm must agree bitwise with the scalar dist on every entry (and
one point's norm with its row's norm in a block), and
convex_combination must skip zero weights so that a weight vector like
[1.0, 0.0] returns the first point bit-for-bit.
"""
import hashlib
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixedlab import (
    ContractViolation,
    Domain,
    InvalidInputError,
    NormKind,
    SamplePlan,
    as_vector,
    convex_combination,
    dist,
    norm,
    pairwise_norm,
    sample,
)
from fixedlab import vecspace
from fixedlab.vecspace import MEMBERSHIP_TOL, _norm_last_axis
from helpers import reference_sample, reference_step

finite_coord = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


@st.composite
def vector_pairs(draw, max_dim=4):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    xs = draw(st.lists(finite_coord, min_size=dim, max_size=dim))
    ys = draw(st.lists(finite_coord, min_size=dim, max_size=dim))
    return np.array(xs), np.array(ys)


def test_norm_values():
    v = [3.0, -4.0]
    assert norm(v, NormKind.L2) == 5.0
    assert norm(v, NormKind.L1) == 7.0
    assert norm(v, NormKind.LINF) == 4.0
    assert norm([0.0, 0.0], NormKind.L2) == 0.0


def test_norm_accepts_string_kind():
    assert norm([3.0, -4.0], "l2") == 5.0
    with pytest.raises(ValueError):
        norm([1.0], "l3")


def test_dist_refuses_points_of_different_shapes_naming_both():
    with pytest.raises(InvalidInputError,
                       match=r"^no distance between points of shapes \(1,\) and \(2,\)$"):
        dist([1.0], [0.0, 0.0])
    with pytest.raises(InvalidInputError, match=r"shapes \(2, 1\) and \(2,\)$"):
        dist(np.zeros((2, 1)), np.zeros(2))


@pytest.mark.filterwarnings("ignore:overflow encountered")   # pairwise_norm's
def test_dist_refuses_a_non_finite_operand_and_reads_an_overflowing_distance_as_inf():
    """The l2 norm squares the difference: between finite points 1e200 apart
    it overflows to inf, as `pairwise_norm` reads it, where a non-finite
    point has no distance at all."""
    with pytest.raises(InvalidInputError, match=r"^non-finite coordinate in \[nan\]$"):
        dist([math.nan], [0.0])
    with pytest.raises(InvalidInputError, match=r"^non-finite coordinate in \[-inf, 0\.0\]$"):
        dist([0.0, 0.0], [-math.inf, 0.0])
    x, y = np.array([[1e200], [-1e308]]), np.array([[-1e200], [1e308]])
    for kind in NormKind:
        assert dist(x[0], y[0], kind) == pairwise_norm(x[:1], y[:1], kind)[0, 0]
        assert dist(x[1], y[1], kind) == math.inf   # the difference itself overflows
    assert dist(x[0], y[0]) == math.inf and dist(x[0], y[0], "l1") == 2e200


@pytest.mark.parametrize("point", [[[3.0, 4.0]], [], np.zeros((2, 1))],
                         ids=["2-d", "empty", "column"])
def test_norm_and_dist_refuse_a_point_as_as_vector_does(point):
    """A 2-d or an empty point is no vector: norm and dist read each point by
    `as_vector`'s rule and refuse it with its error, not numpy's TypeError or 0.0."""
    shape = re.escape(str(np.shape(point)))
    message = rf"^expected a 1-d vector, got shape {shape}$"
    for read in (as_vector, norm, lambda p: dist(p, p)):
        with pytest.raises(InvalidInputError, match=message):
            read(point)


def test_norm_refuses_a_non_finite_coordinate_and_pairwise_norm_an_unknown_kind():
    with pytest.raises(InvalidInputError, match=r"^non-finite coordinate in \[nan\]$"):
        norm([math.nan])
    with pytest.raises(InvalidInputError, match=r"^unknown norm kind 'l3'$"):
        pairwise_norm(np.zeros((2, 2)), np.zeros((3, 2)), "l3")


@given(vector_pairs())
def test_dist_symmetry_is_exact(pair):
    x, y = pair
    for kind in NormKind:
        assert dist(x, y, kind) == dist(y, x, kind)


@given(vector_pairs())
@settings(max_examples=60)
def test_triangle_inequality(pair):
    x, y = pair
    mid = 0.5 * (x + y)
    for kind in NormKind:
        d = dist(x, y, kind)
        assert dist(x, mid, kind) + dist(mid, y, kind) <= d + 1e-9 * (1.0 + d)


def test_pairwise_matches_scalar_dist_bitwise():
    rng = np.random.default_rng(7)
    A = rng.uniform(-2.0, 2.0, size=(6, 3))
    B = rng.uniform(-2.0, 2.0, size=(5, 3))
    for kind in NormKind:
        M = pairwise_norm(A, B, kind)
        for i in range(6):
            for j in range(5):
                assert M[i, j] == dist(A[i], B[j], kind), (i, j, kind)


@pytest.mark.parametrize("d", [*range(1, 40), 64, 128, 129, 257, 300, 511, 1024])
def test_pairwise_matches_scalar_dist_bitwise_for_every_dimension(d):
    """pairwise_norm keeps np.add.reduce's summation order: terms from
    1e-300 to 1e3 make any other order show in the last bits."""
    rng = np.random.default_rng(d)
    A = rng.uniform(-1.0, 1.0, size=(4, d)) * 10.0 ** rng.integers(-300, 4, size=(4, d))
    B = rng.uniform(-1.0, 1.0, size=(5, d)) * 10.0 ** rng.integers(-300, 4, size=(5, d))
    B[0] = A[1]   # a coincident pair: exactly 0.0
    for kind in NormKind:
        M = pairwise_norm(A, B, kind)
        assert M[1, 0] == 0.0
        for i in range(4):
            for j in range(5):
                assert M[i, j] == dist(A[i], B[j], kind), (d, i, j, kind)


#: Coordinates of either sign: desk-scale values, subnormals and zeros, and
#: values near 1e150, whose squares stay finite through a sum of 20 terms.
mixed_coord = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e149, max_value=1e151).flatmap(lambda v: st.sampled_from([v, -v])))


@st.composite
def point_set_pairs(draw):
    """Two (n, d) point sets, d on both sides of _IN_SEQUENCE_BELOW."""
    d = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 20]))

    def points():
        n = draw(st.integers(1, 4))
        return np.array(draw(st.lists(mixed_coord, min_size=n * d, max_size=n * d))).reshape(n, d)
    return points(), points()


@given(point_set_pairs(), st.sampled_from(list(NormKind)))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_pairwise_norm_of_swapped_sets_is_the_transpose_bit_for_bit(sets, kind):
    """The symmetric pair scan rests on this: a - b and b - a differ in sign
    only, which squaring and abs drop, and the terms are summed in the same
    order either way."""
    A, B = sets
    assert pairwise_norm(A, B, kind).tobytes() == pairwise_norm(B, A, kind).T.tobytes()


@pytest.mark.parametrize("d", [5, 30])
def test_pairwise_norm_bits_do_not_depend_on_memory_layout(d):
    """Fortran-ordered and strided inputs give the C-ordered inputs' bits:
    numpy reduces a Fortran-ordered difference one column at a time."""
    rng = np.random.default_rng(d)
    A = rng.uniform(-1.0, 1.0, size=(4, d)) * 10.0 ** rng.integers(-300, 4, size=(4, d))
    B = rng.uniform(-1.0, 1.0, size=(50, d)) * 10.0 ** rng.integers(-300, 4, size=(50, d))
    for kind in NormKind:
        want = pairwise_norm(A, B, kind).tobytes()
        for a, b in [(np.asfortranarray(A), np.asfortranarray(B)),
                     (np.repeat(A, 2, axis=1)[:, ::2], np.repeat(B, 2, axis=1)[:, ::2])]:
            assert pairwise_norm(a, b, kind).tobytes() == want, (d, kind)


@pytest.mark.parametrize("kind", list(NormKind))
def test_float_list_norm_matches_the_array_norm_bitwise_for_every_dimension(kind):
    """One point's norm read from a float list (`norm`, `dist`, and so
    `Domain.contains`) is bitwise its row's norm in a block (the engines'
    residuals, `contains_rows`, the diagnostics): numpy folds each row's
    contiguous terms as it folds one vector's, here with terms from 5e-324
    to 1e150, signed zeros and every branch of the order."""
    rng = np.random.default_rng(11)
    for d in [*range(1, 301), 511, 1024]:
        v = rng.uniform(-1.0, 1.0, d) * 10.0 ** rng.integers(-300, 151, d)
        v[::7], v[1::11], v[2::13] = -0.0, 5e-324, -1e150
        block = np.stack([v, -v, np.zeros(d), -np.zeros(d)])
        for w, want in zip(block.tolist(), _norm_last_axis(block, kind).tolist()):
            assert norm(w, kind).hex() == want.hex(), (d, kind)
            assert dist(w, [0.0] * d, kind).hex() == want.hex(), (d, kind)


def test_a_float_list_of_eight_terms_is_summed_as_numpy_sums_it():
    """At `_IN_SEQUENCE_BELOW` terms np.add.reduce adds in 8 partials: seven
    1e-16 terms survive beside 1.0 there, where a sum in sequence drops each;
    `norm`, `dist`, `pairwise_norm` and a block's rows all sum them so."""
    v = [1.0] + [1e-16] * 7
    assert len(v) == vecspace._IN_SEQUENCE_BELOW
    want = 1.0000000000000007
    assert norm(v, NormKind.L1) == want
    assert dist(v, [0.0] * 8, NormKind.L1) == want
    assert pairwise_norm(np.array([v]), np.zeros((1, 8)), NormKind.L1).tolist() == [[want]]
    assert _norm_last_axis(np.array([v, v]), NormKind.L1).tolist() == [want, want]


@pytest.mark.parametrize("d", [1, 2, 5, 8, 30, 64])
def test_pairwise_norm_holds_no_tile_by_dimension_temporary(d):
    rng = np.random.default_rng(0)
    A, B = rng.uniform(size=(256, d)), rng.uniform(size=(2500, d))
    for kind in NormKind:
        tracemalloc.start()
        try:
            pairwise_norm(A, B, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 256 * 2500 * 8, (kind, peak)


def test_as_vector_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        as_vector([1.0, float("nan")])
    with pytest.raises(InvalidInputError):
        as_vector([1.0, float("inf")])
    with pytest.raises(InvalidInputError):
        as_vector([[1.0], [2.0]])


def test_as_vector_is_read_only():
    v = as_vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v[0] = 9.0


def test_box_validation():
    with pytest.raises(InvalidInputError):
        Domain.box([1.0], [0.0])
    with pytest.raises(InvalidInputError):
        Domain.box([0.0, 0.0], [1.0])


def test_box_contains_boundary_and_tolerance():
    d = Domain.box([0.0], [4.0])
    assert d.contains(as_vector([4.0]))
    assert d.contains(as_vector([4.0 + 1e-10]))
    assert not d.contains(as_vector([4.1]))
    assert d.dimension == 1


def test_ball_contains():
    d = Domain.ball([0.0, 0.0], 1.0)
    assert d.contains(as_vector([0.6, 0.8]))
    assert not d.contains(as_vector([0.8, 0.8]))
    lo, hi = d.bounding_box()
    assert list(lo) == [-1.0, -1.0] and list(hi) == [1.0, 1.0]


@pytest.mark.parametrize("p", [[1, 0], [0.5, 1], [True, 0.5], [0.5], [0.5, 0.5, 0.0],
                               [[0.5, 0.5]], ["0.5", "0.5"], [0.5, float("nan")],
                               (0.6, 0.8), [0.6, 0.8]])
def test_contains_reads_any_point_as_its_float_array(p):
    """Every point, a list of Python floats or of ints, bools or strings,
    is read as np.array(p, float)."""
    for d in (Domain.ball([0.0, 0.0], 1.0, "l1"), Domain.box([0.0, 0.0], [0.5, 1.0])):
        q = np.array(p, dtype=float, ndmin=1)
        want = q.shape == (2,) and bool(d.contains_rows(q[None])[0])
        assert d.contains(p) == want, (p, d.shape)


_MEMBERSHIP_DOMAINS = [Domain.box([-1.0, 0.5, 2.0], [2.0, 3.0, 2.0], k) for k in NormKind] + [
    Domain.ball(c, 1.5, k) for c in ([0.25, -0.5, 3.0], [0.0, 0.0, 0.0]) for k in NormKind]


@st.composite
def _probes(draw):
    """A domain and a float list of its dimension whose coordinates sit on,
    a tolerance off and one ulp around each face (or the centre), or are
    non-finite, far (+-1e200, whose squares overflow), tiny (the centre
    +-1e-200, whose squares underflow at the origin), or anything near the
    domain."""
    dom = draw(st.sampled_from(_MEMBERSHIP_DOMAINS))
    lo, up = dom.bounding_box()
    q = []
    for i in range(dom.dimension):
        face = [lo[i], up[i]] + ([] if dom.shape == "box" else
                                 [dom.center[i], dom.center[i] - (dom.radius + MEMBERSHIP_TOL),
                                  dom.center[i] + (dom.radius + MEMBERSHIP_TOL)])
        near = [v + o for v in face for o in (-MEMBERSHIP_TOL, 0.0, MEMBERSHIP_TOL)]
        edges = near + [math.nextafter(v, t) for v in near for t in (-math.inf, math.inf)]
        q.append(float(draw(st.one_of(
            st.sampled_from(edges + [math.inf, -math.inf, math.nan, 1e200, -1e200,
                                     (lo[i] + up[i]) / 2 - 1e-200, (lo[i] + up[i]) / 2 + 1e-200]),
            st.floats(lo[i] - 1.0, up[i] + 1.0)))))
    return dom, q


@given(_probes())
@example((_MEMBERSHIP_DOMAINS[5], [0.25, math.nan, 3.0]))   # linf: max() would drop the NaN
@settings(max_examples=400)
def test_contains_and_the_row_rule_decide_membership_under_any_numpy_error_state(probe):
    """`contains` and `contains_rows` decide as the rule transcribed from
    its definition: finite, and within MEMBERSHIP_TOL of the box or the
    ball; with no warning and the same answer when numpy raises on every
    floating-point error, as a far point's squares overflow and a tiny
    offset's underflow."""
    dom, q = probe
    if dom.shape == "box":
        want = all(map(math.isfinite, q)) and all(
            lo - MEMBERSHIP_TOL <= c <= up + MEMBERSHIP_TOL
            for lo, c, up in zip(dom.lower, q, dom.upper))
    else:
        want = all(map(math.isfinite, q)) and dist(
            q, dom.center, dom.norm_kind) <= dom.radius + MEMBERSHIP_TOL
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dom.contains(q) is want
        assert bool(dom.contains_rows(np.array([q]))[0]) is want


def test_domain_to_dict_round_trip_keys():
    box = Domain.box([0.0], [4.0])
    ball = Domain.ball([0.0, 0.0], 1.0)
    assert box.to_dict()["shape"] == "box"
    assert ball.to_dict()["shape"] == "ball"
    assert ball.to_dict()["radius"] == 1.0


def test_plan_validation():
    with pytest.raises(InvalidInputError):
        SamplePlan.grid(1)
    with pytest.raises(InvalidInputError):
        SamplePlan.random(1, 0)
    with pytest.raises(InvalidInputError):
        SamplePlan.grid(5, epsilon=0.0)
    # integer fields are rejected, never truncated, when fractional or bool
    for bad in ([2.5, 3], 4.5, True, [3, False]):
        with pytest.raises(InvalidInputError, match="resolution"):
            SamplePlan.grid(bad)
    with pytest.raises(InvalidInputError, match=r"^random sample seed must be >= 0, got -1$"):
        SamplePlan.random(-1, 3)
    for seed, count in ((7.9, 3), (7, 3.7), (True, 3), (1, True)):
        with pytest.raises(InvalidInputError, match="seed|count"):
            SamplePlan.random(seed, count)


def test_grid_1d_equals_linspace():
    pts = sample(Domain.box([0.0], [4.0]), SamplePlan.grid(9))
    expect = np.linspace(0.0, 4.0, 9)
    assert len(pts) == 9
    assert all(p[0] == e for p, e in zip(pts, expect))


def test_grid_2d_order_is_first_axis_major():
    pts = sample(Domain.box([0.0, 10.0], [1.0, 11.0]), SamplePlan.grid(3))
    got = [(p[0], p[1]) for p in pts]
    assert got == [(0.0, 10.0), (0.0, 10.5), (0.0, 11.0),
                   (0.5, 10.0), (0.5, 10.5), (0.5, 11.0),
                   (1.0, 10.0), (1.0, 10.5), (1.0, 11.0)]


def test_per_axis_grid_resolution_is_the_lexicographic_lattice():
    box = Domain.box([0.0, 10.0], [1.0, 11.0])
    pts = sample(box, SamplePlan.grid([2, 3]))
    assert [(p[0], p[1]) for p in pts] == [(0.0, 10.0), (0.0, 10.5), (0.0, 11.0),
                                           (1.0, 10.0), (1.0, 10.5), (1.0, 11.0)]
    with pytest.raises(InvalidInputError, match="3 axes but the domain has 2"):
        sample(box, SamplePlan.grid([2, 3, 4]))


def test_ball_grid_is_filtered_to_the_ball():
    d = Domain.ball([0.0, 0.0], 1.0)
    pts = sample(d, SamplePlan.grid(8))
    assert len(pts) == 32
    assert all(d.contains(p) for p in pts)


def test_ball_grid_with_no_interior_lattice_point_raises():
    # radius too small to catch any resolution-2 lattice point
    d = Domain.ball([0.5, 0.5], 0.01)
    with pytest.raises(InvalidInputError):
        sample(d, SamplePlan.grid(2))


def test_random_sampling_is_seed_deterministic():
    d = Domain.ball([0.0, 0.0], 1.0)
    a = sample(d, SamplePlan.random(123, 50))
    b = sample(d, SamplePlan.random(123, 50))
    c = sample(d, SamplePlan.random(124, 50))
    assert all(np.array_equal(p, q) for p, q in zip(a, b))
    assert any(not np.array_equal(p, q) for p, q in zip(a, c))
    assert all(d.contains(p) for p in a)


@pytest.mark.parametrize("kind", list(NormKind))
def test_random_sampling_respects_ball_norm(kind):
    d = Domain.ball([0.0, 0.0], 0.5, norm_kind=kind)
    for p in sample(d, SamplePlan.random(5, 80)):
        assert norm(p, kind) <= 0.5 + 1e-9


def test_a_random_l1_ball_keeps_a_candidate_on_its_sphere(monkeypatch):
    """The rejection sampler keeps a candidate at distance exactly radius
    from the center: the ball is closed. Its draws are stubbed so that the
    first batch holds (0.5, 0.5), on the unit l1 sphere, and (0.0, 0.25)."""
    batches = iter([[[0.5, 0.5], [0.0, 0.25]], [[0.125, 0.125], [0.125, 0.125]]])

    class Draws:
        def uniform(self, lo, up, size):
            return np.array(next(batches))

    monkeypatch.setattr(vecspace.np.random, "default_rng", lambda seed: Draws())
    got = sample(Domain.ball([0.0, 0.0], 1.0, "l1"), SamplePlan.random(0, 2))
    assert got.tolist() == [[0.5, 0.5], [0.0, 0.25]]


def _sample_digest(kind, plans):
    h = hashlib.sha256()
    for d in (1, 2, 3):
        dom = Domain.ball([0.25] * d, 1.5, kind)
        for plan in plans:
            h.update(np.stack(sample(dom, plan)).tobytes())
    return h.hexdigest()


# Digests of the points the l1/linf rejection sampler and the ball-grid
# filter produced before either was vectorised: same draws, same order.
@pytest.mark.parametrize("kind,mode,digest", [
    ("l1", "random", "8ca160a972309a752800db37d393e69653b3b1dd6e5f524ae2b1317ae8b1c3bf"),
    ("linf", "random", "28d93c06203800d758af6fc879105d64c7e5e75ac69668b0e98ca4a0f225cb4c"),
    ("l1", "grid", "578039ce30f6e0743bebd3e04695fcd90941c65e07cee0a659739bfbb1c66d27"),
    ("l2", "grid", "1598a8f2ab5c3d4e72a2008d0ac4e49fc23ccc4b6a1a7913b41be32fe826b9e2"),
    ("linf", "grid", "960518ae52553751adec0290ac6b9c8fb8e5c89d4874bc7b7b8579b65dc3963d"),
])
def test_ball_samples_are_pinned(kind, mode, digest):
    plans = ([SamplePlan.random(s, c) for s in (0, 1, 7, 123) for c in (1, 5, 40, 301)]
             if mode == "random" else [SamplePlan.grid(r) for r in (3, 4, 8, 11)])
    assert _sample_digest(kind, plans) == digest


@st.composite
def domains_and_plans(draw):
    """A box or a ball in 1 to 6 dimensions under any norm, with a grid
    plan (one resolution or one per axis) or a random plan, of at most a
    few thousand points."""
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(list(NormKind)))
    coord = st.floats(-10.0, 10.0)
    if draw(st.booleans()):
        lo = draw(st.lists(coord, min_size=d, max_size=d))
        dom = Domain.box(lo, [c + draw(st.floats(0.0, 5.0)) for c in lo], kind)
    else:
        dom = Domain.ball(draw(st.lists(coord, min_size=d, max_size=d)),
                          draw(st.floats(0.1, 5.0)), kind)
    top = max(2, int(4096 ** (1 / d)))
    if draw(st.booleans()):
        res = draw(st.integers(2, top) | st.lists(st.integers(2, top), min_size=d, max_size=d))
        return dom, SamplePlan.grid(res)
    return dom, SamplePlan.random(draw(st.integers(0, 2**32)), draw(st.integers(1, 300)))


def _outcome(sampler, domain, plan):
    try:
        return sampler(domain, plan)
    except InvalidInputError as exc:   # a ball grid with no lattice point inside
        return str(exc)


@given(domains_and_plans())
@settings(max_examples=200, deadline=None)
def test_sample_is_the_stacked_list_of_copies_bit_for_bit_and_read_only(case):
    dom, plan = case
    got = _outcome(sample, dom, plan)
    want = _outcome(reference_sample, dom, plan)
    if isinstance(want, str):
        assert got == want
        return
    want = np.stack(want)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    assert not any(row.flags.writeable for row in got)


def test_a_grid_sample_holds_only_its_coordinates():
    """A 300 x 300 grid is 1.4 MiB of coordinates; a list of 90 000
    separately frozen copies held 11.8 MiB."""
    box = Domain.box([0.0, 0.0], [1.0, 1.0])
    tracemalloc.start()
    try:
        pts = sample(box, SamplePlan.grid(300))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pts.nbytes == 300 * 300 * 2 * 8
    assert held <= 1.2 * pts.nbytes and peak <= 1.2 * pts.nbytes, (held, peak)


def _ks_uniform(u: np.ndarray) -> float:
    """The Kolmogorov-Smirnov statistic of u against Uniform(0, 1)."""
    u = np.sort(u)
    i = np.arange(1, len(u) + 1)
    return float(max((i / len(u) - u).max(), (u - (i - 1) / len(u)).max()))


#: The KS statistic's 1 % critical value for 10**4 draws: 1.628 / sqrt(10**4).
KS_CRITICAL = 0.01628


@pytest.mark.parametrize("d", [4, 10, 40])
def test_random_l1_ball_is_exact_and_fast_above_d3(d):
    """Rejection from the bounding box accepts 1/d! of its draws; above
    d = 3 the plan is drawn exactly, and is uniform on the ball: the l1
    radius obeys P(||x - c||_1 <= t r) = t^d and one coordinate obeys
    P(|x_1 - c_1| <= s r) = 1 - (1 - s)^d."""
    c, r = np.linspace(-0.5, 0.5, d), 2.0
    dom = Domain.ball(c, r, NormKind.L1)
    t0 = time.perf_counter()
    pts = np.stack(sample(dom, SamplePlan.random(11, 10**4)))
    assert time.perf_counter() - t0 < 0.5
    assert pts.shape == (10**4, d) and dom.contains_rows(pts).all()
    radius = np.abs(pts - c).sum(axis=-1) / r
    assert _ks_uniform(radius ** d) < KS_CRITICAL
    assert _ks_uniform(1.0 - (1.0 - np.abs(pts[:, 0] - c[0]) / r) ** d) < KS_CRITICAL


def test_convex_combination_weight_validation():
    pts = [as_vector([0.0]), as_vector([1.0])]
    with pytest.raises(ContractViolation):
        convex_combination(pts, [0.7, 0.2])
    with pytest.raises(ContractViolation):
        convex_combination(pts, [1.2, -0.2])
    with pytest.raises(ContractViolation):
        convex_combination(pts, [1.0])


@pytest.mark.parametrize("weights", [[1e308, 1e308], [math.nan, 1.0], [1.0, math.nan],
                                     [math.inf, 0.0], [0.5, math.inf]],
                         ids=["huge", "nan-first", "nan-last", "inf", "inf-last"])
def test_convex_combination_refuses_huge_nan_and_inf_weights_by_the_engines_rule(weights):
    """One rule, `vecspace._convex_steps`: a sum past the largest float is refused
    like any other, never raised as math.fsum's OverflowError; a NaN fails
    wherever it stands."""
    pts = [as_vector([0.0]), as_vector([1.0])]
    with pytest.raises(ContractViolation, match=r"^weights \[.*\] are not convex: "
                                                r"each must be >= 0, their sum within 1e-12 of 1$"):
        convex_combination(pts, weights)
    assert list(vecspace._convex_steps([[w] for w in weights])) == [None]


def test_convex_combination_refuses_zero_points_and_mixed_dimensions():
    with pytest.raises(ContractViolation, match="zero points"):
        convex_combination([], [])
    with pytest.raises(ContractViolation, match="mixed dimension"):
        convex_combination([as_vector([0.0]), as_vector([0.0, 1.0])], [0.5, 0.5])


def test_zero_weights_are_skipped_bitwise():
    """Weight 0 must not contribute even a signed zero to the sum."""
    a = as_vector([-0.0, 2.0])
    b = as_vector([5.0, 7.0])
    out = convex_combination([a, b], [1.0, 0.0])
    assert out[1] == 2.0
    assert out[0] == 0.0 and math.copysign(1.0, out[0]) == -1.0


#: where a step's bits are easiest to lose: signed zeros, subnormals,
#: infinities, NaN, and products that overflow or underflow
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-170,
           math.inf, -math.inf, math.nan, 1e308, -1e308, 1.5, -0.75]
any_float = st.one_of(st.sampled_from(SPECIAL), st.floats())


@st.composite
def step_operands(draw):
    """(points, weights, x, lam) for m from 1 to 8 maps in d from 1 to 5,
    some weights None but not all: floats, or the float64 operands of
    `iterate._lockstep` (a point and x one (d, rows) array, a weight a row)."""
    m, d, rows = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    kept = draw(st.lists(st.booleans(), min_size=m, max_size=m).filter(any))

    def values(*shape):
        v = draw(st.lists(any_float, min_size=math.prod(shape), max_size=math.prod(shape)))
        return v if not rows else np.array(v).reshape(shape)

    points = [values(d) if not rows else [values(d, rows)] for _ in range(m)]
    weights = [values(rows) if rows else draw(any_float) for _ in range(m)]
    weights = [w if k else None for w, k in zip(weights, kept)]
    return points, weights, values(d) if not rows else [values(d, rows)], draw(any_float)


def _assert_step_is_the_loop(points, weights, x, lam):
    """The kernel of the weights' pattern against the loop blend and its
    average (tests/helpers), bit for bit: the sign of a zero and a NaN's
    payload too."""
    with np.errstate(all="ignore"):
        got = vecspace._kernel(weights)(points, weights, x, lam)
        want = reference_step(points, weights, x, lam)
    for g, r in zip(got, want):
        assert type(g) is list and len(g) == len(r)
        assert [np.asarray(v).tobytes() for v in g] == [np.asarray(v).tobytes() for v in r]
    assert vecspace._compile.cache_info().currsize <= vecspace._KERNELS


@given(step_operands())
@settings(derandomize=True, max_examples=400, deadline=None)
@example(([[-0.0, 5e-324], [7.0, 1e308]], [1.0, None], [-0.0, -5e-324], 0.5))
@example(([[1e308], [1e308], [-math.inf]], [1e308, 0.5, None], [math.nan], 1e-300))
def test_the_step_kernel_is_the_loop_blend_and_average_bit_for_bit(ops):
    _assert_step_is_the_loop(*ops)


@pytest.mark.parametrize("rows", [0, 3])
def test_the_step_kernel_is_the_loop_at_300_coordinates(rows):
    """Eight maps, three weights None, about a tenth of the values SPECIAL."""
    rng = np.random.default_rng(300)

    def values(*shape):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        v = np.where(rng.random(shape) < 0.1, rng.choice(SPECIAL, shape), v)
        return v if rows else v.tolist()

    points = [values(300) if not rows else [values(300, rows)] for _ in range(8)]
    weights = [None if k in (1, 4, 5) else values(rows) if rows else values(1)[0]
               for k in range(8)]
    _assert_step_is_the_loop(points, weights, values(300) if not rows else [values(300, rows)],
                             0.25)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=5),
       st.integers(min_value=0, max_value=10**9))
@settings(max_examples=80)
def test_convex_combination_stays_in_box(raw, seed):
    total = math.fsum(raw)
    if total == 0.0:
        raw = [1.0] + [0.0] * (len(raw) - 1)
        total = 1.0
    weights = [r / total for r in raw]
    # renormalisation error can leave fsum(weights) != 1 by an ulp; nudge last
    weights[-1] += 1.0 - math.fsum(weights)
    if any(w < 0.0 for w in weights):
        return
    d = Domain.box([-1.0, -1.0], [1.0, 1.0])
    pts = sample(d, SamplePlan.random(seed, len(weights)))
    out = convex_combination(pts, weights)
    assert d.contains(out)
