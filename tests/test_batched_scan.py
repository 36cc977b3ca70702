"""Whole-array image evaluation and the cache-sized scan around it.

`mappings._evaluate_rows(T, X)` checks the rows of X as a whole array and
maps them by `_images`: a map whose fn carries a float form gets it called
once on X's columns, so it makes 0 calls of fn in a scan; any other map
gets one call of T.fn per row. It must equal
`np.stack([evaluate(T, x) for x in X])` bit for bit, and on bad input it
must raise exactly the error of that per-point loop. `_checks` scans a
check that several requests ask for once.
"""
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from fixedlab import (
    GALLERY_AFFINE_MATRIX,
    GALLERY_AFFINE_SHIFT,
    GALLERY_BOX,
    BGammaMu,
    Domain,
    DomainError,
    InvalidInputError,
    SamplePlan,
    affine_map,
    builtin_gallery,
    check_condition_B,
    constant_map,
    check_nonexpansive,
    check_prop1,
    evaluate,
    identity_map,
    register_mapping,
    scaling_map,
    sweep_condition_B,
    translation_map,
)
from fixedlab import conditions
from fixedlab.mappings import _evaluate_rows
from fixedlab.vecspace import sample
from test_scan import EQUIVALENCE_CASES, GAMMAS, MUS


def _outcome(run):
    """run()'s array as (shape, bytes), or its error as (type, message)."""
    try:
        out = run()
    except Exception as exc:   # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return out.shape, out.tobytes()


def _both(T, X):
    """The outcomes of the batched path and of the per-point loop."""
    return (_outcome(lambda: _evaluate_rows(T, X)),
            _outcome(lambda: np.stack([evaluate(T, x) for x in X])))


def _sample(T, plan=SamplePlan.grid(6)):
    return np.stack(sample(T.domain, plan))


# --- parity with the per-point loop -----------------------------------------

@pytest.mark.parametrize("make,plan", [(lambda m=m: m, SamplePlan.grid(9))
                                       for m in builtin_gallery()] + EQUIVALENCE_CASES,
                         ids=[*(f"gallery{i}" for i in range(len(builtin_gallery()))),
                              "example1", "clip_double", "affine", "l1_scaling",
                              "stretcher",
                              *(f"eq_gallery{i}" for i in range(len(builtin_gallery())))])
def test_images_and_second_images_equal_the_per_point_stack(make, plan):
    T = make()
    X = _sample(T, plan)
    got, want = _both(T, X)
    assert got == want and isinstance(want[0], tuple)
    # prop1's second images: equal too, or the same error
    got, want = _both(T, _evaluate_rows(T, X))
    assert got == want


def _near_boundary(dom, rng, n=60):
    """n points a few ULP either side of dom's boundary moved out by
    MEMBERSHIP_TOL: radii of a radius-1 ball, or one coordinate of a box."""
    d, ulps = dom.dimension, np.arange(-n // 2, n // 2)
    if dom.shape == "ball":
        u = rng.standard_normal((n, d))
        u /= np.array([np.linalg.norm(r, {"l1": 1, "l2": 2, "linf": np.inf}[
            dom.norm_kind.value]) for r in u])[:, None]
        return np.array(dom.center) + u * ((1.0 + 1e-9) + ulps * 2.0**-52)[:, None]
    lo, up = dom.bounding_box()
    Q = lo + (up - lo) * rng.uniform(0.1, 0.9, (n, d))
    j = np.arange(n) % d
    edge = np.where(np.arange(n) % 2, lo[j] - 1e-9, up[j] + 1e-9)
    Q[np.arange(n), j] = edge + ulps * np.spacing(edge)
    return Q


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_a_9d_ball_decides_rows_near_its_boundary_like_contains(kind):
    dom = Domain.ball(np.linspace(-0.3, 0.4, 9), 1.0, kind)
    Q = _near_boundary(dom, np.random.default_rng(9))
    Q = np.concatenate([Q, [[np.nan] * 9, [np.inf] + [0.0] * 8]])
    rows = dom.contains_rows(Q)
    assert rows.tolist() == [dom.contains(q) for q in Q]
    assert rows.any() and not rows.all()
    # the batched images meet the first outside row where evaluate does
    identity = register_mapping(lambda p: 1.0 * p, dom, "identity9", self_map=False)
    got, want = _both(identity, Q[:-2])
    assert got == want and want[0] is DomainError


@pytest.mark.parametrize("d", [1, 2, 9, 130])
@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_contains_decides_a_point_or_its_float_list_as_contains_rows_its_row(kind, shape, d):
    dom = (Domain.ball(np.linspace(-0.3, 0.4, d), 1.0, kind) if shape == "ball"
           else Domain.box(np.linspace(-1.0, -0.2, d), np.linspace(0.1, 3.0, d), kind))
    Q = _near_boundary(dom, np.random.default_rng(d))
    Q = np.concatenate([Q, [[np.nan] * d, [np.inf] + [0.0] * (d - 1),
                            [0.0] * (d - 1) + [-np.inf]]])
    got = [dom.contains(q) for q in Q]
    assert got == [bool(dom.contains_rows(q[None])[0]) for q in Q]
    assert any(got) and not any(got[-3:]) and not all(got)
    assert [dom.contains(q.tolist()) for q in Q] == got   # a float list, too


def _map(fn, domain=GALLERY_BOX, label="odd"):
    return register_mapping(fn, domain, label, self_map=False)


_BOX1 = Domain.box([0.0], [1.0])


@pytest.mark.parametrize("T,error", [
    (_map(lambda p: np.full_like(p, np.nan), label="nan_map"), InvalidInputError),
    (_map(lambda p: np.r_[p, p[:1]] if p[0] > 0.5 else p, label="ragged"), DomainError),
    (_map(lambda p: [p[0], [p[1]]], label="nested"), ValueError),
    (_map(lambda p: 0.5 * p[0], label="scalar"), DomainError),
    (_map(lambda p: 0.5 * p[0], _BOX1, "scalar_1d"), None),
    (_map(lambda p: [0.5 * p[0]] if p[0] < 0.5 else 0.25, _BOX1, "mixed_1d"), None),
    (_map(lambda p: p.reshape(2, 1), label="column"), InvalidInputError),
], ids=["nan", "ragged", "nested", "scalar_2d", "scalar_1d", "mixed_1d", "column"])
def test_bad_images_raise_the_per_point_error(T, error):
    got, want = _both(T, _sample(T))
    assert got == want
    if error is None:
        assert isinstance(want[0], tuple)   # a scalar image on a 1-d domain is fine
    else:
        assert want[0] is error


def test_a_second_image_outside_the_domain_raises_the_per_point_error():
    T = translation_map(GALLERY_BOX, [0.5, 0.0])
    got, want = _both(T, _evaluate_rows(T, _sample(T)))
    assert got == want and want[0] is DomainError
    assert "is outside the domain of 'translation[0.5, 0.0]'" in want[1]


def test_a_wrong_dimension_image_is_a_domain_error_naming_map_point_and_shape():
    T = _map(lambda p: np.r_[p, 0.0], label="lift")
    for run in (lambda: evaluate(T, [0.25, -1.0]),
                lambda: _evaluate_rows(T, np.array([[0.25, -1.0]])),
                lambda: check_nonexpansive(T, SamplePlan.grid(3))):
        with pytest.raises(DomainError) as info:
            run()
        assert "'lift'" in str(info.value) and "(3,)" in str(info.value)
    assert str(info.value) == ("'lift' maps [-1.0, -1.0] to an image of shape "
                               "(3,) on a 2-d domain")


def test_a_map_that_writes_to_its_argument_cannot_corrupt_the_sample():
    """The batch hands fn read-only rows, which it cannot write, and falls
    back to `evaluate`, which hands it a fresh copy of each point."""
    def bump(p):
        p += 1.0
        return p

    T = _map(bump, label="bump")
    X = _sample(T)
    before = X.copy()
    got, want = _both(T, X)
    assert got == want == _outcome(lambda: X + 1.0)
    assert np.array_equal(X, before)


def test_an_image_buffer_reused_by_the_map_is_copied_per_row():
    buf = np.empty(2)

    def halve_into_buf(p):
        np.multiply(p, 0.5, out=buf)
        return buf

    T = _map(halve_into_buf, label="buffered")
    got, want = _both(T, _sample(T))
    assert got == want and len(set(map(tuple, _evaluate_rows(T, _sample(T))))) > 1


_TINY = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -2.0]


@pytest.mark.filterwarnings("ignore:condition_B.*the property check may fail")
@pytest.mark.parametrize("d", [1, 2, 9])
def test_a_float_form_maps_rows_as_the_per_point_loop_does_with_no_call_of_fn(d):
    """Signed zeros and subnormals included; a scan's first and second
    images alike, as prop1 takes them, with the same verdict."""
    box = Domain.box([-2.0] * d, [2.0] * d)
    rng = np.random.default_rng(d)
    X = np.concatenate([rng.choice(_TINY, (60, d)), rng.uniform(-2.0, 2.0, (40, d))])
    for T in (scaling_map(box, 0.5), scaling_map(box, -0.75), identity_map(box),
              translation_map(box, [1e-310] + [-0.0] * (d - 1)),
              constant_map(box, [-0.0] + [1e-310] * (d - 1))):
        calls, fn = [], T.fn
        counted = dataclasses.replace(T, fn=lambda p: calls.append(1) or fn(p))
        counted.fn.floats = fn.floats
        for rows in (X, _evaluate_rows(T, X)):
            got = _outcome(lambda: _evaluate_rows(counted, rows))
            assert got == _outcome(lambda: np.stack([evaluate(T, x) for x in rows])), T.label
            assert isinstance(got[0], tuple) and calls == [], T.label
        plan = SamplePlan.random(0, 50)
        assert repr(check_prop1(counted, 0.5, BGammaMu(0.5, 0.25), plan)) == \
            repr(check_prop1(T, 0.5, BGammaMu(0.5, 0.25), plan))
        assert calls == [], T.label


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_float_form_image_that_overflows_raises_the_per_point_error():
    T = translation_map(Domain.box([0.0], [1.7e308], "linf"), [1e308])
    got, want = _both(T, np.array([[0.0], [5e307], [1e308], [1.7e308]]))
    assert got == want == (InvalidInputError, "non-finite coordinate in [inf]")


def test_a_passing_map_costs_one_raw_call_per_point_and_two_with_prop1():
    calls = []
    T = affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT)
    fn = T.fn
    T.fn = lambda x: calls.append(1) or fn(x)
    plan = SamplePlan.grid(12)
    assert check_nonexpansive(T, plan).passed
    assert len(calls) == 144
    calls.clear()
    assert check_prop1(T, 0.7, BGammaMu(0.7, 0.35), plan).passed
    assert len(calls) == 2 * 144
    # scalar images on a 1-d domain, read as 1-vectors, take the batched path too
    calls.clear()
    half = _map(lambda p: calls.append(1) or 0.5 * p[0], _BOX1, "half")
    assert _evaluate_rows(half, np.linspace(0.0, 1.0, 7)[:, None]).shape == (7, 1)
    assert len(calls) == 7


# --- one scan of each distinct check -----------------------------------------

def test_prop1_shares_the_condition_b_check_of_the_same_scan(monkeypatch):
    """condition_B(0.7, 0.35) and prop1 over the same (gamma, mu): the
    condition_B parts run once per tile, not twice."""
    runs = []
    real = conditions._condition_b

    def counted(p):
        check = real(p)
        return check._replace(
            parts=lambda t, flip: runs.append(t.rows.start) or check.parts(t, flip))

    monkeypatch.setattr(conditions, "_condition_b", counted)
    monkeypatch.setattr(conditions, "_TILE", 16)
    T = affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT)
    plan = SamplePlan.grid(20)   # 400 points: 25 tiles
    p = BGammaMu(0.7, 0.35)
    b, prop1 = conditions._checks(T, plan, [conditions._one(conditions._condition_b(p)),
                                            conditions._prop1(0.7, p)])
    assert b.passed and prop1.passed
    assert runs == list(range(0, 400, 16))


def test_gamma_minus_zero_keeps_its_own_verdict():
    T = affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT)
    plan = SamplePlan.grid(5)
    ps = [BGammaMu(0.0, 0.0), BGammaMu(-0.0, -0.0), BGammaMu(0.0, 0.0)]
    got = conditions._checks(T, plan, [conditions._one(conditions._condition_b(p))
                                       for p in ps])
    assert [repr(v) for v in got] == [repr(check_condition_B(T, p, plan)) for p in ps]
    assert "-0.0" in repr(got[1]) and "-0.0" not in repr(got[0])


# --- memory of the cache-sized tiles -----------------------------------------

@pytest.mark.parametrize("run", [
    lambda T, plan: check_nonexpansive(T, plan),
    lambda T, plan: check_condition_B(T, BGammaMu(0.5, 0.25), plan),
    lambda T, plan: check_prop1(T, 0.5, BGammaMu(0.5, 0.25), plan),
    lambda T, plan: sweep_condition_B(T, GAMMAS, MUS, plan),
], ids=["nonexpansive", "condition_B", "prop1", "sweep"])
def test_scan_memory_stays_a_few_tiles(run):
    """N = 2 500: a 16-row tile's (16, N) arrays take 320 KB each, so the
    whole scan, sweep included, peaks under 8 MiB (256-row tiles: 25-70)."""
    T = affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT)
    plan = SamplePlan.grid(50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tracemalloc.start()
        try:
            result = run(T, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result.passed if hasattr(result, "passed") else "pass" in result.statuses()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
