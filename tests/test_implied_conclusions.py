"""The pair scan skips a conclusion that a stricter clean one implies.

A check may declare a bound (a, b): its conclusion is ||Tx - Ty|| <=
a*||x - y|| + b*(||x - Ty|| + ||y - Tx||). On each tile the scan compares
the bounded checks strictest first and skips one whose bound is at least
that of a check compared clean on the tile, in both a and b. Rounded
arithmetic on these nonnegative terms is monotone, so the skip changes no
verdict and no witness: a sweep equals its cells run one by one, and one
scan of the (1, 0) checks equals each run alone, at every tile size and on
a map whose distances overflow. A zero gamma or mu drops its term of the
two-parameter condition, so that 0*inf never makes a NaN.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedlab import (
    GALLERY_AFFINE_MATRIX,
    GALLERY_AFFINE_SHIFT,
    GALLERY_BOX,
    BGammaMu,
    ContractViolation,
    Domain,
    SamplePlan,
    affine_map,
    as_vector,
    check_condition_B,
    check_condition_C,
    check_condition_C_lambda,
    check_nonexpansive,
    dist,
    example1_map,
    register_mapping,
    scaling_map,
    sweep_condition_B,
)
from fixedlab import conditions, mappings
from fixedlab.vecspace import NormKind
from helpers import oracle_condition_b


# the scan reads an overflowing distance as inf without a warning, so any
# RuntimeWarning here is a fault
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _big(factor=1e308):
    """x -> factor*x on [-1, 1]: the images are finite, but the l2 norm
    squares them, so ||x - Tx||, ||Tx - Ty|| and ||x - Ty|| overflow to inf."""
    return register_mapping(lambda p: factor * p, Domain.box([-1.0], [1.0]), "big",
                            self_map=False)


#: (map, plan): pass and fail cells on each, and tiles clean for some cells only.
MAPS = [
    (lambda: affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT),
     SamplePlan.grid(5)),
    (example1_map, SamplePlan.grid(9)),
    (lambda: scaling_map(Domain.ball([0.0, 0.0], 1.0, "l1"), 0.8), SamplePlan.random(3, 20)),
    (lambda: register_mapping(lambda p: np.clip(1.5 * p, -1.0, 1.0),
                              Domain.box([-1.0, -1.0], [1.0, 1.0], NormKind.LINF),
                              "linf_stretch", known_fixed_points=[[0.0, 0.0]]),
     SamplePlan.grid(5)),
    (_big, SamplePlan.grid(7)),
]


def _tiles(T, plan):
    return (1, 7, 16, len(conditions.sample(T.domain, plan)) + 1)


def _dict(v):
    """A verdict's dict as its repr, which tells -0.0 from 0.0."""
    return repr(v.to_dict())


# --- condition_B at gamma = mu = 0 ---------------------------------------------

def test_condition_b_at_zero_is_nonexpansiveness_when_a_distance_overflows():
    """The scan reads the overflowing distances as inf, with no warning."""
    T, plan = _big(), SamplePlan.grid(2)
    ne = check_nonexpansive(T, plan)
    b = check_condition_B(T, BGammaMu(0.0, 0.0), plan)
    assert not ne.passed and ne.witness.lhs == float("inf") and ne.witness.rhs == 2.0
    drop = ("condition", "params")
    assert ({k: v for k, v in b.to_dict().items() if k not in drop}
            == {k: v for k, v in ne.to_dict().items() if k not in drop})


def test_an_overflowing_witness_lhs_is_the_dist_of_the_two_images():
    """`dist` reads a distance that overflows as the scan does, as inf; so
    registration's fixed-point gap and `_fixed_by` compare it, not raise."""
    T, plan = _big(), SamplePlan.grid(2)
    w = check_nonexpansive(T, plan).witness
    assert w.lhs == dist(T.fn(np.array(w.x)), T.fn(np.array(w.y))) == math.inf
    with pytest.raises(ContractViolation, match=r"claimed fixed point \[1\.0\] moves by inf$"):
        register_mapping(T.fn, T.domain, "big", known_fixed_points=[[1.0]], self_map=False)
    assert mappings._fixed_by([as_vector([1.0])], [T.fn], T.domain) == []


def test_an_overflow_inside_the_map_itself_still_warns():
    """Only the scan's own distances overflow silently: the map runs under
    the caller's error state, so its own overflow warns as in `evaluate`."""
    armed = []

    def fn(p):
        if armed:
            np.exp(np.full(1, 800.0))
        return p / 2
    T = register_mapping(fn, Domain.box([-1.0], [1.0]), "exp", self_map=False)
    armed.append(True)
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
        assert check_nonexpansive(T, SamplePlan.grid(3)).passed


@pytest.mark.parametrize("gamma,mu", [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.5, 0.25),
                                      (1.0, 0.5)])
def test_condition_b_drops_zero_terms_where_distances_overflow(gamma, mu):
    """The oracle drops a zero coefficient's term too: a premise
    gamma*||x - Tx|| <= ||x - y|| + 0*inf holds where gamma*||x - Tx|| <=
    ||x - y||, not nowhere. At 1e200 the images' differences stay finite,
    which the oracle's distance needs."""
    T, plan = _big(1e200), SamplePlan.grid(7)
    pts = list(conditions.sample(T.domain, plan))
    v = check_condition_B(T, BGammaMu(gamma, mu), plan)
    passed, w = oracle_condition_b(T.fn, pts, gamma, mu, plan.epsilon)
    assert (v.passed, v.witness and (v.witness.x, v.witness.y, v.witness.lhs,
                                     v.witness.rhs)) == (passed, w)


# --- referees: the skip changes no verdict ---------------------------------------

GAMMA_VALUES = [0.0, -0.0, 0.5, 1.0, 0.2, 0.7]
MU_VALUES = [0.0, -0.0, 0.5, 0.1, 0.25, 0.35]


@given(st.sampled_from(range(len(MAPS))),
       st.lists(st.sampled_from(GAMMA_VALUES), min_size=1, max_size=4),
       st.lists(st.sampled_from(MU_VALUES), min_size=1, max_size=4))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_a_cross_sweep_equals_its_cells_run_one_by_one(which, gammas, mus):
    make, plan = MAPS[which]
    T = make()
    want = [("skipped", None) if 2.0 * m > g else
            (lambda v: ("pass" if v.passed else "fail", _dict(v)))(
                check_condition_B(T, BGammaMu(g, m), plan))
            for g in gammas for m in mus]
    for tile in _tiles(T, plan):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conditions, "_TILE", tile)
            table = sweep_condition_B(T, gammas, mus, plan)
        got = [(c.status, c.verdict and _dict(c.verdict)) for c in table.cells]
        assert got == want, tile


def _unit_checks(lam):
    """The (1, 0) checks: each as a request and as its public check."""
    return [(conditions._nonexpansive(), check_nonexpansive),
            (conditions._condition_c(0.5, "condition_C"), check_condition_C),
            (conditions._condition_c(lam), lambda T, plan: check_condition_C_lambda(T, lam,
                                                                                   plan)),
            (conditions._one(conditions._condition_b(BGammaMu(0.0, 0.0))),
             lambda T, plan: check_condition_B(T, BGammaMu(0.0, 0.0), plan))]


@given(st.sampled_from(range(len(MAPS))), st.permutations(range(4)),
       st.sampled_from([0.1, 0.5, 0.9]))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_one_scan_of_the_unit_bound_checks_equals_each_run_alone(which, order, lam):
    make, plan = MAPS[which]
    T = make()
    checks = [_unit_checks(lam)[k] for k in order]
    want = [_dict(alone(T, plan)) for _, alone in checks]
    for tile in _tiles(T, plan):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conditions, "_TILE", tile)
            got = conditions._checks(T, plan, [request for request, _ in checks])
        assert [_dict(v) for v in got] == want, tile


# --- the skip itself --------------------------------------------------------------

def _logging(check, calls):
    """check, logging (label, params, the tile's first row) in calls
    whenever the scan asks for its parts."""
    return check._replace(parts=lambda t, flip: calls.append(
        (check.label, check.params, t.rows.start)) or check.parts(t, flip))


def _logged(request, calls):
    """request, with each of its checks logging as `_logging`'s."""
    def prepare(T, plan, images):
        checks, finish = request(T, plan, images)
        return [_logging(c, calls) for c in checks], finish
    return prepare


def test_a_sweep_compares_only_the_cells_no_clean_cell_implies(monkeypatch):
    """x -> x/2 on [-1, 1], 9 points in tiles of 4 rows. Its cells' bounds
    (1 - gamma, mu): (0, 0) and (0, 0.2) fail in row 0 and retire after
    tile 0; (0, 0.5) and (0.6, 0) are clean on every tile; (0.6, 0.2) is
    implied by (0.6, 0), with an equal a, and both (1, 0) cells by (0.6, 0),
    with an equal b. Skipping changes no cell."""
    calls = []
    real = conditions._condition_b
    monkeypatch.setattr(conditions, "_condition_b", lambda p: _logging(real(p), calls))
    monkeypatch.setattr(conditions, "_TILE", 4)
    T, plan = scaling_map(Domain.box([-1.0], [1.0]), 0.5), SamplePlan.grid(9)
    gammas, mus = [0.0, -0.0, 0.4, 1.0], [0.0, 0.2, 0.5]
    table = sweep_condition_B(T, gammas, mus, plan)
    clean = [(1.0, 0.5), (0.4, 0.0)]   # (gamma, mu) of the bounds (0, 0.5) and (0.6, 0)
    assert calls == [("condition_B", (("gamma", g), ("mu", m)), lo) for lo, cells in [
        (0, [(1.0, 0.0), (1.0, 0.2)] + clean), (4, clean), (8, clean)] for g, m in cells]
    monkeypatch.undo()
    assert table.statuses() == ["pass", "skipped", "skipped", "pass", "skipped", "skipped",
                                "pass", "pass", "skipped", "fail", "fail", "pass"]
    assert table == sweep_condition_B(T, gammas, mus, plan)


def test_the_first_unit_bound_check_clean_on_a_tile_stands_for_the_others(monkeypatch):
    """condition_B(0.5, 0.25) runs first, its bound (0.5, 0.25) the
    strictest, but implies none of the (1, 0) checks; nonexpansive, the first
    of them in request order, is clean on every tile and implies the rest.
    On a map that fails nonexpansiveness in row 0, tile 0 compares each."""
    calls = []
    monkeypatch.setattr(conditions, "_TILE", 4)
    plan = SamplePlan.grid(9)
    requests = [_logged(r, calls) for r, _ in _unit_checks(0.9)] + [
        _logged(conditions._one(conditions._condition_b(BGammaMu(0.5, 0.25))), calls)]
    conditions._checks(scaling_map(Domain.box([-1.0], [1.0]), 0.5), plan, requests)
    b = ("condition_B", (("gamma", 0.5), ("mu", 0.25)))
    assert calls == [(*c, lo) for lo in (0, 4, 8) for c in [b, ("nonexpansive", ())]]
    calls.clear()
    stretch = register_mapping(lambda p: np.clip(2.0 * p, -1.0, 1.0), Domain.box([-1.0], [1.0]),
                               "stretch", known_fixed_points=[[0.0]])
    verdicts = conditions._checks(stretch, plan, requests)
    assert [v.passed for v in verdicts] == [False, False, False, False, False]
    assert [c[0] for c in calls if c[-1] == 0] == [
        "condition_B", "nonexpansive", "condition_C", "condition_C_lambda", "condition_B"]
