"""Pointwise inequality checks and the two-parameter sweep.

Expected witnesses below were frozen from the independent oracles in
helpers.py; the oracle itself is also run live on small grids so module and
oracle can never drift apart silently. All float comparisons on witnesses
are exact equality: both sides compute with the same elementary operations
in the same order, so agreement is bitwise or it is a bug.
"""
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedlab import (
    BGammaMu,
    ContractViolation,
    Domain,
    GALLERY_BALL,
    InvalidInputError,
    PreconditionError,
    SamplePlan,
    check_condition_B,
    check_condition_C,
    check_condition_C_lambda,
    check_lemma3,
    check_nonexpansive,
    check_prop1,
    check_quasi_nonexpansive,
    dist,
    evaluate,
    identity_map,
    norm,
    piecewise_map,
    sample,
    scaling_map,
    sweep_condition_B,
    translation_map,
)
from helpers import (
    grid_points_1d,
    oracle_condition_b,
    oracle_condition_c_lambda,
    oracle_nonexpansive,
    oracle_quasi_nonexpansive,
    oracle_sweep,
)


# --- parameter validation ---------------------------------------------------

@pytest.mark.parametrize("gamma,mu", [(-0.1, 0.0), (1.1, 0.0), (0.5, 0.6),
                                      (0.5, 0.3), (0.2, 0.15)])
def test_bgammamu_rejects_inadmissible(gamma, mu):
    with pytest.raises(ContractViolation):
        BGammaMu(gamma, mu)


def test_bgammamu_boundary_is_admissible():
    p = BGammaMu(0.7, 0.35)     # 2*mu == gamma exactly
    assert p.gamma == 0.7 and p.mu == 0.35
    BGammaMu(0.0, 0.0)
    BGammaMu(1.0, 0.5)


@pytest.mark.filterwarnings("error")
def test_bgammamu_reads_its_numbers_as_the_schedules_do(example1, grid9):
    """numpy scalars become the Python numbers they hold, so a verdict's
    dict is written by json as the same pair of floats would be; a bool or
    a non-number is refused, with the field's name."""
    p = BGammaMu(np.float32(0.5), np.float32(0.25))
    assert [(v, type(v)) for v in (p.gamma, p.mu)] == [(0.5, float), (0.25, float)]
    got = check_condition_B(example1, p, grid9).to_dict()
    assert json.dumps(got) == json.dumps(check_condition_B(example1, BGammaMu(0.5, 0.25),
                                                           grid9).to_dict())
    assert type(BGammaMu(np.int64(1), 0).gamma) is int
    for args, message in [((True, False), "gamma must be a real number, got True"),
                          ((0.5, np.bool_(False)), "mu must be a real number, got np.False_"),
                          ((0.5, "0.25"), "mu must be a real number, got '0.25'")]:
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            BGammaMu(*args)


def test_condition_c_lambda_validates_lambda(example1, grid9):
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ContractViolation):
            check_condition_C_lambda(example1, bad, grid9)


# --- frozen witnesses on the step-function example --------------------------

def test_nonexpansive_fails_with_frozen_witness(example1, grid9):
    v = check_nonexpansive(example1, grid9)
    assert not v.passed
    assert v.checked_pairs == 81
    w = v.witness
    assert (w.x[0], w.y[0]) == (2.5, 4.0)
    assert w.lhs == 2.0 and w.rhs == 1.5


def test_nonexpansive_witness_matches_live_oracle(example1, grid9):
    pts = grid_points_1d(0.0, 4.0, 9)
    passed, wit = oracle_nonexpansive(
        lambda p: evaluate(example1, p), pts, grid9.epsilon)
    assert not passed
    v = check_nonexpansive(example1, grid9)
    assert (tuple(v.witness.x), tuple(v.witness.y),
            v.witness.lhs, v.witness.rhs) == wit


def test_nonexpansive_witness_reevaluates(example1, grid9):
    """A reported violation must survive recomputation from scratch."""
    v = check_nonexpansive(example1, grid9)
    w = v.witness
    lhs = dist(evaluate(example1, w.x), evaluate(example1, w.y), "l2")
    rhs = dist(np.array(w.x), np.array(w.y), "l2")
    assert lhs == w.lhs and rhs == w.rhs
    assert lhs > rhs + grid9.epsilon


def test_condition_c_equals_lambda_half(example1, grid9):
    a = check_condition_C(example1, grid9)
    b = check_condition_C_lambda(example1, 0.5, grid9)
    assert a.same_outcome(b)
    assert a.condition_label == "condition_C"
    assert not a.passed
    assert (a.witness.x[0], a.witness.y[0]) == (2.5, 4.0)


def test_condition_c_first_witness_at_finer_grid(example1, grid17):
    v = check_condition_C(example1, grid17)
    assert not v.passed
    assert v.checked_pairs == 289
    assert (v.witness.x[0], v.witness.y[0]) == (2.25, 4.0)
    assert v.witness.lhs == 2.0 and v.witness.rhs == 1.75


def test_condition_c_lambda_09_grid_sensitivity(example1, grid17):
    """lambda=0.9 passes on the step-1/4 grid but a step-1/10 grid reaches
    points close enough to the jump to violate."""
    assert check_condition_C_lambda(example1, 0.9, grid17).passed
    v = check_condition_C_lambda(example1, 0.9, SamplePlan.grid(41))
    assert not v.passed
    assert v.checked_pairs == 1681
    w = v.witness
    assert (w.x[0], w.y[0]) == (2.1, 4.0)
    assert w.lhs == 2.0 and w.rhs == 1.9
    assert dict(v.params)["lambda"] == 0.9


def test_condition_c_premise_holds_at_equality():
    """T(0)=2, T(1)=3.5: at (0, 1) the premise is 1/2 * |0 - 2| == |0 - 1|,
    and |T0 - T1| = 1.5 > 1. At (1, 0) the premise fails (1/2 * 2.5 > 1) and
    no other pair violates, so the witness exists only because the premise
    allows equality."""
    m = piecewise_map(Domain.box([0.0], [4.0]), 3.0, cases=[(0.0, 2.0), (1.0, 3.5)])
    plan = SamplePlan.grid(5)
    v = check_condition_C(m, plan)
    assert not v.passed
    w = v.witness
    assert (w.x[0], w.y[0], w.lhs, w.rhs) == (0.0, 1.0, 1.5, 1.0)
    assert oracle_condition_c_lambda(m.fn, sample(m.domain, plan), 0.5, plan.epsilon) == (
        False, ((0.0,), (1.0,), 1.5, 1.0))


def test_condition_c_lambda_oracle_agreement(example1):
    plan = SamplePlan.grid(41)
    pts = grid_points_1d(0.0, 4.0, 41)
    fn = lambda p: evaluate(example1, p)
    passed, wit = oracle_condition_c_lambda(fn, pts, 0.9, plan.epsilon)
    v = check_condition_C_lambda(example1, 0.9, plan)
    assert v.passed == passed
    assert (tuple(v.witness.x), tuple(v.witness.y),
            v.witness.lhs, v.witness.rhs) == wit


def test_condition_b_admissible_pair_passes(example1):
    plan = SamplePlan.grid(401)
    v = check_condition_B(example1, BGammaMu(0.7, 0.35), plan)
    assert v.passed
    assert v.checked_pairs == 401 * 401
    assert v.witness is None


def test_condition_b_oracle_agreement(example1):
    plan = SamplePlan.grid(101)
    pts = grid_points_1d(0.0, 4.0, 101)
    fn = lambda p: evaluate(example1, p)
    for gamma, mu in ((0.5, 0.25), (0.7, 0.35), (1.0, 0.5), (0.0, 0.0)):
        passed, wit = oracle_condition_b(fn, pts, gamma, mu, plan.epsilon)
        v = check_condition_B(example1, BGammaMu(gamma, mu), plan)
        assert v.passed == passed, (gamma, mu)
        if wit is not None:
            got = (tuple(v.witness.x), tuple(v.witness.y),
                   v.witness.lhs, v.witness.rhs)
            assert got == wit, (gamma, mu)


def test_degenerate_b_equals_nonexpansive(example1, gallery, grid9):
    """With both parameters zero the premise is vacuous and the bound loses
    its slack terms exactly, so the scan must reproduce the plain
    nonexpansiveness verdict bit for bit."""
    p = BGammaMu(0.0, 0.0)
    for m in [example1] + list(gallery):
        plan = grid9 if m.domain.dimension == 1 else SamplePlan.grid(5)
        a = check_nonexpansive(m, plan)
        b = check_condition_B(m, p, plan)
        assert a.same_outcome(b), m.label


# --- fixed-point-relative checks --------------------------------------------

def test_quasi_nonexpansive_on_example1(example1, grid9):
    v = check_quasi_nonexpansive(example1, grid9)
    assert v.passed
    assert v.checked_pairs == 9    # pairs (x, z) for the single fixed point


def test_quasi_nonexpansive_matches_oracle(example1, grid9):
    pts = grid_points_1d(0.0, 4.0, 9)
    fn = lambda p: evaluate(example1, p)
    passed, _ = oracle_quasi_nonexpansive(fn, pts, [np.array([0.0])],
                                          grid9.epsilon)
    assert check_quasi_nonexpansive(example1, grid9).passed == passed


def test_quasi_nonexpansive_needs_fixed_points():
    t = translation_map(Domain.box([0.0], [1.0]), [0.1])
    with pytest.raises(PreconditionError):
        check_quasi_nonexpansive(t, SamplePlan.grid(5))


def test_fixed_point_shrink_same_inequality(example1, grid9):
    a = check_quasi_nonexpansive(example1, grid9)
    b = check_lemma3(example1, BGammaMu(0.7, 0.35), grid9)
    assert a.same_outcome(b)
    assert b.condition_label == "fixed_point_shrink"
    assert b.params == (("gamma", 0.7), ("mu", 0.35))
    assert a.params == ()


# --- the three-part consequence check ---------------------------------------

def test_prop1_passes_on_contraction(affine):
    plan = SamplePlan.grid(6)
    v = check_prop1(affine, 0.7, BGammaMu(0.7, 0.35), plan)
    assert v.passed
    assert dict(v.params)["theta"] == 0.7


def test_prop1_theta_out_of_range(affine):
    with pytest.raises(ContractViolation):
        check_prop1(affine, 1.2, BGammaMu(0.7, 0.35), SamplePlan.grid(4))


def test_prop1_warns_when_precondition_fails(example1):
    # gamma=0.5, mu=0.25 fails on this map, so the consequence check warns
    plan = SamplePlan.grid(41)
    with pytest.warns(UserWarning):
        check_prop1(example1, 0.5, BGammaMu(0.5, 0.25), plan)


def test_prop1_part_i_witness():
    """A map whose displacement grows after one application violates the
    first conclusion: here T(0)=1 but T(1)=3, so |Tx - TTx| = 2 > 1 = |x - Tx|."""
    d = Domain.box([0.0], [4.0])
    m = piecewise_map(d, 3.0, cases=[(0.0, 1.0)], label="stretcher",
                      known_fixed_points=[[3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = check_prop1(m, 0.5, BGammaMu(0.5, 0.25), SamplePlan.grid(5))
    assert not v.passed
    assert v.witness.detail == "part (i)"
    assert v.witness.x[0] == 0.0
    assert v.witness.lhs == 2.0 and v.witness.rhs == 1.0


def test_prop1_identity_trivially_passes():
    m = identity_map(GALLERY_BALL)
    v = check_prop1(m, 0.3, BGammaMu(0.2, 0.1), SamplePlan.grid(6))
    assert v.passed


# --- parameter sweep ---------------------------------------------------------

FROZEN_DIAGONAL = ["fail", "fail", "pass", "pass", "pass", "pass"]
GAMMA_GRID = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
MU_GRID = [0.25, 0.3, 0.35, 0.4, 0.45, 0.5]


def test_sweep_zip_diagonal_frozen(example1):
    table = sweep_condition_B(example1, GAMMA_GRID, MU_GRID,
                              SamplePlan.grid(401), pairing="zip")
    assert table.statuses() == FROZEN_DIAGONAL
    assert not table.all_passed
    fails = [c for c in table.cells if c.status == "fail"]
    assert [(c.gamma, c.mu) for c in fails] == [(0.5, 0.25), (0.6, 0.3)]
    w0, w1 = fails[0].verdict.witness, fails[1].verdict.witness
    assert (w0.x[0], w0.y[0]) == (2.0100000000000002, 4.0)
    assert (w0.lhs, w0.rhs) == (2.0, 1.9974999999999998)
    assert (w1.x[0], w1.y[0]) == (2.0100000000000002, 4.0)
    assert (w1.lhs, w1.rhs) == (2.0, 1.9989999999999997)


def test_sweep_matches_oracle_on_medium_grid(example1):
    plan = SamplePlan.grid(101)
    pts = grid_points_1d(0.0, 4.0, 101)
    fn = lambda p: evaluate(example1, p)
    pairs = list(zip(GAMMA_GRID, MU_GRID))
    want = oracle_sweep(fn, pts, pairs, plan.epsilon)
    table = sweep_condition_B(example1, GAMMA_GRID, MU_GRID, plan, pairing="zip")
    assert [(c.gamma, c.mu, c.status) for c in table.cells] \
        == [(g, m, s) for g, m, s, _ in want]
    for cell, (_, _, status, wit) in zip(table.cells, want):
        if status == "fail":
            w = cell.verdict.witness
            assert (tuple(w.x), tuple(w.y), w.lhs, w.rhs) == wit


def test_sweep_cross_pairing_marks_inadmissible_cells_skipped(example1):
    table = sweep_condition_B(example1, [0.2, 0.8], [0.05, 0.4],
                              SamplePlan.grid(9), pairing="cross")
    by_cell = {(c.gamma, c.mu): c.status for c in table.cells}
    assert len(table.cells) == 4
    assert by_cell[(0.2, 0.4)] == "skipped"       # 2*mu > gamma
    assert by_cell[(0.8, 0.4)] != "skipped"       # 2*mu == gamma: admissible
    assert by_cell[(0.2, 0.05)] != "skipped"
    # row-major order over (gamma, mu)
    assert [(c.gamma, c.mu) for c in table.cells] \
        == [(0.2, 0.05), (0.2, 0.4), (0.8, 0.05), (0.8, 0.4)]


def test_sweep_zip_requires_equal_lengths(example1, grid9):
    with pytest.raises(ContractViolation):
        sweep_condition_B(example1, [0.5, 0.6], [0.25], grid9, pairing="zip")


def test_sweep_rejects_unknown_pairing(example1, grid9):
    with pytest.raises(ContractViolation):
        sweep_condition_B(example1, [0.5], [0.25], grid9, pairing="cartesian")


def test_single_cell_sweep_equals_direct_check(example1, grid9):
    table = sweep_condition_B(example1, [0.7], [0.35], grid9, pairing="zip")
    direct = check_condition_B(example1, BGammaMu(0.7, 0.35), grid9)
    assert table.cells[0].verdict.same_outcome(direct)


def test_sweep_rows_are_serializable(example1, grid9):
    table = sweep_condition_B(example1, [0.7], [0.35], grid9)
    rows = table.to_rows()
    assert rows[0]["gamma"] == 0.7 and rows[0]["status"] == "pass"


# --- distances at the edges of the float range, whatever numpy's error state

@pytest.mark.filterwarnings("error")
def test_the_public_distance_readers_give_their_default_results_when_numpy_raises():
    """dist, norm, the domains' constructors, contains and the scans read a
    distance whose squares leave the float range as they do by default
    when numpy raises on every floating-point error: offsets of 1e-200 and
    1e200, domains whose extents square below the normal range, and the 1-d
    piecewise config on the box [0, 1e-170] (grid 3, epsilon 5e-324) in
    l1, l2 and linf. Only the two states' agreement is asserted, not which
    l2 verdict is right."""
    plan = SamplePlan.grid(3, epsilon=5e-324)

    def read():
        out = [f(v) for v in (1e-200, 1e200)
               for f in (lambda v: dist([v, 0.0], [0.0, 0.0]), lambda v: norm([v, 0.0]))]
        ball = Domain.ball([0.0, 0.0], 1e-170)
        out += [Domain.box([0.0], [1e-170]), ball,
                ball.contains([5e-171, 0.0]), ball.contains([1e200, 0.0])]
        for kind in ("l1", "l2", "linf"):
            T = piecewise_map(Domain.box([0.0], [1e-170], kind), 0.0, cases=[(5e-171, 1e-170)])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)   # prop1's, on condition_B's fail
                out += [check_nonexpansive(T, plan), check_condition_C(T, plan),
                        check_prop1(T, 0.5, BGammaMu(0.5, 0.25), plan),
                        sweep_condition_B(T, [0.0, 0.5, 1.0], [0.0, 0.25], plan)]
            out.append([str(w.message) for w in caught])
        return out

    want = read()
    with np.errstate(all="raise"):
        assert read() == want


# --- property: linear maps with |a| <= 1 never violate the basic scan -------

@given(st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_scalings_are_nonexpansive(a):
    m = scaling_map(GALLERY_BALL, a)
    v = check_nonexpansive(m, SamplePlan.grid(6))
    assert v.passed, f"|{a}| <= 1 scaling flagged: {v.witness}"
    w = check_condition_B(m, BGammaMu(0.0, 0.0), SamplePlan.grid(6))
    assert w.passed
