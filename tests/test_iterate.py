"""Averaged iteration engines, blend weights, and trace diagnostics.

Exactness notes, verified here rather than assumed:

* On the step-function example with lam = 1/2 the update halves x every
  step, and halving is exact in binary: x_n == 3 * 2**-n bitwise.
* With a constant-zero schedule the blend weights are exactly
  [1.0, 0.0, ...]; the blender skips zero weights and 1.0 * v == v, so the
  multi-map and truncated engines must reproduce the single-map run
  bit for bit.
* Every frozen vector below was produced by the plain-Python recurrence in
  helpers.reference_averaged_run, not by the engine under test.
"""
import copy
import dataclasses
import io
import itertools
import math
import pickle
import re
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixedlab import (
    ConstantSchedule,
    ContractViolation,
    DEFAULT_TENT,
    Domain,
    DomainError,
    GALLERY_BALL,
    GALLERY_BOX,
    InvalidInputError,
    InvariantError,
    IterationConfig,
    IterationRuntimeError,
    PreconditionError,
    SamplePlan,
    TentSchedule,
    asymptotic_radius,
    constant_map,
    dist,
    goebel_kirk_gap,
    identity_map,
    krasnoselskii_run,
    make_family,
    monotone_distance_check,
    multi_map_run,
    multi_map_weights,
    register_mapping,
    replay_trace,
    residual_vanishes_check,
    rotation_scaling_map,
    scaling_map,
    trace_to_csv,
    translation_map,
    truncated_family_run,
    truncated_weights,
)
from fixedlab import iterate, mappings
from fixedlab.schedules import AlphaSchedule
from helpers import reference_averaged_run, reference_records

TENT = TentSchedule(peak=0.25, first_block_length=343, growth=1.6)


def scaling_family(factors, domain=GALLERY_BALL):
    return make_family([scaling_map(domain, a) for a in factors],
                       SamplePlan.grid(4))


# --- configuration contracts --------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"lam": 0.0, "max_iters": 10},
    {"lam": 1.0, "max_iters": 10},
    {"lam": 0.5, "max_iters": 0},
    {"lam": 0.5, "max_iters": 10, "residual_tol": -1e-9},
    {"lam": 0.5, "max_iters": 10, "record_every": 0},
    {"lam": 0.5, "max_iters": 10, "truncation_K": 0},
    {"lam": 0.5, "max_iters": 10, "gamma": 1.5},
    {"lam": 0.1, "max_iters": 10, "gamma": 0.2},   # needs lam >= gamma
    {"lam": 0.5, "max_iters": 7.5},                 # integer fields are integers
    {"lam": 0.5, "max_iters": True},
    {"lam": 0.5, "max_iters": 10, "record_every": 2.5},
    {"lam": 0.5, "max_iters": 10, "record_every": True},
    {"lam": 0.5, "max_iters": 10, "truncation_K": 2.5},
    {"lam": 0.5, "max_iters": 10, "truncation_K": True},
])
def test_config_validation(kwargs):
    with pytest.raises(ContractViolation):
        IterationConfig(**kwargs)


def test_config_edges_that_are_admissible():
    """gamma 0 bounds no lam, and lam may equal gamma; gamma 1 is in range,
    so it is refused because no lam in (0, 1) reaches it."""
    IterationConfig(lam=0.05, max_iters=1, gamma=0.0)
    IterationConfig(lam=0.3, max_iters=1, gamma=0.3)
    with pytest.raises(ContractViolation,
                       match=r"^lam must be >= gamma when gamma > 0; got lam=0\.5, gamma=1\.0$"):
        IterationConfig(lam=0.5, max_iters=1, gamma=1.0)


def test_config_to_dict_spells_lambda():
    cfg = IterationConfig(lam=0.5, max_iters=10)
    assert cfg.to_dict()["lambda"] == 0.5


def test_large_gamma_warns(affine):
    cfg = IterationConfig(lam=0.5, max_iters=3, gamma=0.2)
    with pytest.warns(UserWarning):
        krasnoselskii_run(affine, [0.5, 0.5], cfg)


# --- blend weights --------------------------------------------------------------

def test_multi_map_weights_frozen():
    assert multi_map_weights(0.0, 4) == [1.0, 0.0, 0.0, 0.0]
    assert multi_map_weights(0.5, 3) == [0.25, 0.5, 0.25]
    assert multi_map_weights(0.5, 1) == [1.0]
    with pytest.raises(ContractViolation, match=r"^need at least one map, got m=0$"):
        multi_map_weights(0.5, 0)


def test_truncated_weights_frozen():
    # K = m: folding the whole tail back in reproduces the finite weights
    assert truncated_weights(0.5, 3) == [0.25, 0.5, 0.25]
    assert truncated_weights(0.0, 4) == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ContractViolation):
        truncated_weights(1.0, 3)
    with pytest.raises(ContractViolation):
        truncated_weights(-0.1, 3)
    with pytest.raises(ContractViolation, match=r"^need at least one map, got K=0$"):
        truncated_weights(0.5, 0)


@given(st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=120)
def test_multi_map_weights_form_convex_combination(a, m):
    w = multi_map_weights(a, m)
    assert len(w) == m
    assert all(c >= 0.0 for c in w)
    assert abs(math.fsum(w) - 1.0) <= 1e-12
    # the k-th map (k >= 2) carries weight a**(k-1) exactly
    assert w[1:] == [a ** k for k in range(1, m)]


@given(st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=120)
def test_truncated_matches_multi_at_equal_length(a, m):
    tw = truncated_weights(a, m)
    mw = multi_map_weights(a, m)
    assert all(abs(p - q) <= 1e-12 for p, q in zip(tw, mw))
    assert abs(math.fsum(tw) - 1.0) <= 1e-12


# --- single-map engine ----------------------------------------------------------

def test_example1_run_is_exact(example1_trace):
    t = example1_trace
    assert t.stop_reason == "max_iters"
    assert t.total_steps == 40
    assert len(t.records) == 41
    for r in t.records:
        assert r.x[0] == 3.0 * 2.0 ** -r.step
        assert r.residual == r.x[0]           # w_n = 0, so ||w - x|| = x
        assert r.map_residuals == (r.x[0],)
        assert r.alpha == 0.0
        assert r.fp_distances == (r.x[0],)


def test_single_engine_matches_reference_recurrence(affine):
    cfg = IterationConfig(lam=0.9, max_iters=200, residual_tol=1e-10)
    t = krasnoselskii_run(affine, [0.9, -0.9], cfg)
    iterates, stop, final_res = reference_averaged_run(
        [affine.fn], lambda n: [1.0], 0.9, [0.9, -0.9], 200, 1e-10)
    assert t.stop_reason == "tol"
    assert t.total_steps == stop == 43
    assert t.final.residual == final_res == 9.118519028806513e-11
    assert len(t.records) == len(iterates) == 44
    for rec, ref in zip(t.records, iterates):
        assert rec.x == ref


def test_identity_stops_immediately():
    m = identity_map(GALLERY_BOX)
    t = krasnoselskii_run(m, [0.4, -0.4],
                          IterationConfig(lam=0.5, max_iters=100))
    assert t.stop_reason == "tol"
    assert t.total_steps == 0
    assert len(t.records) == 1
    assert t.final.residual == 0.0


def test_domain_escape_raises_with_step():
    d = Domain.box([-1.0, -1.0], [1.0, 1.0])
    m = translation_map(d, [0.5, 0.0])
    with pytest.raises(IterationRuntimeError) as exc:
        krasnoselskii_run(m, [0.9, 0.0],
                          IterationConfig(lam=0.9, max_iters=10))
    assert exc.value.step == 1


def test_non_finite_image_raises_with_step():
    d = Domain.box([0.0], [1.0])
    bad = register_mapping(lambda p: p * float("nan"), d, "nan_map",
                           self_map=False)
    with pytest.raises(IterationRuntimeError) as exc:
        krasnoselskii_run(bad, [0.5], IterationConfig(lam=0.5, max_iters=5))
    assert exc.value.step == 0


def test_wrong_shape_image_raises_naming_the_map():
    d = Domain.box([-1.0, -1.0], [1.0, 1.0])
    grow = register_mapping(lambda p: np.append(p, 0.0), d, "grow_map",
                            self_map=False)
    with pytest.raises(IterationRuntimeError, match="grow_map") as exc:
        krasnoselskii_run(grow, [0.5, 0.5],
                          IterationConfig(lam=0.5, max_iters=5))
    assert exc.value.step == 0


# --- multi-map and truncated engines ----------------------------------------------

def test_multi_needs_at_least_two_maps():
    fam = scaling_family([0.9])
    with pytest.raises(ContractViolation):
        multi_map_run(fam, TENT, [0.1, 0.1],
                      IterationConfig(lam=0.5, max_iters=5))


def test_truncated_needs_k_and_enough_members():
    fam = scaling_family([0.9, 0.8])
    with pytest.raises(ContractViolation):
        truncated_family_run(fam, TENT, [0.1, 0.1],
                             IterationConfig(lam=0.5, max_iters=5))
    with pytest.raises(ContractViolation):
        truncated_family_run(fam, TENT, [0.1, 0.1],
                             IterationConfig(lam=0.5, max_iters=5,
                                             truncation_K=3))


def test_multi_engine_matches_reference_recurrence():
    fam = scaling_family([0.9, 0.7, 0.5])
    cfg = IterationConfig(lam=0.5, max_iters=1000, residual_tol=0.0)
    t = multi_map_run(fam, TENT, [0.6, 0.3], cfg)
    fns = [m.fn for m in fam.members]
    iterates, stop, _ = reference_averaged_run(
        fns, lambda n: multi_map_weights(TENT.alpha(n), 3),
        0.5, [0.6, 0.3], 1000, 0.0)
    assert t.total_steps == stop == 1000
    for rec, ref in zip(t.records, iterates):
        assert rec.x == ref
    # frozen checkpoints from the reference recurrence
    assert t.records[10].x == (0.3567308340246777, 0.17836541701233885)
    assert t.records[100].x == (0.001431122618346407, 0.0007155613091732035)
    assert t.records[1000].x == (2.989829097703831e-30, 1.4949145488519154e-30)


def test_truncated_engine_matches_reference_recurrence():
    fam = scaling_family([0.99, 0.98, 0.97, 0.96, 0.95])
    cfg = IterationConfig(lam=0.5, max_iters=500, residual_tol=0.0,
                          truncation_K=2)
    t = truncated_family_run(fam, TENT, [0.6, 0.3], cfg)
    assert t.mapping_labels == ("scaling(0.99)", "scaling(0.98)")
    fns = [m.fn for m in fam.members[:2]]
    iterates, stop, _ = reference_averaged_run(
        fns, lambda n: truncated_weights(TENT.alpha(n), 2),
        0.5, [0.6, 0.3], 500, 0.0)
    assert t.total_steps == stop == 500
    for rec, ref in zip(t.records, iterates):
        assert rec.x == ref
    assert t.records[100].x == (0.3505530678096851, 0.17527653390484255)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("d", [9, 30])
def test_multi_engine_matches_reference_recurrence_above_eight_dimensions(d, kind):
    """From d = 8 on, a norm sums in 8 running partials; the engine's float
    residuals must still equal the reference's array norms bit for bit."""
    rng = np.random.default_rng(d)
    dom = Domain.box([-4.0] * d, [4.0] * d, kind)
    plan = SamplePlan.random(0, 8)
    maps = [register_mapping(lambda p, A=A, b=b: A @ p + b, dom, f"affine{k}", plan=plan)
            for k, (A, b) in enumerate(
                (rng.uniform(-0.5, 0.5, (d, d)) / d, rng.uniform(-1.0, 1.0, d))
                for _ in range(3))]
    fam = make_family(maps)
    x0 = rng.uniform(-3.0, 3.0, d)
    cfg = IterationConfig(lam=0.5, max_iters=60, residual_tol=0.0)
    t = multi_map_run(fam, TENT, x0, cfg)
    fns = [m.fn for m in maps]

    def reference(n):
        return reference_averaged_run(fns, lambda k: multi_map_weights(TENT.alpha(k), 3),
                                      0.5, x0, n, 0.0, kind)

    iterates, stop, residual = reference(60)
    assert t.total_steps == stop == 60 and len(t.records) == len(iterates) == 61
    for rec, ref in zip(t.records, iterates):
        assert rec.x == ref
    for n in (0, 1, 7, 30, 60):
        assert t.records[n].residual == reference(n)[2], n
    assert t.final.residual == residual > 0.0


def test_replay_of_a_wrong_shape_image_is_the_engines_error(example1_trace):
    grow = register_mapping(lambda p: np.append(p, 0.0), Domain.box([0.0], [4.0]),
                            example1_trace.mapping_labels[0], self_map=False)
    with pytest.raises(IterationRuntimeError, match="returned an invalid image at step 0"):
        replay_trace(example1_trace, grow)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_zero_schedule_degenerates_to_single_map(m):
    factors = (0.9, 0.8, 0.7, 0.6, 0.5)[:m]
    fam = scaling_family(factors)
    single = krasnoselskii_run(fam.members[0], [0.6, 0.3],
                               IterationConfig(lam=0.5, max_iters=120,
                                               residual_tol=0.0))
    zero = ConstantSchedule(0.0)
    cfg = IterationConfig(lam=0.5, max_iters=120, residual_tol=0.0,
                          truncation_K=m)
    for t in (multi_map_run(fam, zero, [0.6, 0.3], cfg),
              truncated_family_run(fam, zero, [0.6, 0.3], cfg)):
        assert t.total_steps == single.total_steps
        assert t.stop_reason == single.stop_reason
        for a, b in zip(t.records, single.records):
            assert a.step == b.step
            assert a.x == b.x
            assert a.residual == b.residual
            assert a.map_residuals[0] == b.map_residuals[0]
            assert a.fp_distances == b.fp_distances


def test_aggressive_contractions_underflow_to_exact_zero_residual():
    """Strong contractions drive ||w - x|| below the smallest positive float
    long before 10**4 steps; the engine reports that as a tol stop. Shipped
    long-horizon configs use gentle factors for exactly this reason."""
    fam = scaling_family([0.9, 0.8, 0.7, 0.6, 0.5])
    cfg = IterationConfig(lam=0.5, max_iters=10000, residual_tol=0.0)
    t = multi_map_run(fam, TENT, [0.6, 0.3], cfg)
    assert t.stop_reason == "tol"
    assert t.total_steps < 10000
    assert t.final.residual == 0.0


def test_starting_at_exact_fixed_point_stops_at_zero():
    fam = scaling_family([0.9, 0.7])
    t = multi_map_run(fam, TENT, [0.0, 0.0],
                      IterationConfig(lam=0.5, max_iters=1000))
    assert t.total_steps == 0
    assert t.final.residual == 0.0
    assert t.final.x == (0.0, 0.0)


def test_near_fixed_start_never_drifts():
    m = rotation_scaling_map(GALLERY_BALL, math.pi / 6, 0.8)
    t = krasnoselskii_run(m, [1e-12, 0.0],
                          IterationConfig(lam=0.5, max_iters=1000,
                                          residual_tol=0.0))
    assert t.stop_reason == "max_iters"
    drift = max(dist(np.array(r.x), np.zeros(2)) for r in t.records)
    assert drift <= 1e-10


# --- record decimation ------------------------------------------------------------

def test_records_decimate_beyond_ten_thousand_steps():
    m = scaling_map(Domain.ball([0.0], 1.0), 0.9999)
    cfg = IterationConfig(lam=0.5, max_iters=10055, residual_tol=0.0)
    t = krasnoselskii_run(m, [0.9], cfg)
    steps = [r.step for r in t.records]
    assert steps[:10000] == list(range(10000))
    assert [s for s in steps if s >= 10000] == [10000, 10010, 10020, 10030,
                                                10040, 10050, 10055]
    assert steps[-1] == t.total_steps      # terminal step always recorded


@dataclasses.dataclass(frozen=True)
class _Listed(AlphaSchedule):
    """The listed alphas, in order, and no values after them."""

    kind: ClassVar[str] = "listed"
    listed: tuple

    def _chunks(self, start, stop):
        if start < min(stop, len(self.listed)):
            yield np.array(self.listed[start:stop], dtype=float)


def _assert_records_are_the_reference(t, fns, weights_of, alphas, record_every,
                                      decimation_start, kind):
    """Every TraceStep field of t, bit for bit (repr tells -0.0 from 0.0),
    against the plain-Python records that norm each distance by `dist`."""
    cfg = t.config
    ref = reference_records(fns, weights_of, alphas, cfg.lam, t.records[0].x,
                            cfg.max_iters, cfg.residual_tol, record_every,
                            decimation_start, t.fixed_points, kind)
    assert len(t.records) == len(ref)
    for rec, want in zip(t.records, ref):
        assert repr(dataclasses.astuple(rec)) == repr(want), rec.step


def test_single_engine_records_cross_decimation_start_bit_for_bit(monkeypatch):
    """record_every 16 pins the boundary: step 10 000 is a multiple of 16 but
    not of 160, so it is recorded only if it still took the undecimated
    stride. The run steps in blocks of 64, the last one cut at max_iters, and
    norms the records of each block that holds one in one call per column:
    4 records a block up to step 9 983, then 1 and 2."""
    shapes = []
    norm = iterate._norm_last_axis
    monkeypatch.setattr(iterate, "_norm_last_axis",
                        lambda a, kind: shapes.append(a.shape) or norm(a, kind))
    ball = Domain.ball([0.0], 1.0)
    m = scaling_map(ball, 0.9999)
    cfg = IterationConfig(lam=0.5, max_iters=10_100, residual_tol=0.0, record_every=16)
    t = krasnoselskii_run(m, [0.9], cfg)
    assert [s[0] for s in shapes if len(s) == 2] == [64] * 157 + [53]
    assert [s[:2] for s in shapes if len(s) == 3] == [(4, 1)] * 312 + [(1, 1)] * 2 + [(2, 1)] * 2
    steps = [r.step for r in t.records]
    assert steps[-3:] == [9984, 10_080, 10_100] and len(steps) == 627
    _assert_records_are_the_reference(
        t, [m.fn], lambda a: [1.0], itertools.repeat(0.0), 16, 10_000, "l2")


@pytest.mark.parametrize("engine, d, kind, every, memo", [
    ("multi", 2, "l2", 1, 512), ("multi", 9, "linf", 2, 512), ("multi", 9, "l1", 3, 4),
    ("truncated", 2, "l1", 1, 512), ("truncated", 3, "l2", 2, 8),
])
def test_engine_records_equal_the_reference_bit_for_bit(monkeypatch, engine, d, kind,
                                                        every, memo):
    """Over several record blocks, the decimation start, a growth-1 tent
    whose values repeat (multi) or the shipped tent (truncated), and a
    weight memo small enough to be emptied during the run where it is 4 or
    8; from d = 8 on a distance sums in 8 running partials."""
    monkeypatch.setattr(iterate, "DECIMATION_START", 300)
    monkeypatch.setattr(iterate, "_WEIGHT_MEMO", memo)
    dom = (Domain.box([-2.0] * d, [2.0] * d, kind) if d > 2
           else Domain.ball([0.0] * d, 2.0, kind))
    fam = make_family([rotation_scaling_map(dom, 0.3 * k, f) if (d, kind) == (2, "l2")
                       else scaling_map(dom, f)
                       for k, f in enumerate((0.999, 0.998, 0.997))], SamplePlan.random(0, 16))
    x0 = [1.2 - 0.5 * (i % 5) for i in range(d)]
    cfg = IterationConfig(lam=0.5, max_iters=1_000, residual_tol=0.0,
                          record_every=every, truncation_K=2)
    if engine == "multi":
        s = TentSchedule(0.25, 40, 1.0)
        t, fns, rule = multi_map_run(fam, s, x0, cfg), fam.members, multi_map_weights
    else:
        s = TENT
        t, fns, rule = truncated_family_run(fam, s, x0, cfg), fam.members[:2], truncated_weights
    assert len(t.records) > 2 * iterate._STEP_BLOCK // every
    assert t.fixed_points == ((0.0,) * d,)
    _assert_records_are_the_reference(
        t, [m.fn for m in fns], lambda a: rule(a, len(fns)), s.values(0, 1_001),
        every, 300, kind)


def test_weights_are_made_once_per_distinct_alpha_and_the_memo_is_bounded(monkeypatch):
    """The rule is called once a block of 64 steps, on the block's distinct
    alphas that the memo lacks, in the order they come; the memo holds at
    most 512 alphas, and is emptied when a block's new ones would not fit.
    Blocks 0 to 15 bring 32 new alphas each, twice over, which fill it
    exactly: block 16 finds block 0's kept. Block 17's one new alpha empties
    it, so block 18 computes block 1's again. -0.0 may take 0.0's weights,
    whose zero terms the blend skips, and is recorded as -0.0."""
    calls = []
    rule = iterate._WEIGHT_RULES["multi"]
    monkeypatch.setitem(iterate._WEIGHT_RULES, "multi",
                        lambda a, m: calls.append(list(a)) or rule(a, m))
    new = [[(32 * b + i + 1) / 4096 for i in range(32)] for b in range(16)]
    blocks = new + [new[0], [0.3] * 32, new[1], [0.0, -0.0] * 16]
    listed = [a for b in blocks for a in b + b]
    fam = scaling_family([0.99, 0.98, 0.97])
    cfg = IterationConfig(lam=0.5, max_iters=len(listed) - 1, residual_tol=0.0)
    t = multi_map_run(fam, _Listed(tuple(listed)), [0.6, 0.3], cfg)
    assert iterate._STEP_BLOCK == 64 and iterate._WEIGHT_MEMO == 512
    assert calls == new + [[0.3], new[1], [0.0]]
    assert repr([r.alpha for r in t.records]) == repr(listed)
    _assert_records_are_the_reference(
        t, [m.fn for m in fam.members], lambda a: multi_map_weights(a, 3), listed,
        1, 10_000, "l2")


@pytest.mark.parametrize("k", range(1, 65))
def test_math_pow_is_float_power_bit_for_bit(k):
    """The column rules raise alpha to k by math.pow, the engines did by
    `a ** k`: the same bits for k up to 64, at the shipped tent's distinct
    alphas over its first 10**5 steps, at +-0.0, 0.5, subnormals and NaN."""
    alphas = sorted(set(TENT.values(0, 10 ** 5))) + [
        0.0, -0.0, 0.5, 5e-324, -5e-324, 2.225e-308, math.nan]
    got = np.array(list(map(math.pow, alphas, itertools.repeat(float(k)))))
    want = np.array([a ** k for a in alphas])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _engine_run(engine):
    """(trace, maps, weights_of, alphas) of a 60-step run of the engine on
    the gallery ball, recorded at every step: 61 records."""
    cfg = IterationConfig(lam=0.5, max_iters=60, residual_tol=0.0, truncation_K=2)
    fam = scaling_family([0.99, 0.98, 0.97])
    if engine == "single":
        m = scaling_map(GALLERY_BALL, 0.9)
        return (krasnoselskii_run(m, [0.6, 0.3], cfg), [m], lambda a: [1.0],
                itertools.repeat(0.0))
    if engine == "multi":
        s = TentSchedule(0.25, 4, 1.0)
        return (multi_map_run(fam, s, [0.6, 0.3], cfg), fam.members,
                lambda a: multi_map_weights(a, 3), s.values(0, 61))
    return (truncated_family_run(fam, TENT, [0.6, 0.3], cfg), fam.members[:2],
            lambda a: truncated_weights(a, 2), TENT.values(0, 61))


def _reprs(records):
    return [repr(dataclasses.astuple(r)) for r in records]


@pytest.mark.parametrize("engine", ["single", "multi", "truncated"])
def test_records_read_as_the_tuple_of_their_trace_steps(monkeypatch, engine):
    """Iteration and the CSV writer read 7 rows at a time here, so both cross
    block edges. Every record read, by index, slice or iteration, is the
    reference's bit for bit (repr tells -0.0 from 0.0), and a trace rebuilt
    from the tuple of its records is equal, with the same repr and hash."""
    monkeypatch.setattr(iterate, "_READ_ROWS", 7)
    t, maps, weights_of, alphas = _engine_run(engine)
    ref = reference_records([m.fn for m in maps], weights_of, alphas, 0.5, (0.6, 0.3),
                            60, 0.0, 1, 10_000, t.fixed_points)
    want = [repr(r) for r in ref]
    assert len(t.records) == 61 and _reprs(t.records) == want
    assert _reprs([t.records[0], t.records[-1], t.records[np.int64(30)]]) == \
        [want[0], want[-1], want[30]]
    for at in (slice(1, None, 3), slice(None, None, -2), slice(-5, 60), slice(50, 3, -9)):
        assert _reprs(t.records[at]) == want[at]
        assert t.records[at] == tuple(t.records)[at] == t.records[at]
    assert t.records[1:] != t.records[:-1]
    with pytest.raises(IndexError):
        t.records[61]
    copy = dataclasses.replace(t, records=tuple(t.records))
    assert copy == t and repr(copy) == repr(t) and hash(copy) == hash(t)
    assert hash(t.records) == hash(tuple(t.records))
    assert repr(t.records) == repr(tuple(t.records))
    buf = io.StringIO()
    trace_to_csv(t, buf)
    assert buf.getvalue().splitlines()[1:] == [
        "%d" % n + "".join(",%.17g" % v for v in (*x, r, *mr, a, *fp))
        for n, x, r, mr, a, fp in ref]


@pytest.mark.parametrize("engine", ["single", "multi", "truncated"])
def test_record_columns_are_read_only_and_ragged_records_are_refused(engine):
    """The columns of a trace, of a slice and of a copy are read-only. A
    trace built from any sequence of TraceSteps keeps them as columns: a
    -0.0 reads back as -0.0, and records that differ in a length are
    refused when the trace is built, not in a later diagnostic."""
    t = _engine_run(engine)[0]
    for records in (t.records, t.records[::2], copy.deepcopy(t).records,
                    pickle.loads(pickle.dumps(t.records))):
        for name in iterate._Records.__slots__:
            with pytest.raises(ValueError, match="read-only"):
                getattr(records, name)[0] = 0
    recs = list(t.records)
    recs[0] = dataclasses.replace(recs[0], x=(-0.0, 0.0), alpha=-0.0)
    assert repr(dataclasses.replace(t, records=recs).records[0]) == repr(recs[0])
    for field in ("x", "map_residuals", "fp_distances"):
        recs = list(t.records)
        recs[3] = dataclasses.replace(recs[3], **{field: getattr(recs[3], field) + (1.0,)})
        with pytest.raises(ContractViolation,
                           match=rf"^records differ in the length of {field}: \[\d, \d\]$"):
            dataclasses.replace(t, records=tuple(recs))


@pytest.mark.parametrize("alpha, shown", [(math.nan, "nan"), (-0.1, r"-0\.1")])
def test_an_invalid_alpha_after_memo_hits_fails_at_its_own_step(alpha, shown):
    """Neither a NaN nor the negative of an alpha already seen is served
    memo weights."""
    fam = scaling_family([0.99, 0.98, 0.97])
    cfg = IterationConfig(lam=0.5, max_iters=10, residual_tol=0.0)
    with pytest.raises(InvariantError, match=rf"invalid at step 4 \(alpha={shown}\)$"):
        multi_map_run(fam, _Listed((0.1, 0.2, 0.1, 0.2, alpha, 0.1, alpha) + (0.1,) * 4),
                      [0.6, 0.3], cfg)


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_domain_escape_raises_at_the_step_that_leaves(shape, kind):
    """x_n = (n/8, 1/2) exactly: on the face at step 8, a member; out at 9."""
    dom = (Domain.box([0.0, 0.0], [1.0, 1.0], kind) if shape == "box"
           else Domain.ball([0.0, 0.5], 1.0, kind))
    shift = register_mapping(lambda p: p + np.array([0.25, 0.0]), dom, "shift",
                             self_map=False)
    with pytest.raises(IterationRuntimeError,
                       match=r"^iterate left the domain at step 9: \[1\.125, 0\.5\]$") as exc:
        krasnoselskii_run(shift, [0.0, 0.5], IterationConfig(lam=0.5, max_iters=20))
    assert exc.value.step == 9
    t = krasnoselskii_run(shift, [0.0, 0.5], IterationConfig(lam=0.5, max_iters=8))
    assert t.final.x == (1.0, 0.5)


# --- diagnostics ------------------------------------------------------------------

def test_gap_recovery_on_example1(example1_trace):
    rep = goebel_kirk_gap(example1_trace)
    assert len(rep.gaps) == 40
    for step, gap in zip(rep.steps, rep.gaps):
        assert gap == 3.0 * 2.0 ** -step   # w_n = 0 exactly here
    assert rep.tail_max == max(rep.gaps[-10:])   # max over the last quarter


def test_gap_agrees_with_stored_residual(affine):
    cfg = IterationConfig(lam=0.9, max_iters=200, residual_tol=1e-10)
    t = krasnoselskii_run(affine, [0.9, -0.9], cfg)
    rep = goebel_kirk_gap(t)
    by_step = {r.step: r.residual for r in t.records}
    assert rep.gaps, "contraction trace must yield consecutive pairs"
    for step, gap in zip(rep.steps, rep.gaps):
        assert abs(gap - by_step[step]) <= 1e-12


def test_gap_skips_non_consecutive_records(example1):
    cfg = IterationConfig(lam=0.5, max_iters=40, record_every=5)
    t = krasnoselskii_run(example1, [3.0], cfg)
    rep = goebel_kirk_gap(t)
    assert rep.gaps == ()
    assert rep.tail_max is None   # a maximum over no pair is no number


def test_monotone_distance_check_passes(example1_trace):
    v = monotone_distance_check(example1_trace, [0.0])
    assert v.passed
    assert v.condition_label == "monotone_distance"


def test_monotone_distance_check_catches_outward_drift(example1_trace):
    # tamper with one record so the distance to 0 increases mid-run
    recs = list(example1_trace.records)
    bad = dataclasses.replace(recs[5], x=(3.5,))
    recs[5] = bad
    doctored = dataclasses.replace(example1_trace, records=tuple(recs))
    v = monotone_distance_check(doctored, [0.0])
    assert not v.passed
    assert v.witness.step == doctored.records[5].step


def test_residual_vanishes_needs_twenty_records(example1):
    cfg = IterationConfig(lam=0.5, max_iters=10)
    t = krasnoselskii_run(example1, [3.0], cfg)
    with pytest.raises(PreconditionError):
        residual_vanishes_check(t)


def test_residual_vanishes_takes_twenty_records_and_a_residual_equal_to_its_tol(example1):
    """x_n = 3 * 2**-n is also the residual, so tol 3 * 2**-20 stops at step
    20 on a residual equal to it, which honours it."""
    t = krasnoselskii_run(example1, [3.0], IterationConfig(lam=0.5, max_iters=19))
    assert len(t.records) == 20 and residual_vanishes_check(t).passed
    cfg = IterationConfig(lam=0.5, max_iters=40, residual_tol=3.0 * 2.0 ** -20)
    t = krasnoselskii_run(example1, [3.0], cfg)
    assert (t.stop_reason, t.total_steps, t.final.residual) == ("tol", 20, cfg.residual_tol)
    assert residual_vanishes_check(t).passed


def test_monotone_distance_allows_a_rise_of_exactly_its_tolerance(example1_trace):
    def trace_of(*xs):
        return dataclasses.replace(example1_trace, records=tuple(
            dataclasses.replace(r, x=(x,)) for r, x in zip(example1_trace.records, xs)))

    assert monotone_distance_check(trace_of(1.0, 1.0 + 1e-12), [0.0]).passed
    v = monotone_distance_check(trace_of(1.0, math.nextafter(1.0 + 1e-12, 2.0)), [0.0])
    assert not v.passed and v.witness.step == 1


def test_replay_passes_a_deviation_of_exactly_its_tolerance(monkeypatch, example1,
                                                             example1_trace):
    """With a tolerance of 2**-20, a record moved by 2**-20 is off by exactly
    that (the next interval, halving, by half of it); one ulp more fails."""
    monkeypatch.setattr(iterate, "REPLAY_TOL", 2.0 ** -20)
    recs = list(example1_trace.records)
    for x, passed in ((1.5 + 2.0 ** -20, True), (math.nextafter(1.5 + 2.0 ** -20, 2.0), False)):
        recs[1] = dataclasses.replace(recs[1], x=(x,))
        v = replay_trace(dataclasses.replace(example1_trace, records=tuple(recs)), example1)
        assert v.passed is passed
        assert passed is False or v.observed_max == 2.0 ** -20


def test_residual_vanishes_on_example1(example1_trace):
    v = residual_vanishes_check(example1_trace)
    assert v.passed
    assert v.condition_label == "residual_vanishes"


def test_residual_vanishes_rejects_growth(example1_trace):
    recs = [dataclasses.replace(r, residual=float(i))
            for i, r in enumerate(example1_trace.records)]
    doctored = dataclasses.replace(example1_trace, records=tuple(recs),
                                   stop_reason="max_iters")
    assert not residual_vanishes_check(doctored).passed


def test_asymptotic_radius_frozen(example1_trace):
    r = asymptotic_radius(example1_trace, [1.0], window=10)
    assert r == 0.9999999999972715
    assert r == 1.0 - 3.0 * 2.0 ** -40


def test_asymptotic_radius_window_contract(example1_trace):
    with pytest.raises(ContractViolation):
        asymptotic_radius(example1_trace, [1.0], window=0)
    with pytest.raises(PreconditionError):
        asymptotic_radius(example1_trace, [1.0], window=99)
    with pytest.raises(PreconditionError, match=r"^window 42 exceeds the 41 recorded steps$"):
        asymptotic_radius(example1_trace, [1.0], window=42)
    assert asymptotic_radius(example1_trace, [1.0], window=1) == 1.0 - 3.0 * 2.0 ** -40
    assert asymptotic_radius(example1_trace, [0.0], window=41) == 3.0


def test_replay_confirms_untampered_traces(example1, example1_trace):
    v = replay_trace(example1_trace, example1)
    assert v.passed
    assert v.observed_max == 0.0


def test_replay_multi_and_truncated():
    fam = scaling_family([0.99, 0.98, 0.97])
    cfg = IterationConfig(lam=0.5, max_iters=60, residual_tol=0.0,
                          truncation_K=2)
    tm = multi_map_run(fam, TENT, [0.6, 0.3], cfg)
    tk = truncated_family_run(fam, TENT, [0.6, 0.3], cfg)
    assert replay_trace(tm, fam).passed
    assert replay_trace(tk, fam).passed    # full family; replay uses first K


@dataclasses.dataclass(frozen=True)
class _Cut(AlphaSchedule):
    """`value` at steps 0 .. steps - 1, and no values after them."""

    kind: ClassVar[str] = "cut"
    value: float
    steps: int

    def _chunks(self, start, stop):
        if start < min(stop, self.steps):
            yield np.full(min(stop, self.steps) - start, self.value)


@pytest.mark.parametrize("alpha, shown", [(0.9, r"0\.9"), (math.nan, "nan")],
                         ids=["above-one-half", "nan"])
def test_engine_refuses_the_weights_of_an_invalid_alpha(alpha, shown):
    """verify_schedule range-checks alpha; the engine checks the weights,
    whose sum is NaN, not off by more than the tolerance, for a NaN alpha."""
    fam = scaling_family([0.99, 0.98, 0.97])
    cfg = IterationConfig(lam=0.5, max_iters=60, residual_tol=0.0)
    with pytest.raises(InvariantError, match=rf"invalid at step 0 \(alpha={shown}\)$"):
        multi_map_run(fam, _Cut(alpha, 100), [0.6, 0.3], cfg)


def test_engine_refuses_a_schedule_whose_values_end_early():
    fam = scaling_family([0.99, 0.98, 0.97])
    cfg = IterationConfig(lam=0.5, max_iters=60, residual_tol=0.0)
    with pytest.raises(InvariantError, match=r"^schedule values ended before step 60$"):
        multi_map_run(fam, _Cut(0.1, 5), [0.6, 0.3], cfg)


def test_replay_refuses_an_unknown_engine_kind(example1, example1_trace):
    with pytest.raises(ContractViolation, match=r"^unknown engine kind 'bogus'$"):
        replay_trace(dataclasses.replace(example1_trace, engine="bogus"), example1)


def test_replay_rejects_wrong_mapping(example1_trace):
    other = scaling_map(Domain.box([0.0], [4.0]), 0.5)
    with pytest.raises(ContractViolation):
        replay_trace(example1_trace, other)


def test_replay_rejects_a_non_finite_prediction(example1_trace):
    d = Domain.box([0.0], [4.0])
    nan_map = register_mapping(lambda p: p * float("nan"), d,
                               example1_trace.mapping_labels[0], self_map=False)
    with pytest.raises(IterationRuntimeError,
                       match="returned an invalid image at step 0"):
        replay_trace(example1_trace, nan_map)


def test_replay_flags_tampering(example1, example1_trace):
    recs = list(example1_trace.records)
    recs[7] = dataclasses.replace(recs[7], x=(recs[7].x[0] + 1e-6,))
    doctored = dataclasses.replace(example1_trace, records=tuple(recs))
    v = replay_trace(doctored, example1)
    assert not v.passed


# --- replay of every step -----------------------------------------------------------

def _replay_members():
    """Three maps on the unit ball: two with a float form, one without
    (replayed row by row), and a constant whose zero weight must leave a
    -0.0 blend coordinate as it is."""
    return [scaling_map(GALLERY_BALL, 0.97),
            rotation_scaling_map(GALLERY_BALL, 0.4, 0.9, label="rotation"),
            constant_map(GALLERY_BALL, [0.25, 0.125])]


@given(engine=st.sampled_from(["single", "multi", "truncated"]),
       record_every=st.integers(1, 7), decimation_start=st.integers(0, 40),
       max_iters=st.integers(1, 90), block=st.integers(2, 6),
       growth=st.sampled_from([1.0, 1.6]), kind=st.sampled_from(["tent", "zero", "tiny"]),
       x0=st.sampled_from([(0.6, 0.3), (0.5, -0.0), (-0.0, -0.0), (-0.3, 0.7)]),
       rows=st.sampled_from([1, 3, 1024]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_replay_repeats_every_step_of_an_engine_trace(
        monkeypatch, engine, record_every, decimation_start, max_iters, block,
        growth, kind, x0, rows):
    """Decimated intervals included, every interval ends on its record bit
    for bit, over tent edges (alpha 0), the zero schedule and alpha 1e-200
    alike (the multi weights [1.0, 1e-200, 0.0]: a zero weight after a
    nonzero one that is not the first), and whether the intervals run in one
    lockstep block or in many."""
    monkeypatch.setattr(iterate, "DECIMATION_START", decimation_start)
    monkeypatch.setattr(iterate, "_LOCKSTEP_ROWS", rows)
    members = _replay_members()
    fam = make_family(members)
    s = {"tent": TentSchedule(0.25, block, growth), "zero": ConstantSchedule(0.0),
         "tiny": ConstantSchedule(1e-200)}[kind]
    cfg = IterationConfig(lam=0.5, max_iters=max_iters, residual_tol=0.0,
                          record_every=record_every, truncation_K=2)
    t = (krasnoselskii_run(members[1], x0, cfg) if engine == "single" else
         (multi_map_run if engine == "multi" else truncated_family_run)(fam, s, x0, cfg))
    v = replay_trace(t, members[1] if engine == "single" else fam)
    assert v.passed
    assert v.checked_pairs == t.records[-1].step - t.records[0].step == t.total_steps
    assert v.observed_max == (0.0 if t.total_steps else None)   # None over no step
    steps = np.array([r.step for r in t.records])
    X = np.array([r.x for r in t.records])
    alphas = (np.zeros(t.total_steps + 1) if engine == "single"
              else np.fromiter(s.values(0, t.total_steps + 1), float))
    active = [members[1]] if engine == "single" else members[:len(t.mapping_labels)]
    predicted = iterate._lockstep(active, engine, 0.5, steps, X, alphas)
    assert predicted.tobytes() == X[1:].tobytes()


def _decimated():
    """A multi trace of 61 steps recorded every 5 steps and at its last: 14 records."""
    fam = scaling_family([0.99, 0.98, 0.97])
    cfg = IterationConfig(lam=0.5, max_iters=61, residual_tol=0.0, record_every=5)
    return multi_map_run(fam, TENT, [0.6, 0.3], cfg), fam


def test_replay_of_a_decimated_trace_draws_one_alpha_stream(monkeypatch):
    t, fam = _decimated()
    calls = []
    real = AlphaSchedule.values
    monkeypatch.setattr(AlphaSchedule, "values",
                        lambda s, a, b: calls.append((a, b)) or real(s, a, b))
    v = replay_trace(t, fam)
    assert v.passed and v.checked_pairs == 61 and v.observed_max == 0.0
    assert calls == [(0, 62)]


def test_a_record_nudged_by_1e_9_fails_at_its_interval():
    t, fam = _decimated()
    recs = list(t.records)
    recs[4] = dataclasses.replace(recs[4], x=(recs[4].x[0] + 1e-9, recs[4].x[1]))
    v = replay_trace(dataclasses.replace(t, records=tuple(recs)), fam)
    assert not v.passed
    assert v.checked_pairs == 20
    assert v.witness.step == 20 and v.witness.x == recs[3].x
    assert v.witness.lhs > 1e-10 and v.witness.rhs == 1e-12


def test_a_doctored_alpha_fails_at_its_record():
    t, fam = _decimated()
    recs = list(t.records)
    recs[6] = dataclasses.replace(recs[6], alpha=recs[6].alpha + 0.01)
    v = replay_trace(dataclasses.replace(t, records=tuple(recs)), fam)
    assert not v.passed
    assert v.checked_pairs == 30
    w = v.witness
    assert (w.step, w.x, w.detail) == (30, recs[6].x, "alpha")
    assert (w.lhs, w.rhs) == (recs[6].alpha, t.records[6].alpha)


def test_replay_refuses_a_trace_without_the_schedule_it_needs():
    t, fam = _decimated()
    with pytest.raises(ContractViolation,
                       match=r"^a 'multi' trace carries no schedule to replay$"):
        replay_trace(dataclasses.replace(t, schedule=None), fam)
    with pytest.raises(InvariantError, match=r"^schedule values ended before step 61$"):
        replay_trace(dataclasses.replace(t, schedule=_Cut(TENT.alpha(0), 40)), fam)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("rows", [2, 1024])
def test_replay_names_the_lowest_step_whose_image_is_invalid(monkeypatch, rows):
    """x_n = n * 5e306. The replayed map overflows from step 8 on, which the
    interval from step 5 reaches only at its fourth step: later intervals
    fail at their first, at steps 10 to 25, in the same lockstep block or
    in later ones."""
    monkeypatch.setattr(iterate, "_LOCKSTEP_ROWS", rows)
    box = Domain.box([0.0], [1.79e308], "linf")   # in l2 the extent's square overflows
    cfg = IterationConfig(lam=0.5, max_iters=30, record_every=5)
    t = krasnoselskii_run(translation_map(box, [1e307], label="shift"), [0.0], cfg)

    def shift(p):   # the same shift up to x = 3.9e307, then inf
        return p + 1e307 + 1.7e308 * (p > 3.9e307)

    shift.floats = lambda q: [c + 1e307 + 1.7e308 * (c > 3.9e307) for c in q]
    far = register_mapping(shift, box, "shift", self_map=False)
    wrapped = dataclasses.replace(far, fn=lambda p, _fn=far.fn: _fn(p))   # no form
    for m in (far, wrapped):
        with pytest.raises(IterationRuntimeError,
                           match=r"^mapping 'shift' returned an invalid image at step 8$"):
            replay_trace(t, m)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("rows", [3, 1024])
@pytest.mark.parametrize("bad", ["nan", "raise"])
def test_replay_raises_at_the_lower_of_two_bad_steps_in_one_block(monkeypatch, bad, rows):
    """Records every 5 steps. In replay map 'a' fails only at x_10, the
    first step of an interval, and map 'b' only at x_7, the third step of
    the interval before, both in one lockstep block: the lockstep meets a's
    first, the float re-run b's, as the engine would. A non-finite image
    raises the engine's IterationRuntimeError; an error of fn propagates."""
    monkeypatch.setattr(iterate, "_LOCKSTEP_ROWS", rows)
    box, s = Domain.box([0.0], [100.0]), ConstantSchedule(0.25)
    fam = make_family([translation_map(box, [1.0], label=k) for k in "ab"])
    every = multi_map_run(fam, s, [0.0], IterationConfig(lam=0.5, max_iters=30))
    t = multi_map_run(fam, s, [0.0], IterationConfig(lam=0.5, max_iters=30, record_every=5))
    assert replay_trace(t, fam).passed

    def failing(label, step):
        at = every.records[step].x[0]

        def fn(p):   # translation_map's p + [1.0], but at x_step
            if p[0] != at:
                return p + 1.0
            if bad == "raise":
                raise ArithmeticError(f"{label} at step {step}")
            return p * math.nan

        return register_mapping(fn, box, label, self_map=False)

    error, message = ((ArithmeticError, "b at step 7") if bad == "raise" else
                      (IterationRuntimeError, "mapping 'b' returned an invalid image at step 7"))
    with pytest.raises(error, match=f"^{message}$"):
        replay_trace(t, make_family([failing("a", 10), failing("b", 7)]))


@pytest.mark.parametrize("engine", ["single", "multi"])
def test_a_map_that_writes_into_its_argument_replays_by_the_float_step(engine):
    """The engine hands fn a fresh copy of x_n, the batch of replay a
    read-only row, which such a map cannot write: `_images` gives None, and
    each block is re-run by the engines' float step, to every record's bits."""
    def halve(p):
        p *= 0.5
        return p

    T = register_mapping(halve, GALLERY_BALL, "halve", self_map=False)
    cfg = IterationConfig(lam=0.5, max_iters=60, record_every=4)
    if engine == "single":
        maps, s = T, None
        t = krasnoselskii_run(T, [0.6, 0.3], cfg)
    else:
        shift = translation_map(GALLERY_BALL, [1e-3, 0.0])   # no fixed point to check
        maps, s = make_family([shift, T]), TentSchedule(0.25, 7, 1.6)
        t = multi_map_run(maps, s, [0.6, 0.3], cfg)
    steps, X = t.records.step, t.records.x
    assert mappings._images(T, X) is None
    v = replay_trace(t, maps)
    assert v.passed and v.checked_pairs == 60 and v.observed_max == 0.0
    alphas = np.zeros(61) if s is None else np.fromiter(s.values(0, 61), float)
    members = [T] if s is None else maps.members
    predicted = iterate._lockstep(members, engine, 0.5, steps, X, alphas)
    assert predicted.tobytes() == X[1:].tobytes()


@pytest.mark.parametrize("engine", ["single", "multi", "truncated"])
def test_a_trace_pickles_and_its_copy_replays_and_writes_the_same_csv(engine):
    """A trace, its domain too, pickles whole: the copy equals it, decides
    membership, replays and writes the same CSV bytes."""
    t, maps = _engine_run(engine)[:2]
    u = pickle.loads(pickle.dumps(t))
    assert u == t and u.domain.contains([0.6, 0.3])
    assert replay_trace(u, maps[0] if engine == "single" else make_family(maps)).passed
    csv = []
    for trace in (t, u):
        buf = io.StringIO()
        trace_to_csv(trace, buf)
        csv.append(buf.getvalue())
    assert csv[0] == csv[1]
    assert pickle.loads(pickle.dumps(t.domain)) == t.domain


@pytest.mark.parametrize("z", [[0.0], [0.0, 0.0, 0.0]], ids=["1-vector", "3-vector"])
def test_distance_diagnostics_refuse_a_point_of_another_dimension(z):
    t = _engine_run("single")[0]
    message = re.escape(f"no distance between points of shapes (2,) and ({len(z)},)")
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        monotone_distance_check(t, z)
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        asymptotic_radius(t, z, 10)
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        dist(t.records.x[0], z)


def test_the_engine_reads_a_scalar_image_as_a_1_vector():
    """As evaluate and the checks read it, so a scalar map runs and replays
    as its 1-vector twin does, bit for bit; on a 2-d domain a scalar image
    is still refused at step 0."""
    box, cfg = Domain.box([0.0], [4.0]), IterationConfig(lam=0.5, max_iters=30)
    half = register_mapping(lambda p: 0.5 * p[0], box, "half")
    t = krasnoselskii_run(half, [4.0], cfg)
    twin = krasnoselskii_run(register_mapping(lambda p: 0.5 * p, box, "half"), [4.0], cfg)
    assert repr(t) == repr(twin)   # every float, its sign of zero included
    v = replay_trace(t, half)
    assert v.passed and v.checked_pairs == 30
    flat = register_mapping(lambda p: 0.5 * p[0], Domain.box([0.0, 0.0], [4.0, 4.0]),
                            "flat", self_map=False)
    with pytest.raises(IterationRuntimeError,
                       match=r"^mapping 'flat' returned an invalid image at step 0$"):
        krasnoselskii_run(flat, [4.0, 4.0], cfg)


# --- CSV export -------------------------------------------------------------------

GOLDEN_CSV = ("step,x_0,residual,residual_1,alpha,dist_1\n"
              "0,3,3,3,0,3\n"
              "1,1.5,1.5,1.5,0,1.5\n"
              "2,0.75,0.75,0.75,0,0.75\n")


def test_trace_csv_golden(example1):
    cfg = IterationConfig(lam=0.5, max_iters=2)
    t = krasnoselskii_run(example1, [3.0], cfg)
    buf = io.StringIO()
    trace_to_csv(t, buf)
    assert buf.getvalue() == GOLDEN_CSV


def test_trace_csv_round_trips_through_float(example1_trace, tmp_path):
    dest = tmp_path / "trace.csv"
    trace_to_csv(example1_trace, str(dest))
    lines = dest.read_text().splitlines()
    assert lines[0] == "step,x_0,residual,residual_1,alpha,dist_1"
    assert len(lines) == 1 + 41
    last = lines[-1].split(",")
    assert int(last[0]) == 40
    assert float(last[1]) == 3.0 * 2.0 ** -40   # 17 significant digits suffice
