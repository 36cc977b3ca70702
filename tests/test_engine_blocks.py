"""The engines step a block of `iterate._STEP_BLOCK` = 64 steps at a time and
check it at once. Each event here is put at steps 0, 62, 63, 64, 65 and 200,
on both sides of a block edge, and the run must stop or raise as the plain
per-step recurrence of tests/helpers says: the same trace bit for bit, or
the same exception type, message and step.

The runs blend two maps on [-4, 4] at alpha 0.25: 'a' = 0.9 x, a builtin
with a float form, and 'b' = 0.8 x, which behaves otherwise at one iterate
x_N of that recurrence (every iterate is distinct, so only at step N).
"""
import dataclasses
import io
import math
import sys

import numpy as np
import pytest

from fixedlab import (
    ConstantSchedule,
    DecaySchedule,
    Domain,
    InvariantError,
    IterationConfig,
    IterationRuntimeError,
    krasnoselskii_run,
    make_family,
    multi_map_run,
    multi_map_weights,
    register_mapping,
    scaling_map,
    trace_to_csv,
)
from fixedlab import iterate
from helpers import reference_averaged_run, reference_records
from test_iterate import _Listed

STEPS = [0, 62, 63, 64, 65, 200]
BOX = Domain.box([-4.0], [4.0])
LAM, ALPHA, X0, MAX_ITERS = 0.5, 0.25, [3.0], 300


def _xs(fns):
    """The per-step iterates x_0 .. x_MAX_ITERS of the two-map recurrence."""
    return reference_averaged_run(fns, lambda n: multi_map_weights(ALPHA, 2), LAM, X0,
                                  MAX_ITERS, 0.0)[0]


PLAIN = _xs([lambda p: 0.9 * p, lambda p: 0.8 * p])


def _map(label, at=None, event=None, form=False, factor=0.8, domain=BOX,
         known_fixed_points=None):
    """factor * x, except at the point `at`, a float list: a NaN first
    coordinate, an image of one coordinate more, an error, the far point 100
    in each coordinate, or x + 1e200 ('far', whose w - x overflows a norm)."""
    def image(q):
        if q != at:
            return [factor * c for c in q]
        if event == "raise":
            raise ArithmeticError(f"{label} at {q[0]!r}")
        return {"nan": [math.nan] + q[1:], "length": [factor * c for c in q] + [0.0],
                "leave": [100.0] * len(q), "far": [c + 1e200 for c in q]}[event]

    def fn(p):
        return np.array(image(p.tolist()))

    if form:
        fn.floats = image
    return register_mapping(fn, domain, label, known_fixed_points, self_map=False)


def _run(b, schedule=ConstantSchedule(ALPHA), **cfg):
    return multi_map_run(make_family([scaling_map(BOX, 0.9, label="a"), b]), schedule, X0,
                         IterationConfig(**{"lam": LAM, "max_iters": MAX_ITERS, **cfg}))


@pytest.mark.parametrize("n", STEPS)
@pytest.mark.parametrize("stop", ["tol", "max_iters"])
def test_a_run_stops_at_its_step_with_the_per_step_records(n, stop):
    """The residual falls monotonically, so a tolerance equal to the residual
    at step n stops the run there; max_iters must be >= 1, so that stop's
    step 0 is step 1. Records every third step and at the stop."""
    n = max(n, 1) if stop == "max_iters" else n
    fns = [lambda p: 0.9 * p, lambda p: 0.8 * p]

    def records(tol, max_iters, every):
        return reference_records(fns, lambda a: multi_map_weights(a, 2),
                                 [ALPHA] * (max_iters + 1), LAM, X0, max_iters, tol, every,
                                 iterate.DECIMATION_START, [(0.0,)], "l2")

    tol = records(0.0, MAX_ITERS, 1)[n][2] if stop == "tol" else 0.0
    t = _run(_map("b"), residual_tol=tol, record_every=3,
             max_iters=MAX_ITERS if stop == "tol" else n)
    assert (t.stop_reason, t.total_steps) == (stop, n)
    want = records(tol, t.config.max_iters, 3)
    assert [repr(dataclasses.astuple(r)) for r in t.records] == [repr(w) for w in want]


def _events(n):
    """(event id, map b, schedule, expected error type, message, its step)."""
    invalid = f"mapping 'b' returned an invalid image at step {n}"
    at = list(PLAIN[n])
    leave = _xs([lambda p: 0.9 * p, lambda p: np.array([100.0]) if p[0] == at[0] else 0.8 * p])
    nan_alpha = _Listed((ALPHA,) * n + (math.nan,) + (ALPHA,) * (MAX_ITERS - n))
    return [
        ("nan-form", _map("b", at, "nan", form=True), None, IterationRuntimeError, invalid, n),
        ("nan-fn", _map("b", at, "nan"), None, IterationRuntimeError, invalid, n),
        ("length-form", _map("b", at, "length", form=True), None, IterationRuntimeError,
         invalid, n),
        ("length-fn", _map("b", at, "length"), None, IterationRuntimeError, invalid, n),
        ("raise", _map("b", at, "raise"), None, ArithmeticError, f"b at {at[0]!r}", None),
        ("nan-alpha", _map("b"), nan_alpha, InvariantError,
         f"blend weights [nan, nan] invalid at step {n} (alpha=nan)", None),
        ("leave", _map("b", at, "leave"), None, IterationRuntimeError,
         f"iterate left the domain at step {n + 1}: {list(leave[n + 1])}", n + 1),
        ("schedule-ends", _map("b"), _Listed((ALPHA,) * n), InvariantError,
         f"schedule values ended before step {MAX_ITERS}", None),
    ]


@pytest.mark.parametrize("n", STEPS)
@pytest.mark.parametrize("k", range(8), ids=[e[0] for e in _events(0)])
def test_an_event_raises_as_the_per_step_run_does(n, k):
    """An invalid image (NaN, or two coordinates on a 1-d domain; from a float
    form and from fn), an error of fn, a NaN alpha, an iterate leaving the
    domain and the schedule's values ending, each at step n only."""
    _, b, schedule, error, message, step = _events(n)[k]
    with pytest.raises(error) as info:
        _run(b, **({} if schedule is None else {"schedule": schedule}))
    assert str(info.value) == message
    assert getattr(info.value, "step", None) == step


@pytest.mark.parametrize("n", STEPS)
def test_of_two_events_at_one_step_the_first_map_s_is_raised(n):
    """At x_n map 'a' returns a NaN image and map 'b' raises: the per-step
    rule reads 'a' first, so its error is the run's."""
    at = list(PLAIN[n])
    fam = make_family([_map("a", at, "nan", factor=0.9), _map("b", at, "raise")])
    with pytest.raises(IterationRuntimeError) as info:
        multi_map_run(fam, ConstantSchedule(ALPHA), X0,
                      IterationConfig(lam=LAM, max_iters=MAX_ITERS))
    assert str(info.value) == f"mapping 'a' returned an invalid image at step {n}"
    assert info.value.step == n


@pytest.mark.parametrize("n", STEPS)
def test_a_map_is_called_at_most_63_times_past_the_step_where_the_run_stops(n):
    """fn without a form, counting its calls: a run that stops on its
    tolerance at step n calls it at x_0 .. x_n and at no more than 63
    iterates past x_n; one that stops at max_iters never steps past it."""
    calls = []

    def fn(p):
        calls.append(p[0])
        return 0.8 * p

    fam = make_family([scaling_map(BOX, 0.9, label="a"), register_mapping(fn, BOX, "b")])
    tol = _run(_map("b"), max_iters=n + 1).records[n].residual
    for cfg, last in ((IterationConfig(LAM, MAX_ITERS, tol), n),
                      (IterationConfig(LAM, n + 1), n + 1)):
        calls.clear()
        t = multi_map_run(fam, ConstantSchedule(ALPHA), X0, cfg)
        assert calls.pop(0) == 0.0       # the run's check of the common fixed point
        assert t.total_steps == last and calls[:last + 1] == [x[0] for x in PLAIN[:last + 1]]
        assert len(calls) - (last + 1) <= (iterate._STEP_BLOCK - 1 if last == n else 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center", [0.0, 1e150])
def test_a_step_whose_norms_overflow_reads_inf_under_the_block_s_errstate(center):
    """'far' sends x_0 to 1e200 + x_0 and fixes every point beyond 1e100 of
    the centre: so w_0 - x_0, and x_1 - c at every later step of the block,
    square past the largest double. The block's checks run under one
    np.errstate(all="ignore"), so those norms read inf with no warning, and
    the run raises as a per-step run does, by default and with numpy set to
    raise on overflow."""
    ball = Domain.ball([center, 0.0], 1.0)

    def fn(p):
        return p if abs(p[0] - center) > 1e100 else p + 1e200

    far = register_mapping(fn, ball, "far", self_map=False)
    x0 = np.array([center + 0.5, 0.0])
    x1 = (0.5 * fn(x0) + (1.0 - 0.5) * x0).tolist()
    for state in ({}, {"over": "raise", "invalid": "raise"}):
        with np.errstate(**state), pytest.raises(IterationRuntimeError) as info:
            krasnoselskii_run(far, x0, IterationConfig(lam=0.5, max_iters=200))
        assert str(info.value) == f"iterate left the domain at step 1: {x1}"


def _tiny(p):
    """x + (1, 0) at the origin, x + (1e200, 0) below 1e-100, NaN beyond."""
    return p + ([1.0, 0.0] if p[0] == 0.0 else [1e200, 0.0] if p[0] < 1e-100 else math.nan)


TINY = register_mapping(_tiny, Domain.ball([0.0, 0.0], 1.0), "T", self_map=False)


@pytest.mark.filterwarnings("error")
def test_a_residual_past_the_largest_square_inside_the_domain_reads_inf_under_the_block_s_errstate():
    """lam = 1e-300 keeps x_2 = 1e-100 inside the ball although w_1 - x_1 is
    1e200, whose square passes the largest double: under the block's
    errstate its norm reads inf with no warning, step 1 is clean, so the run
    goes on, and x_2's NaN image raises at step 2."""
    for state in ({}, {"over": "raise", "invalid": "raise"}):
        with np.errstate(**state), pytest.raises(IterationRuntimeError) as info:
            krasnoselskii_run(TINY, [0.0, 0.0], IterationConfig(lam=1e-300, max_iters=200,
                                                               record_every=100))
        assert str(info.value) == "mapping 'T' returned an invalid image at step 2"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", ["overflow", "fixed-point", "underflow", "decay"])
def test_a_trace_is_the_same_under_numpy_raising_on_every_error(run):
    """The records' per-map and fixed-point distances are normed by the
    distance rule too. 'overflow' stops the lam = 1e-300 run at step 1,
    whose residual and map residual square past the largest double (inf) and
    whose x_1 = 1e-300 squares to 0 in the ball's norm; 'fixed-point'
    moves towards the fixed point 0 until the squares of its coordinates
    underflow, in its records' fixed-point distances too, and stops on its
    tolerance 0 where those of w - x do; the diagnostics of its trace, whose
    norms underflow alike, give the same results. 'underflow' steps by
    lam = 1e-300 towards images 1e-10 x, so lam * w_n underflows in every
    step's average: replay runs its step arithmetic under its errstate,
    norms its deviations by the rule, and passes. 'decay' blends two
    scalings on DecaySchedule(0.5, 645.0), whose alpha at step 2,
    0.5 / 3**645, lies below the normal range, in the run and in replay."""
    ball = Domain.ball([0.0, 0.0], 1.0)
    maps = None if run == "overflow" else (
        make_family([scaling_map(ball, f) for f in (0.5, 0.6)])
        if run == "decay" else scaling_map(ball, 0.5 if run == "fixed-point" else 1e-10))

    def trace():
        if run == "overflow":
            return krasnoselskii_run(TINY, [0.0, 0.0], IterationConfig(lam=1e-300, max_iters=1))
        if run == "decay":
            return multi_map_run(maps, DecaySchedule(0.5, 645.0), [0.6, 0.3],
                                 IterationConfig(lam=0.5, max_iters=2))
        lam, max_iters = (0.5, 5_000) if run == "fixed-point" else (1e-300, 5)
        return krasnoselskii_run(maps, [0.6, 0.3], IterationConfig(lam=lam, max_iters=max_iters))

    def text(t):
        out = io.StringIO()
        trace_to_csv(t, out)
        return repr(t.records) + out.getvalue()

    def diagnostics(t):
        if run == "overflow":
            return None
        return (iterate.goebel_kirk_gap(t), iterate.monotone_distance_check(t, [0.0, 0.0]),
                iterate.asymptotic_radius(t, [0.0, 0.0], min(100, len(t.records))),
                iterate.replay_trace(t, maps))

    want = trace()
    with np.errstate(all="raise"):
        got = trace()
        got_diagnostics = diagnostics(want)
    assert text(got) == text(want)
    assert got_diagnostics == diagnostics(want)
    last = want.final
    if run == "overflow":
        assert (want.total_steps, last.residual, last.map_residuals) == (1, math.inf, (math.inf,))
    elif run == "fixed-point":
        assert (want.stop_reason, last.residual) == ("tol", 0.0) and 0.0 < last.x[0] < 1e-154
        assert len(want.records) == want.total_steps + 1 > 1_000
    elif run == "decay":
        assert (want.stop_reason, want.total_steps) == ("max_iters", 2)
        assert 0.0 < last.alpha < sys.float_info.min and got_diagnostics[-1].passed
    else:
        assert (want.stop_reason, want.total_steps, last.x) == ("max_iters", 5, (0.6, 0.3))
        assert (got_diagnostics[-1].passed, got_diagnostics[-1].observed_max) == (True, 0.0)


@pytest.mark.filterwarnings("error")
def test_replay_norms_its_deviations_under_the_engine_s_errstate():
    """Replayed by a map 1e-7 off the traced one at iterates near 1e-156,
    each interval ends about 1e-164 from its record: a deviation whose
    square underflows reads 0, as the engine's norms read it, with numpy
    raising on every error too."""
    ball = Domain.ball([0.0, 0.0], 1.0)
    traced, other = (register_mapping(lambda p, f=f: f * p, ball, "T") for f in (0.5, 0.5000001))
    t = krasnoselskii_run(traced, [1e-156, 0.0], IterationConfig(lam=0.5, max_iters=5))
    with np.errstate(all="raise"):
        got = iterate.replay_trace(t, other)
    assert (got.passed, got.checked_pairs, got.observed_max) == (True, 5, 0.0)
