"""A randomized referee for the block engine and replay.

Hypothesis draws a run: the engine (single, multi or truncated) over 1 to
5 maps in 1 to 3 dimensions, an l1, l2 or linf box or ball, each map a
scaling (negative ones too: the domains are symmetric about 0) with or
without a float form, the schedule, lam, residual_tol, max_iters,
record_every and the start point (a coordinate may be 0.0 or -0.0, so a
zero weight skipped and one multiplied in give records of other bits),
and up to two events, each at a drawn step on a drawn map, of the kinds of
`test_engine_blocks._map`: a NaN image, an image of another length, the
map raising, a far image that leaves the domain, and a far image whose
w - x overflows the norm. The engine must give what tests/helpers' plain
per-step recurrence gives: the same records bit for bit, or the same
exception type, message and step.
Each finished trace must replay exactly: `passed`, `observed_max` 0.0.
"""
import dataclasses
import math
from typing import Optional

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fixedlab import (
    ConstantSchedule,
    ContractViolation,
    Domain,
    IterationConfig,
    TentSchedule,
    krasnoselskii_run,
    make_family,
    multi_map_run,
    replay_trace,
    truncated_family_run,
)
from fixedlab import iterate
from fixedlab.schedules import AlphaSchedule
from helpers import reference_averaged_run, reference_records
from test_engine_blocks import _map
from test_iterate import _Listed

EVENTS = ("nan", "length", "raise", "leave", "far")
SHIPPED_TENT = TentSchedule(peak=0.25, first_block_length=343, growth=1.6)


@dataclasses.dataclass(frozen=True)
class Case:
    engine: str                          # "single" | "multi" | "truncated"
    d: int
    kind: str
    ball: bool
    factors: tuple                       # one per family member
    forms: tuple                         # whether each member has a float form
    K: int                               # the maps the engine blends
    schedule: Optional[AlphaSchedule]
    lam: float
    tol: float
    max_iters: int
    every: int
    x0: tuple
    events: tuple = ()                   # (step, map, kind), on distinct maps


def _weights(engine, m):
    """The engine's blend weights at alpha, transcribed with `**`."""
    if engine == "single":
        return lambda a: [1.0]
    if engine == "multi":
        return lambda a: [1.0 - math.fsum([a ** k for k in range(1, m)])] + [
            a ** k for k in range(1, m)]

    def truncated(a):
        if not (0.0 <= a < 1.0):
            raise ContractViolation(f"blend level must lie in [0, 1), got {a}")
        return [1.0 - a / (1.0 - a) + a ** m / (1.0 - a)] + [a ** k for k in range(1, m)]

    return truncated


def _event_points(case, domain, weights, alphas):
    """{map: (x_N, kind)} for each event at step N on a map: x_N is the N-th
    iterate of the run without events, which the run reaches, if at all,
    before any event fires. An event that a run without events cannot reach
    (its weights fail, or its alphas end, at an earlier step) is left out:
    the run fails before it. So is one at the origin, every map's known fixed
    point: there it would fire in registration's and `common_fixed_points`'
    checks of that point, before the run this referee transcribes."""
    plain = [_map("p", factor=f, domain=domain).fn for f in case.factors[:case.K]]
    points = {}
    for step, k, kind in case.events:
        try:
            xs = reference_averaged_run(plain, lambda n: weights(alphas[n]), case.lam,
                                        case.x0, step, -1.0, case.kind)[0]
        except (ContractViolation, IndexError, ValueError):
            continue
        if any(xs[step]):                # not ±0.0 in every coordinate
            points[k] = (list(xs[step]), kind)
    return points


def _check(case):
    dom = (Domain.ball([0.0] * case.d, 2.0, case.kind) if case.ball
           else Domain.box([-2.0] * case.d, [2.0] * case.d, case.kind))
    weights = _weights(case.engine, case.K)
    alphas = ([0.0] * (case.max_iters + 1) if case.schedule is None
              else list(case.schedule.values(0, case.max_iters + 1)))
    events = _event_points(case, dom, weights, alphas)
    zero = [[0.0] * case.d]
    maps = [_map(f"T{k}", *events.get(k, (None, None)), form=form, factor=f, domain=dom,
                 known_fixed_points=zero if k == 0 else None)
            for k, (f, form) in enumerate(zip(case.factors, case.forms))]
    cfg = IterationConfig(lam=case.lam, max_iters=case.max_iters, residual_tol=case.tol,
                          record_every=case.every, truncation_K=case.K)
    fns, labels = [t.fn for t in maps[:case.K]], [t.label for t in maps[:case.K]]
    try:
        want = reference_records(fns, weights, alphas, case.lam, case.x0, case.max_iters,
                                 case.tol, case.every, iterate.DECIMATION_START, zero,
                                 case.kind, labels=labels, domain=dom)
    except Exception as e:               # the referee's error is the run's
        with pytest.raises(type(e)) as info:
            _run(case, maps, cfg)
        assert type(info.value) is type(e)
        assert str(info.value) == str(e)
        assert getattr(info.value, "step", None) == getattr(e, "step", None)
        return
    t = _run(case, maps, cfg)
    assert [repr(dataclasses.astuple(r)) for r in t.records] == [repr(w) for w in want]
    assert t.fixed_points == (tuple(zero[0]),)
    last = want[-1]
    assert t.stop_reason == ("tol" if last[2] <= case.tol else "max_iters")
    xs, n, residual = reference_averaged_run(fns, lambda i: weights(alphas[i]), case.lam,
                                             case.x0, case.max_iters, case.tol, case.kind)
    assert (n, xs[-1], residual) == (t.total_steps, last[1], last[2])
    family = maps[0] if case.engine == "single" else make_family(maps)
    v = replay_trace(t, family)
    assert v.passed and v.observed_max == (0.0 if len(t.records) > 1 else None)


def _run(case, maps, cfg):
    if case.engine == "single":
        return krasnoselskii_run(maps[0], case.x0, cfg)
    run = multi_map_run if case.engine == "multi" else truncated_family_run
    return run(make_family(maps), case.schedule, case.x0, cfg)


@st.composite
def _cases(draw):
    engine = draw(st.sampled_from(["single", "multi", "truncated"]))
    size = {"single": 1, "multi": draw(st.integers(2, 5)),
            "truncated": draw(st.integers(1, 5))}[engine]
    K = draw(st.integers(1, size)) if engine == "truncated" else size
    d = draw(st.integers(1, 3))
    # steps and step counts at the engine's block edges, or anywhere
    max_iters = draw(st.sampled_from([1, 2, 63, 64, 65, 128, 200]) | st.integers(1, 200))
    if engine == "single":
        schedule = None
    else:
        schedule = draw(st.one_of(
            st.builds(ConstantSchedule, st.sampled_from([0.0, 0.1, 0.25, 0.5])),
            st.builds(TentSchedule, st.sampled_from([0.25, 0.5]), st.integers(2, 40),
                      st.sampled_from([1.0, 1.6])),
            st.builds(lambda a: _Listed(tuple(a)), st.lists(
                st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 0.75, math.nan]),
                min_size=1, max_size=max_iters + 1))))
    # with a negative scaling a zero coordinate has images of both signs of
    # zero, and a zero weight multiplied in (-0.0 + 0.0 * 0.0) would read 0.0
    coordinate = st.sampled_from([-0.5, -0.3, -0.1, -0.0, 0.0, 0.1, 0.2, 0.45])
    step = st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, max_iters]) | st.integers(0, max_iters)
    events = draw(st.lists(st.tuples(step, st.sampled_from(range(K)), st.sampled_from(EVENTS)),
                           max_size=2, unique_by=lambda e: e[1]))
    return Case(engine=engine, d=d, kind=draw(st.sampled_from(["l1", "l2", "linf"])),
                ball=draw(st.booleans()),
                factors=tuple(draw(st.lists(st.sampled_from([0.5, 0.8, 0.9, 0.99, -0.5, -0.9]),
                                            min_size=size, max_size=size))),
                forms=tuple(draw(st.lists(st.booleans(), min_size=size, max_size=size))),
                K=K, schedule=schedule, lam=draw(st.sampled_from([0.5, 0.25, 0.9, 1e-3])),
                tol=draw(st.sampled_from([0.0, 1e-3, 1e-6])), max_iters=max_iters,
                every=draw(st.integers(1, 4)),
                x0=tuple(draw(st.lists(coordinate, min_size=d, max_size=d))),
                events=tuple(events))


#: A finished multi-map run past the decimation start on the shipped tent,
#: whose 10,030 steps draw thousands of distinct alphas (the weight memo
#: keeps 512), and a truncated one whose w - x overflows at step 10,005.
LONG = Case(engine="multi", d=1, kind="l1", ball=False, factors=(0.9999, 0.9998),
            forms=(True, False), K=2, schedule=SHIPPED_TENT, lam=0.5, tol=0.0,
            max_iters=10_030, every=3, x0=(0.45,))
LONG_FAR = dataclasses.replace(LONG, engine="truncated", kind="l2", ball=True,
                               events=((10_005, 1, "far"),))
#: Weights (1.0, 0.0) on the images (0.15, -0.0) and (-0.15, 0.0): a skipped
#: zero weight keeps x_1's second coordinate -0.0, one multiplied in makes it 0.0.
SIGNED_ZERO = Case(engine="multi", d=2, kind="l2", ball=False, factors=(0.5, -0.5),
                   forms=(True, False), K=2, schedule=ConstantSchedule(0.0), lam=0.5,
                   tol=0.0, max_iters=5, every=1, x0=(0.3, -0.0))


def test_the_long_examples_cross_the_decimation_start_and_the_memo():
    assert len(set(SHIPPED_TENT.values(0, LONG.max_iters + 1))) > iterate._WEIGHT_MEMO
    assert LONG.max_iters > iterate.DECIMATION_START
    assert LONG_FAR.events[0][0] > iterate.DECIMATION_START


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(LONG)
@example(LONG_FAR)
@example(SIGNED_ZERO)
@given(_cases())
def test_the_engines_and_replay_agree_with_the_per_step_referee(case):
    _check(case)
