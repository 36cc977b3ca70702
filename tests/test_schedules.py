"""Blend-weight schedules and the tail-window compliance report.

The tent sequence is the interesting one: its value at step n depends on
which growth block n falls in, so the frozen prefix below (peak 1/4, first
block 4, growth 2 — all dyadic, hence exact) pins both the block walk and
the within-block shape. The independent generator in helpers.py walks the
blocks sequentially instead of mapping n -> block; both must agree to the
last bit.
"""
import itertools
import json
import math
import re
import signal
import sys
import tracemalloc
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixedlab import (
    ConstantSchedule,
    ContractViolation,
    DEFAULT_TENT,
    DecaySchedule,
    IterationConfig,
    PreconditionError,
    SamplePlan,
    TentSchedule,
    verify_schedule,
)
from fixedlab import schedules
from fixedlab.schedules import _CHUNK, PROXY_TOL, AlphaSchedule, ScheduleReport
from helpers import reference_decay, reference_schedule_report, reference_tent

# dyadic parameters -> every value below is exact in binary floating point
TENT_PREFIX = [0.0, 0.125, 0.25, 0.125,
               0.0, 0.0625, 0.125, 0.1875, 0.25, 0.1875, 0.125, 0.0625,
               0.0, 0.03125, 0.0625, 0.09375, 0.125, 0.15625, 0.1875,
               0.21875, 0.25, 0.21875, 0.1875, 0.15625, 0.125, 0.09375,
               0.0625, 0.03125]


def test_constant_schedule():
    s = ConstantSchedule(0.3)
    assert s.alpha(0) == 0.3 and s.alpha(10**6) == 0.3
    with pytest.raises(ContractViolation):
        ConstantSchedule(0.6)
    with pytest.raises(ContractViolation):
        ConstantSchedule(-0.1)


def test_negative_step_rejected():
    for s in (ConstantSchedule(0.1), DecaySchedule(0.5), DEFAULT_TENT):
        with pytest.raises(ContractViolation):
            s.alpha(-1)


def test_decay_values_and_clamp():
    s = DecaySchedule(10.0)
    assert s.alpha(0) == 0.5          # clamped at the cap
    assert s.alpha(99) == 0.1
    t = DecaySchedule(0.5, rate=1.0)
    assert [t.alpha(n) for n in range(4)] == reference_decay(0.5, 1.0, 4)


def test_decay_is_nonincreasing():
    s = DecaySchedule(0.5, rate=0.7)
    vals = [s.alpha(n) for n in range(1000)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_tent_validation():
    with pytest.raises(ContractViolation):
        TentSchedule(peak=0.6, first_block_length=4, growth=2.0)
    with pytest.raises(ContractViolation):
        TentSchedule(peak=0.25, first_block_length=1, growth=2.0)
    with pytest.raises(ContractViolation):
        TentSchedule(peak=0.25, first_block_length=4, growth=0.9)


def test_tent_prefix_frozen():
    s = TentSchedule(peak=0.25, first_block_length=4, growth=2.0)
    got = [s.alpha(n) for n in range(len(TENT_PREFIX))]
    assert got == TENT_PREFIX


def test_tent_matches_independent_generator():
    s = TentSchedule(peak=0.25, first_block_length=4, growth=2.0)
    want = reference_tent(0.25, 4, 2.0, len(TENT_PREFIX))
    assert [s.alpha(n) for n in range(len(TENT_PREFIX))] == want


def test_default_tent_matches_generator_prefix():
    want = reference_tent(0.25, 343, 1.6, 2000)
    got = [DEFAULT_TENT.alpha(n) for n in range(2000)]
    assert got == want


def test_tent_block_starts_are_zero():
    s = TentSchedule(peak=0.25, first_block_length=4, growth=2.0)
    for start in (0, 4, 12, 28):    # cumulative 4*2**j
        assert s.alpha(start) == 0.0


@given(st.floats(min_value=0.01, max_value=0.5),
       st.integers(min_value=2, max_value=50),
       st.floats(min_value=1.0, max_value=3.0),
       st.integers(min_value=0, max_value=5000))
# An even-length block whose apex peak * half / half rounds above peak.
@example(peak=0.22197896068376227, first=2, growth=1.099609375, n=220)
@settings(max_examples=120, deadline=None)
def test_tent_range_invariant(peak, first, growth, n):
    s = TentSchedule(peak=peak, first_block_length=first, growth=growth)
    v = s.alpha(n)
    assert 0.0 <= v <= peak


def test_tent_increment_bound_within_blocks():
    """Within one block consecutive values move by at most peak/ceil(L/2)."""
    s = TentSchedule(peak=0.25, first_block_length=4, growth=2.0)
    start = 0
    for j in range(4):
        length = math.ceil(4 * 2.0 ** j)
        bound = 0.25 / math.ceil(length / 2)
        vals = [s.alpha(n) for n in range(start, start + length)]
        for a, b in zip(vals, vals[1:]):
            assert abs(b - a) <= bound + 1e-15
        start += length


# growth 1 and 1.6, and a fractional first block: ceil(2.5 * 1.6**j) is
# 3, 4, 7, 11, 17, ... so block starts fall at 0, 3, 7, 14, 25, 42, ...
VALUES_CASES = [(0.25, 200, 1.0), (0.25, 343, 1.6), (0.3, 2.5, 1.6),
                (0.5, 7.5, 1.0)]


@pytest.mark.parametrize("peak,first,growth", VALUES_CASES)
def test_tent_values_match_independent_generator(peak, first, growth):
    s = TentSchedule(peak=peak, first_block_length=first, growth=growth)
    ref = reference_tent(peak, first, growth, 3000)
    starts = [0, 1]
    for n in range(1, len(ref)):
        if ref[n] == 0.0:               # every block starts at 0
            starts += [n - 1, n, n + 1]
    for a in sorted(set(starts))[:40] + [1234, 2999, 3000]:
        for b in (a, a + 1, a + 2, a + 17, a + 401, 3000):
            if a <= b <= 3000:
                assert list(s.values(a, b)) == ref[a:b], (a, b)


def test_values_agree_with_alpha_for_every_schedule():
    for s in (ConstantSchedule(0.3), DecaySchedule(0.5, rate=0.7),
              DEFAULT_TENT):
        assert list(s.values(90, 120)) == [s.alpha(n) for n in range(90, 120)]
        assert list(s.values(7, 7)) == []
        with pytest.raises(ContractViolation):
            list(s.values(-1, 3))


def test_verify_schedule_flat_tent_matches_generator_at_1e5():
    """A growth-1 tent has 5*10**4 blocks before step 10**5; the walk must
    visit each once, not once per step."""
    horizon = 10**5
    vals = reference_tent(0.25, 2, 1.0, horizon + 1)
    start = horizon - horizon // 4
    rep = verify_schedule(TentSchedule(0.25, 2, 1.0), horizon)
    assert rep.window_start == start
    assert rep.liminf_proxy == min(vals[start:horizon])
    assert rep.limsup_proxy == max(vals[start:horizon])
    assert rep.diff_proxy == max(
        abs(b - a) for a, b in zip(vals[start:horizon], vals[start + 1:]))


@pytest.mark.parametrize("make", [
    lambda: DecaySchedule(math.nan),
    lambda: DecaySchedule(0.5, math.nan),
    lambda: DecaySchedule(math.inf),
    lambda: DecaySchedule(0.5, math.inf),
    lambda: DecaySchedule(10**400),
    lambda: DecaySchedule(0.5, 10**400),
    lambda: TentSchedule(0.25, math.nan, 1.0),
    lambda: TentSchedule(0.25, math.inf, 1.0),
    lambda: TentSchedule(0.25, 2, math.nan),
    lambda: TentSchedule(0.25, 2, math.inf),
    lambda: IterationConfig(lam=0.5, max_iters=10, residual_tol=math.nan),
    lambda: IterationConfig(lam=0.5, max_iters=10, residual_tol=math.inf),
    lambda: SamplePlan.grid(5, epsilon=math.inf),
    lambda: SamplePlan.random(1, 5, epsilon=math.inf),
], ids=["decay-scale-nan", "decay-rate-nan", "decay-scale-inf",
        "decay-rate-inf", "decay-scale-past-float", "decay-rate-past-float",
        "tent-first-nan", "tent-first-inf", "tent-growth-nan", "tent-growth-inf", "residual-tol-nan", "residual-tol-inf",
        "grid-epsilon-inf", "random-epsilon-inf"])
def test_constructors_refuse_nan_and_inf(make):
    """A range test NaN slips past, or an infinity where a finite value is
    needed, would build an object that misbehaves later or never."""
    with pytest.raises(ValueError, match="finite"):
        make()


# --- the compliance report ----------------------------------------------------

@pytest.mark.parametrize("schedule", [DecaySchedule(0.5, 0.5),
                                      TentSchedule(0.25, 600, 1.0)],
                         ids=["decay", "flat-tent"])
def test_verify_schedule_streams_its_window(schedule):
    """The 5*10**4-value tail window at horizon 2*10**5 is walked, not held
    (two lists of it took about 4 MiB)."""
    tracemalloc.start()
    try:
        verify_schedule(schedule, 2 * 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_decay_report_matches_generator_window():
    horizon = 10**5
    vals = reference_decay(0.5, 0.5, horizon + 1)
    start = horizon - horizon // 4
    rep = verify_schedule(DecaySchedule(0.5, 0.5), horizon)
    assert rep.liminf_proxy == min(vals[start:horizon])
    assert rep.limsup_proxy == max(vals[start:horizon])
    assert rep.diff_proxy == max(
        abs(b - a) for a, b in zip(vals[start:horizon], vals[start + 1:]))


def test_verify_schedule_requires_horizon():
    with pytest.raises(PreconditionError):
        verify_schedule(DEFAULT_TENT, 9)


def test_default_tent_report_frozen_at_1e5():
    rep = verify_schedule(DEFAULT_TENT, 100000)
    assert rep.window_start == 75000
    assert rep.limsup_proxy == 0.25
    assert rep.liminf_proxy == 2.651535238903325e-05
    assert rep.diff_proxy == 1.3257676194533552e-05
    assert rep.compliant
    assert rep.flags() == []


def test_default_tent_report_matches_generator_window():
    """liminf/limsup scan the window [start, horizon); increments also use
    the pair reaching the horizon itself."""
    horizon = 100000
    vals = reference_tent(0.25, 343, 1.6, horizon + 1)
    start = horizon - horizon // 4
    window = vals[start:horizon]
    rep = verify_schedule(DEFAULT_TENT, horizon)
    assert rep.liminf_proxy == min(window)
    assert rep.limsup_proxy == max(window)
    assert rep.diff_proxy == max(
        abs(b - a) for a, b in zip(vals[start:horizon], vals[start + 1:horizon + 1]))


def test_small_tent_report_frozen_at_1e4():
    rep = verify_schedule(TentSchedule(peak=0.25, first_block_length=4,
                                       growth=2.0), 10000)
    assert rep.liminf_proxy == 0.0
    assert rep.limsup_proxy == 0.11053466796875
    assert rep.diff_proxy == 0.0001220703125
    assert rep.compliant


def test_constant_schedule_is_flagged_for_liminf():
    rep = verify_schedule(ConstantSchedule(0.1), 10000)
    assert not rep.compliant
    assert not rep.liminf_ok
    assert rep.limsup_ok and rep.diff_ok
    assert any("tail min" in f for f in rep.flags())


def test_zero_schedule_is_flagged_for_limsup():
    rep = verify_schedule(ConstantSchedule(0.0), 10000)
    assert not rep.compliant
    assert rep.liminf_ok and not rep.limsup_ok


def test_decay_schedule_is_flagged_for_limsup():
    rep = verify_schedule(DecaySchedule(0.5, rate=1.0), 10000)
    assert not rep.compliant
    assert not rep.limsup_ok
    assert rep.liminf_ok


def test_report_to_dict_keys():
    rep = verify_schedule(DEFAULT_TENT, 10000)
    d = rep.to_dict()
    for key in ("schedule", "horizon", "window_start", "liminf_proxy",
                "limsup_proxy", "diff_proxy", "compliant", "flags"):
        assert key in d, key


# --- chunk edges ----------------------------------------------------------------
# Schedules make their values _CHUNK steps at a time and verify_schedule
# reduces them chunk by chunk; both must match one value at a time.

TENT_PARAMS = (st.floats(min_value=0.01, max_value=0.5),
               st.one_of(st.integers(2, 60), st.floats(2.0, 60.0)),
               st.one_of(st.just(1), st.floats(1.0, 2.0)))
# int scale with int rate divides int by int: one rounding of the exact quotient
DECAY_PARAMS = (st.one_of(st.integers(0, 3), st.floats(0.0, 10.0)),
                st.one_of(st.integers(1, 5), st.floats(0.1, 3.0)))
SCHEDULES = st.one_of(st.builds(TentSchedule, *TENT_PARAMS),
                      st.builds(DecaySchedule, *DECAY_PARAMS),
                      st.builds(ConstantSchedule, st.floats(0.0, 0.5)))


def _edge_horizons():
    """The shortest horizons, and horizons whose tail window starts or ends
    within one step of a multiple of _CHUNK or is a chunk long give or take
    one, so that it straddles a chunk edge by a single value."""
    out = {10, 11, 12, 13}
    for k in (1, 2, 3):
        m = k * _CHUNK
        out |= {m - 1, m, m + 1}
        out |= {h for h in range(m, 2 * m) if abs(h - h // 4 - m) <= 1}
        out |= {4 * (m + e) + r for e in (-2, -1, 0) for r in (0, 3)}
    return sorted(out)


@given(SCHEDULES, st.sampled_from(_edge_horizons()))
@settings(max_examples=150, deadline=None)
def test_verify_schedule_matches_value_by_value_reference(s, horizon):
    got, ref = verify_schedule(s, horizon), reference_schedule_report(s, horizon)
    assert got.window_start == ref.window_start
    for field in ("liminf_proxy", "limsup_proxy", "diff_proxy"):
        assert getattr(got, field).hex() == getattr(ref, field).hex(), field


EDGE_STARTS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 2]
EDGE_LENGTHS = [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


def _hex(values):
    return [v.hex() for v in values]


@given(*TENT_PARAMS, st.sampled_from(EDGE_STARTS), st.sampled_from(EDGE_LENGTHS))
@settings(max_examples=60, deadline=None)
def test_tent_values_match_generator_across_chunk_edges(peak, first, growth,
                                                        a, length):
    ref = reference_tent(peak, first, growth, a + length)
    s = TentSchedule(peak, first, growth)
    # the generator leaves out the clamp of an apex rounded one ulp high
    assert _hex(s.values(a, a + length)) == _hex(min(peak, v) for v in ref[a:])


@given(*DECAY_PARAMS, st.sampled_from(EDGE_STARTS), st.sampled_from(EDGE_LENGTHS))
@settings(max_examples=60, deadline=None)
def test_decay_values_match_generator_across_chunk_edges(scale, rate, a, length):
    ref = reference_decay(scale, rate, a + length)
    assert _hex(DecaySchedule(scale, rate).values(a, a + length)) == _hex(ref[a:])


@given(TENT_PARAMS[0], TENT_PARAMS[1], st.integers(0, 6 * _CHUNK),
       st.integers(0, 2 * _CHUNK + 1))
@settings(max_examples=60, deadline=None)
def test_growth_one_tent_matches_the_block_walk_from_any_start(peak, first, a, length):
    """At growth 1 a step's block comes in closed form: the values still
    match the generator, which walks every block from step 0."""
    ref = reference_tent(peak, first, 1, a + length)
    s = TentSchedule(peak, first, 1.0)
    assert _hex(s.values(a, a + length)) == _hex(min(peak, v) for v in ref[a:])


def test_growth_one_tent_reaches_a_far_step_at_once():
    def late(signum, frame):
        raise TimeoutError("values(10**12, 10**12 + 4) still runs after 2 s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(2)
    try:
        got = list(TentSchedule(0.25, 2.5, 1).values(10**12, 10**12 + 4))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # 3-step blocks, half 2, and 10**12 is 1 mod 3: offsets 1, 2, 0, 1
    assert got == [0.125, 0.125, 0.0, 0.125]


# Past 2**53 not every n + 1 is a float, and past 2**63 - 1 it is no int64:
# the float rate's bases are made by one cast per chunk below that, one
# int at a time above it, and each rounds as Python's int -> float does.
FAR_STARTS = [2**53 - 2, 2**53, 2**62, 2**63 - 2, 2**64, 10**20]


@pytest.mark.parametrize("start", FAR_STARTS)
@pytest.mark.parametrize("scale,rate", [(0.5, 0.5), (3, 0.01), (1e6, 0.25), (7, 1e-3)])
def test_decay_float_rate_matches_the_formula_at_far_steps(scale, rate, start):
    """A few steps from the start; a chunk about the start and three steps
    past a chunk edge; and one chunk that ends at the start, whose last
    n + 1 is, at 2**63 - 2, the largest int64."""
    s = DecaySchedule(scale, rate)
    for a, b in ((start, start + 7), (start - _CHUNK // 2, start + _CHUNK // 2 + 3),
                 (start + 1 - _CHUNK, start + 1)):
        want = [min(0.5, scale / (n + 1) ** rate) for n in range(a, b)]
        assert _hex(s.values(a, b)) == _hex(want), (a, b)


def test_decay_int_scale_over_int_power_rounds_the_exact_quotient():
    """Past 2**53 the power is not a float: int / int rounds the exact
    quotient once, where float / float would round the power first."""
    got = list(DecaySchedule(1, 4).values(10000, 10010))
    exact = [1 / (n + 1) ** 4 for n in range(10000, 10010)]
    assert _hex(got) == _hex(exact)
    assert exact != [1.0 / float((n + 1) ** 4) for n in range(10000, 10010)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("numpy_args,args", [
    ((0.5, np.int64(30)), (0.5, 30)),
    ((0.5, np.float32(0.5)), (0.5, 0.5)),
    ((np.int64(1), np.int64(4)), (1, 4)),
], ids=["int64-rate", "float32-rate", "int64-scale-and-rate"])
def test_a_numpy_decay_field_gives_the_values_of_its_python_number(numpy_args, args):
    """An np.int64 rate is read as an int, so (n + 1)**30 does not wrap in
    int64; an np.float32 rate as a float, so its powers are math.pow's and
    no base is cast to int; an np.int64 scale over an int rate divides as
    int / int. to_dict echoes the Python numbers."""
    s, want = DecaySchedule(*numpy_args), DecaySchedule(*args)
    for a, b in ((0, 200), (10**4, 10**4 + 10)):
        assert _hex(s.values(a, b)) == _hex(want.values(a, b)), (a, b)
    assert [(v, type(v)) for v in s.to_dict().values()] == \
        [(v, type(v)) for v in want.to_dict().values()]


@pytest.mark.parametrize("v", [True, np.bool_(True), "0.5", None],
                         ids=["bool", "numpy-bool", "str", "none"])
@pytest.mark.parametrize("field", ["scale", "rate"])
def test_decay_refuses_a_field_that_is_no_real_number(field, v):
    """A bool is refused, as the config reader refuses it."""
    with pytest.raises(ContractViolation, match=re.escape(
            f"decay {field} must be a real number, got {v!r}") + "$"):
        DecaySchedule(**{"scale": 0.5, "rate": 1.0, field: v})


@pytest.mark.parametrize("make, message", [
    (lambda: ConstantSchedule(False), "constant value must be a real number, got False"),
    (lambda: TentSchedule(0.25, 4, True), "tent growth must be a real number, got True"),
    (lambda: TentSchedule(np.bool_(True), 4, 1.6), "tent peak must be a real number, got np.True_"),
    (lambda: IterationConfig(lam="0.5", max_iters=10), "lam must be a real number, got '0.5'"),
    (lambda: IterationConfig(lam=0.5, max_iters=None), "max_iters must be a real number, got None"),
    (lambda: IterationConfig(lam=0.5, max_iters=10, gamma=np.bool_(False)),
     "gamma must be a real number, got np.False_"),
], ids=["constant-bool", "tent-growth-bool", "tent-peak-numpy-bool", "lam-str",
        "max-iters-none", "gamma-numpy-bool"])
def test_schedules_and_iteration_configs_refuse_a_field_that_is_no_real_number(make, message):
    """The decay's reading rule holds for every schedule and IterationConfig:
    a False value was a constant 0 and a True growth a growth of 1."""
    with pytest.raises(ContractViolation, match=re.escape(message) + "$"):
        make()


def _typed(d: dict) -> list:
    return [(k, v, type(v)) for k, v in d.items()]


@pytest.mark.filterwarnings("error")
def test_numpy_fields_of_schedules_and_iteration_configs_are_read_as_python_numbers():
    """A tent of numpy scalars, and an IterationConfig, make the values and
    echo the dicts of their Python numbers, which json can write; so does
    the summary of a run that uses both."""
    from fixedlab import GALLERY_BALL, make_family, multi_map_run, scaling_map
    s = TentSchedule(np.float32(0.25), np.int64(4), np.float32(1.6))
    want = TentSchedule(0.25, 4, float(np.float32(1.6)))
    assert _typed(s.to_dict()) == _typed(want.to_dict())
    assert _hex(s.values(0, 300)) == _hex(want.values(0, 300))
    assert _typed(ConstantSchedule(np.float32(0.25)).to_dict()) == \
        _typed(ConstantSchedule(0.25).to_dict())
    cfg = IterationConfig(lam=np.float32(0.5), max_iters=np.int64(10),
                          residual_tol=np.float64(0.0), truncation_K=np.int64(2),
                          record_every=np.int64(2), gamma=np.float32(0.0625))
    assert _typed(cfg.to_dict()) == _typed(IterationConfig(
        lam=0.5, max_iters=10, residual_tol=0.0, truncation_K=2, record_every=2,
        gamma=0.0625).to_dict())
    fam = make_family([scaling_map(GALLERY_BALL, f) for f in (0.9, 0.8)], SamplePlan.grid(4))
    summary = multi_map_run(fam, s, [0.6, 0.3], cfg).summary()
    assert json.loads(json.dumps(summary))["schedule"] == want.to_dict()


@dataclass(frozen=True)
class _Plateau(AlphaSchedule):
    """1/4 at every step but those in [at, until), where it is `level`."""

    kind: ClassVar[str] = "plateau"
    level: float
    at: int
    until: int

    def _chunks(self, start, stop):
        for a in range(start, stop, _CHUNK):
            c = np.full(min(stop - a, _CHUNK), 0.25)
            c[max(0, self.at - a):max(0, self.until - a)] = self.level
            yield c


HORIZON = 12 * _CHUNK   # its window spans four chunks
WINDOW_START = HORIZON - HORIZON // 4


@pytest.mark.parametrize("offset", [100, _CHUNK, 2 * _CHUNK + 7],
                         ids=["mid-chunk", "chunk-first", "third-chunk"])
def test_verify_schedule_refuses_the_out_of_range_step(offset):
    at = WINDOW_START + offset
    message = f"schedule emitted 0.6 outside [0, 1/2] at step {at}"
    for verify in (verify_schedule, reference_schedule_report):
        with pytest.raises(ContractViolation, match=re.escape(message) + "$"):
            verify(_Plateau(0.6, at, at + 1), HORIZON)


@pytest.mark.parametrize("offset,limsup", [
    (100, 0.5), (_CHUNK - 1, 0.5), (_CHUNK, 0.5), (HORIZON // 4, 0.25)],
    ids=["mid-chunk", "chunk-last", "chunk-first", "horizon-alone"])
def test_increment_across_a_chunk_edge_is_measured(offset, limsup):
    """The one jump, 1/4 -> 1/2, lies between two chunks when the plateau
    starts at a chunk's first value; at the horizon, the window's one-value
    last chunk, it counts as an increment only."""
    s = _Plateau(0.5, WINDOW_START + offset, HORIZON + 1)
    for verify in (verify_schedule, reference_schedule_report):
        rep = verify(s, HORIZON)
        assert (rep.liminf_proxy, rep.limsup_proxy, rep.diff_proxy) == (0.25, limsup, 0.25)


def test_the_schedule_interface_makes_no_values_itself():
    with pytest.raises(NotImplementedError):
        next(AlphaSchedule().values(0, 1))


def test_integer_zero_constant_reports_float_proxies():
    rep = verify_schedule(ConstantSchedule(0), 100)
    assert (rep.liminf_proxy, rep.limsup_proxy, rep.diff_proxy) == (0.0, 0.0, 0.0)
    assert all(type(v) is float
               for v in (rep.liminf_proxy, rep.limsup_proxy, rep.diff_proxy))


@pytest.mark.parametrize("rate", [400, 400.5], ids=["int-rate", "float-rate"])
def test_steep_decay_serves_the_steps_before_its_overflow(rate):
    """(n+1)**rate leaves the float range at n = 5; steps 0-4 are still
    drawn, so a run that stops before step 5 never meets the refusal."""
    s = DecaySchedule(0.5, rate)
    assert list(s.values(0, 5)) == reference_decay(0.5, rate, 5)
    values = s.values(0, 100)
    assert [next(values) for _ in range(5)] == reference_decay(0.5, rate, 5)
    with pytest.raises(ContractViolation,
                       match=re.escape(f"decay rate {rate} overflows a float at step 5")):
        next(values)


@pytest.mark.parametrize("scale,rate,step", [
    (0.5, 3_000_000, 1), (1, 3_000_000, 1), (1, 400, 5), (0.5, 400, 5), (0.5, 400.5, 5),
    (0.5, 1023.5, 2),
], ids=["int-rate", "int-over-int", "int-over-int-400", "int-rate-400", "float-rate-400",
        "float-rate-1023.5"])
def test_steep_decay_is_refused_before_any_power_past_the_float_range(monkeypatch, scale,
                                                                     rate, step):
    """With an int rate pow is exact, so the powers of rate 3 000 000 have
    millions of bits. Whether a step's power leaves the float range is
    decided first, so no pow call returns more than about 2**1100, and an int
    scale over an int rate is refused there as the float paths are. pow
    builds every power of an int rate; of a float rate, only the one whose
    exponent alone does not decide, 2**1023.5."""
    built = []

    def bounded_pow(base, exp):
        if exp * math.log2(base) > 1100:
            pytest.fail(f"built {base}**{exp}")
        built.append(base)
        return pow(base, exp)

    monkeypatch.setattr(schedules, "pow", bounded_pow, raising=False)
    s = DecaySchedule(scale, rate)
    assert list(s.values(0, step)) == reference_decay(scale, rate, step)
    with pytest.raises(ContractViolation, match=re.escape(
            f"decay rate {rate} overflows a float at step {step}: "
            f"{step + 1}**{rate} is too large")):
        list(s.values(0, 100))
    assert sorted(set(built)) == (list(range(1, step + 1)) if isinstance(rate, int)
                                  else [2] if rate > 1023 else [])


@pytest.mark.parametrize("rate,served", [(1024, 1), (1024.0, 1), (1023.5, 2), (1025, 1)],
                         ids=["int-1024", "float-1024", "float-1023.5", "int-1025"])
def test_decay_power_near_the_float_limit_is_decided_exactly(rate, served):
    """A power whose binary exponent lies in [1023, 1025] is built to decide
    whether it overflows: 2**1024 and 2**1025 do, 2**1023.5 does not, and
    3**1023.5 is refused from its exponent alone."""
    s = DecaySchedule(0.5, rate)
    assert list(s.values(0, served)) == reference_decay(0.5, rate, served)
    with pytest.raises(ContractViolation, match=re.escape(
            f"decay rate {rate} overflows a float at step {served}: "
            f"{served + 1}**{rate} is too large")):
        list(s.values(0, served + 1))


@pytest.mark.parametrize("start", [0, 1])
def test_wide_tent_serves_the_steps_before_its_overflow(start):
    """Block 1, from step 2, is 2e308 steps long: steps 0-1 are still drawn,
    then the block that overflows is refused, naming its growth and step."""
    s = TentSchedule(0.25, 2, 1e308)
    assert list(s.values(0, 2)) == [0.0, 0.25]
    values = s.values(start, 100)
    assert list(itertools.islice(values, 2 - start)) == [0.0, 0.25][start:]
    with pytest.raises(ContractViolation, match=re.escape(
            "tent growth 1e+308 overflows a float at block 1, step 2: "
            "2*1e+308**1 is too large")):
        next(values)
    with pytest.raises(ContractViolation, match="at block 1, step 2"):
        verify_schedule(s, 100)


@pytest.mark.parametrize("first,growth", [(1e19, 1.0), (2, 1e12)],
                         ids=["first-block-past-int64", "second-block-past-2e12"])
def test_tent_blocks_longer_than_int64_match_generator(first, growth):
    s = TentSchedule(0.25, first, growth)
    assert _hex(s.values(0, 100)) == _hex(reference_tent(0.25, first, growth, 100))
    got, ref = verify_schedule(s, 100), reference_schedule_report(s, 100)
    assert (got.liminf_proxy, got.limsup_proxy, got.diff_proxy) == \
        (ref.liminf_proxy, ref.limsup_proxy, ref.diff_proxy)


# --- the closed and open ends of each range ------------------------------------

@pytest.mark.parametrize("make", [
    lambda: ConstantSchedule(0.5),
    lambda: DecaySchedule(0.0),
    lambda: DecaySchedule(sys.float_info.max),
    lambda: DecaySchedule(0.5, sys.float_info.max),
    lambda: TentSchedule(0.5, 2, 1.0),
], ids=["constant-half", "decay-scale-0", "decay-scale-max", "decay-rate-max", "tent-peak-half"])
def test_constructors_accept_the_closed_ends_of_their_ranges(make):
    make()


@pytest.mark.parametrize("make", [
    lambda: DecaySchedule(0.5, 0.0),
    lambda: TentSchedule(0.0, 2, 1.0),
], ids=["decay-rate-0", "tent-peak-0"])
def test_constructors_refuse_the_open_ends_of_their_ranges(make):
    with pytest.raises(ContractViolation):
        make()


def test_the_report_flags_by_the_tolerance_itself():
    """A tail minimum or step of exactly PROXY_TOL still counts as vanished,
    and a tail maximum of exactly PROXY_TOL is not bounded away."""
    rep = ScheduleReport(schedule={}, horizon=10, window_start=8, liminf_proxy=PROXY_TOL,
                         limsup_proxy=PROXY_TOL, diff_proxy=PROXY_TOL)
    assert (rep.liminf_ok, rep.limsup_ok, rep.diff_ok) == (True, False, True)


@dataclass(frozen=True)
class _Ends(AlphaSchedule):
    """0.0 and 1/2, the ends of the range, in turn, but `bad` at step `at`."""

    kind: ClassVar[str] = "ends"
    bad: float
    at: int

    def _chunks(self, start, stop):
        c = np.arange(start, stop) % 2 * 0.5
        c[self.at - start] = self.bad
        yield c


@pytest.mark.parametrize("bad", [0.6, -0.1, math.nan])
def test_verify_schedule_names_the_value_outside_the_range_not_an_end(bad):
    """The window [30, 40] opens with 0.0 and 1/2, both inside [0, 1/2]."""
    with pytest.raises(ContractViolation, match=re.escape(
            f"schedule emitted {bad} outside [0, 1/2] at step 35") + "$"):
        verify_schedule(_Ends(bad, 35), 40)


@pytest.mark.filterwarnings("error")
def test_schedule_values_are_the_same_when_numpy_raises_on_every_error():
    """A value below the normal range is served as the scalar formula gives
    it when numpy raises on every floating-point error too: the tent of peak
    1e-310 halves it at offset 1, the decay of rate 645 is 0.5 / 3**645 at
    step 2."""
    tent, decay = TentSchedule(1e-310, 4, 1.0), DecaySchedule(0.5, 645.0)

    def read():
        return list(tent.values(0, 8)), verify_schedule(tent, 100), list(decay.values(0, 3))

    want = read()
    with np.errstate(all="raise"):
        assert read() == want
    assert want[0][:3] == [0.0, 1e-310 / 2, 1e-310]
    assert want[2] == reference_decay(0.5, 645.0, 3) and 0.0 < want[2][2] < sys.float_info.min
