"""Blend-weight schedules and the tail-window compliance report.

The tent sequence is the interesting one: its value at step n depends on
which growth block n falls in, so the frozen prefix below (peak 1/4, first
block 4, growth 2 — all dyadic, hence exact) pins both the block walk and
the within-block shape. The independent generator in helpers.py walks the
blocks sequentially instead of mapping n -> block; both must agree to the
last bit.
"""
import math
import tracemalloc

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
    alpha,
    verify_schedule,
)
from helpers import reference_decay, reference_tent

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


def test_module_level_alpha_helper():
    s = ConstantSchedule(0.2)
    assert alpha(s, 7) == 0.2


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
    lambda: TentSchedule(0.25, math.nan, 1.0),
    lambda: TentSchedule(0.25, math.inf, 1.0),
    lambda: TentSchedule(0.25, 2, math.nan),
    lambda: TentSchedule(0.25, 2, math.inf),
    lambda: IterationConfig(lam=0.5, max_iters=10, residual_tol=math.nan),
    lambda: IterationConfig(lam=0.5, max_iters=10, residual_tol=math.inf),
    lambda: SamplePlan.grid(5, epsilon=math.inf),
    lambda: SamplePlan.random(1, 5, epsilon=math.inf),
], ids=["decay-scale-nan", "decay-rate-nan", "decay-scale-inf",
        "decay-rate-inf", "tent-first-nan", "tent-first-inf", "tent-growth-nan",
        "tent-growth-inf", "residual-tol-nan", "residual-tol-inf",
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
