"""Float-list forms of the elementwise builtin maps.

`scaling` (and so `identity`), `translation` and `constant` set
`fn.floats`, the same map on the list of a point's coordinates, which the
engines' step calls on Python floats, and the scans and replay on float64
columns of rows, instead of fn. A float product or sum is the same correctly rounded IEEE
operation as numpy's elementwise ufunc, so each form must equal fn bit for
bit on floats and on every row of a column, and a run whose maps hide the
form (fn wrapped, as a tracer or `compose` wraps it) must write the same
trace bytes. A reassigned fn carries no form, so the engine calls it.
`piecewise` (and so `example1`) looks its coordinate up in a table, which a
column cannot do, so it carries none.
"""
import dataclasses
import struct

import numpy as np
import pytest

from fixedlab import (
    GALLERY_BALL,
    ConstantSchedule,
    Domain,
    IterationConfig,
    IterationRuntimeError,
    TentSchedule,
    affine_map,
    compose,
    constant_map,
    example1_map,
    identity_map,
    krasnoselskii_run,
    make_family,
    multi_map_run,
    piecewise_map,
    replay_trace,
    rotation_scaling_map,
    scaling_map,
    translation_map,
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           1e300, -1e300, 1.7976931348623157e308, 4.0, 2.0, 1.0, -1.0]


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _hidden(m):
    """m with its fn wrapped, which hides the float form."""
    return dataclasses.replace(m, fn=lambda p, _fn=m.fn: _fn(p))


def _maps(d):
    box, point = Domain.box([-2.0] * d, [2.0] * d), Domain.box([0.0] * d, [0.0] * d)
    return [scaling_map(box, 0.5), scaling_map(box, -0.75), identity_map(box),
            scaling_map(point, 1e10), scaling_map(point, 3.0),   # overflow to inf
            translation_map(box, [1e300] + [-0.0] * (d - 1)),
            translation_map(box, [1.7e308] + [5e-324] * (d - 1)),
            constant_map(box, [-0.0] + [1e-310] * (d - 1))]


def _points(d, rng):
    yield from ([v] * d for v in SPECIAL)
    yield from rng.choice(SPECIAL, size=(40, d)).tolist()
    scale = 10.0 ** rng.integers(-320, 300, (40, d))   # subnormal to 1e300
    yield from (rng.standard_normal((40, d)) * scale).tolist()
    yield from rng.uniform(-2.0, 2.0, size=(40, d)).tolist()


@pytest.mark.parametrize("d", [1, 2, 9])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_each_float_form_equals_fn_bitwise(d):
    rng = np.random.default_rng(d)
    points = list(_points(d, rng))
    for m in _maps(d):
        assert callable(m.fn.floats), m.label
        want = []
        for q in points:
            want.append(np.asarray(m.fn(np.array(q)), dtype=float).tolist())
            got = m.fn.floats(q)
            assert all(type(c) is float for c in got), m.label
            assert _bits(got) == _bits(want[-1]), (m.label, q)
        # the same form on columns: every row is the float result
        columns = m.fn.floats(list(np.array(points).T))
        assert len(columns) == d, m.label
        rows = np.column_stack([np.broadcast_to(c, len(points)) for c in columns])
        assert rows.tobytes() == np.array(want).tobytes(), m.label


def test_affine_rotation_piecewise_and_composites_carry_no_float_form():
    box = Domain.box([-1.0, -1.0], [1.0, 1.0])
    a = scaling_map(box, 0.5)
    for m in (affine_map(box, [[0.5, 0.1], [0.0, 0.5]], [0.1, 0.0]),
              rotation_scaling_map(GALLERY_BALL, 0.3, 0.5), compose(a, a), _hidden(a),
              example1_map(), piecewise_map(Domain.box([-1.0], [1.0]), 0.0, [(1.0, 0.5)])):
        assert not hasattr(m.fn, "floats"), m.label


def _record_bits(trace) -> bytes:
    return b"".join(_bits([r.step, *r.x, r.residual, *r.map_residuals, r.alpha,
                           *r.fp_distances]) for r in trace.records)


@pytest.mark.parametrize("d", [2, 9])
def test_a_run_with_every_form_hidden_writes_the_same_trace(d):
    ball = Domain.ball([0.0] * d, 1.0)
    members = [scaling_map(ball, 0.9), identity_map(ball),
               constant_map(ball, [0.1] + [-0.0] * (d - 1)), scaling_map(ball, 0.5)]
    x0 = np.linspace(-0.3, 0.3, d)
    cfg = IterationConfig(lam=0.5, max_iters=600, record_every=1)
    for s in (TentSchedule(0.25, 7, 1.6), ConstantSchedule(0.0)):
        fast = multi_map_run(make_family(members), s, x0, cfg)
        slow = multi_map_run(make_family([_hidden(m) for m in members]), s, x0, cfg)
        assert _record_bits(fast) == _record_bits(slow)
        assert fast.total_steps == slow.total_steps == 600
        assert replay_trace(fast, make_family(members)).passed

    box = Domain.box([-10.0] * d, [10.0] * d)
    shift = translation_map(box, [1e-3] + [-2.5e-4] * (d - 1))
    one = IterationConfig(lam=0.3, max_iters=300)
    assert _record_bits(krasnoselskii_run(shift, x0, one)) == \
        _record_bits(krasnoselskii_run(_hidden(shift), x0, one))


def test_the_engine_calls_a_reassigned_fn():
    ball = Domain.ball([0.0, 0.0], 1.0)
    m = scaling_map(ball, 0.9)
    calls = []

    def quarter(p):
        calls.append(1)
        return 0.25 * p

    m.fn = quarter
    cfg = IterationConfig(lam=0.5, max_iters=30)
    t = krasnoselskii_run(m, [0.6, 0.3], cfg)
    assert len(calls) == 31
    want = krasnoselskii_run(scaling_map(ball, 0.25), [0.6, 0.3], cfg)
    assert _record_bits(t) == _record_bits(want)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_non_finite_image_of_a_float_form_raises_at_its_step():
    box = Domain.box([0.0], [1.79e308], "linf")   # in l2 the extent's square overflows
    T = translation_map(box, [1e307])
    cfg = IterationConfig(lam=0.5, max_iters=50)
    for m in (T, _hidden(T)):
        with pytest.raises(IterationRuntimeError, match="invalid image at step 4") as exc:
            krasnoselskii_run(m, [1.5e308], cfg)
        assert exc.value.step == 4
