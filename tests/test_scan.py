"""The tiled pair-scan kernel behind every pairwise check and the sweep.

The scan walks the sample in row tiles and stops once every check it runs
has found its first row-major witness. Tiling is an implementation detail:
verdicts must not depend on the tile size, `checked_pairs` always counts
the plan's ordered pairs, and memory stays linear in the sample size.
Several checks of one mapping run as one scan, and their verdicts equal
those of the checks run one by one.
"""
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixedlab import (
    GALLERY_AFFINE_MATRIX,
    GALLERY_AFFINE_SHIFT,
    GALLERY_BOX,
    BGammaMu,
    Domain,
    DomainError,
    InvalidInputError,
    PreconditionError,
    SamplePlan,
    affine_map,
    builtin_gallery,
    check_condition_B,
    check_condition_C,
    check_condition_C_lambda,
    check_lemma3,
    check_nonexpansive,
    check_prop1,
    check_quasi_nonexpansive,
    example1_map,
    main,
    piecewise_map,
    register_mapping,
    scaling_map,
    sweep_condition_B,
    translation_map,
)
from fixedlab import conditions, harness
from helpers import (oracle_condition_b, oracle_condition_c_lambda, oracle_nonexpansive,
                     oracle_prop1, oracle_quasi_nonexpansive)

GAMMAS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
MUS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]


def _clip_double():
    """x -> clip(2x): a self-map of the box that fails every condition."""
    return register_mapping(lambda p: np.clip(2.0 * p, -1.0, 1.0), GALLERY_BOX,
                            "clip_double", known_fixed_points=[[0.0, 0.0]])


CASES = [
    (example1_map, SamplePlan.grid(17)),
    (_clip_double, SamplePlan.grid(8)),
    (lambda: affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT),
     SamplePlan.grid(6)),
    (lambda: scaling_map(Domain.ball([0.0, 0.0], 1.0, "l1"), 0.8),
     SamplePlan.random(4, 45)),
]


def _all_verdicts(T, plan):
    p = BGammaMu(0.5, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # prop1's precondition
        return [check_nonexpansive(T, plan), check_quasi_nonexpansive(T, plan),
                check_lemma3(T, p, plan), check_condition_C(T, plan),
                check_condition_C_lambda(T, 0.9, plan), check_condition_B(T, p, plan),
                check_condition_B(T, BGammaMu(0.0, 0.0), plan),
                check_prop1(T, 0.5, p, plan), check_prop1(T, 1.0, BGammaMu(1.0, 0.5), plan),
                sweep_condition_B(T, GAMMAS, MUS, plan)]


@pytest.mark.parametrize("make,plan", CASES,
                         ids=["example1", "clip_double", "affine", "l1_scaling"])
def test_verdicts_do_not_depend_on_the_tile_size(monkeypatch, make, plan):
    T = make()
    n = len(conditions.sample(T.domain, plan))
    want = _all_verdicts(T, plan)
    for tile in (1, 7, n + 1):
        monkeypatch.setattr(conditions, "_TILE", tile)
        assert _all_verdicts(T, plan) == want, tile


def test_scan_stops_at_the_first_witness_tile(monkeypatch):
    calls = []
    real = conditions.pairwise_norm

    def counted(A, B, kind, **kw):
        calls.append(len(A))
        return real(A, B, kind, **kw)

    monkeypatch.setattr(conditions, "pairwise_norm", counted)
    monkeypatch.setattr(conditions, "_TILE", 16)
    plan = SamplePlan.grid(8)   # 64 points: four tiles
    # a pass scans every tile, computing only the two arrays it needs
    assert check_nonexpansive(scaling_map(GALLERY_BOX, 0.5), plan).passed
    assert calls == [16] * 8
    calls.clear()
    # clip_double fails in the first row, so one tile is scanned, yet the
    # verdict still counts every ordered pair of the plan
    v = check_nonexpansive(_clip_double(), plan)
    assert not v.passed and v.checked_pairs == 64 * 64
    assert calls == [16, 16]


def _counted_premises(monkeypatch) -> list:
    """Route every condition_B premise through a wrapper; the list it
    returns collects the first row of each tile a premise is evaluated on."""
    calls = []
    real = conditions._condition_b

    def counted(p):
        check = real(p)
        return check._replace(parts=lambda t, flip: [
            (lambda *args, f=premise, lo=t.rows.start: calls.append(lo) or f(*args), *rest)
            for premise, *rest in check.parts(t, flip)])

    monkeypatch.setattr(conditions, "_condition_b", counted)
    return calls


def test_a_sweep_that_passes_evaluates_no_premise(monkeypatch):
    calls = _counted_premises(monkeypatch)
    monkeypatch.setattr(conditions, "_TILE", 16)
    T = affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT)
    plan = SamplePlan.grid(20)   # 400 points: 25 tiles
    # each (gamma, 2 * gamma) diagonal cell passes: its conclusion never fails
    table = sweep_condition_B(T, GAMMAS, MUS, plan, pairing="zip")
    assert table.statuses() == ["pass"] * 6
    assert calls == []
    # the cross sweep has failing cells: each premise evaluated there is on
    # a tile where the conclusion fails, and the verdicts are unchanged
    table = sweep_condition_B(T, GAMMAS, MUS, plan)
    assert "fail" in table.statuses() and calls
    monkeypatch.undo()
    assert sweep_condition_B(T, GAMMAS, MUS, plan) == table


def test_scan_buffers_are_made_once_per_scan_not_per_tile(monkeypatch):
    made = []
    real = conditions._Tile.out

    def counted(self, name, cols="x"):
        if (name, cols) not in self.bufs:   # the buffer's first use in this scan
            made.append((name, cols))
        return real(self, name, cols)

    monkeypatch.setattr(conditions._Tile, "out", counted)
    monkeypatch.setattr(conditions, "_TILE", 16)
    T = affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT)
    counts = []
    for resolution in (8, 25):   # 64 points in 4 tiles, 625 points in 40
        made.clear()
        verdicts = _all_verdicts(T, SamplePlan.grid(resolution))
        assert all(v.passed for v in verdicts[:-1])   # every tile scanned
        counts.append(len(made))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("run", [
    lambda T, plan: check_nonexpansive(T, plan),
    lambda T, plan: check_condition_B(T, BGammaMu(0.5, 0.25), plan),
    lambda T, plan: check_prop1(T, 0.5, BGammaMu(0.5, 0.25), plan),
    lambda T, plan: sweep_condition_B(T, GAMMAS, MUS, plan),
], ids=["nonexpansive", "condition_B", "prop1", "sweep"])
def test_scan_memory_is_linear_in_the_sample(run):
    # N = 2 500 points; the N x N distance matrices alone would take 48 MiB
    # each, and an N x N x d difference array 95 MiB
    T = affine_map(GALLERY_BOX, GALLERY_AFFINE_MATRIX, GALLERY_AFFINE_SHIFT)
    plan = SamplePlan.grid(50)
    tracemalloc.start()
    try:
        result = run(T, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a passing check, or sweep cell, has scanned every tile
    assert result.passed if hasattr(result, "passed") else "pass" in result.statuses()
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# --- one scan for all the checks of a mapping ---------------------------------

P = BGammaMu(0.5, 0.25)

#: Every check kind as (config entry, the same check run on its own).
SEPARATE = [
    ({"check": "nonexpansive"}, lambda T, plan: check_nonexpansive(T, plan)),
    ({"check": "quasi_nonexpansive"},
     lambda T, plan: check_quasi_nonexpansive(T, plan)),
    ({"check": "fixed_point_shrink", "gamma": 0.5, "mu": 0.25},
     lambda T, plan: check_lemma3(T, P, plan)),
    ({"check": "condition_C"}, lambda T, plan: check_condition_C(T, plan)),
    ({"check": "condition_C_lambda", "lambda": 0.9},
     lambda T, plan: check_condition_C_lambda(T, 0.9, plan)),
    ({"check": "condition_B", "gamma": 0.5, "mu": 0.25},
     lambda T, plan: check_condition_B(T, P, plan)),
    ({"check": "condition_B", "gamma": 0.0, "mu": 0.0},
     lambda T, plan: check_condition_B(T, BGammaMu(0.0, 0.0), plan)),
    ({"check": "prop1", "theta": 0.5, "gamma": 0.5, "mu": 0.25},
     lambda T, plan: check_prop1(T, 0.5, P, plan)),
    ({"check": "prop1", "theta": 1.0, "gamma": 1.0, "mu": 0.5},
     lambda T, plan: check_prop1(T, 1.0, BGammaMu(1.0, 0.5), plan)),
]

#: Request orders: as listed, reversed, and shuffled with repeated checks.
ORDERS = [list(range(len(SEPARATE))), list(range(len(SEPARATE)))[::-1],
          [7, 0, 7, 5, 2, 8, 1, 1, 6, 3, 4, 0]]


def _stretcher():
    """T(0) = 1 but T(1) = 3: prop1 fails its per-point part (i)."""
    return piecewise_map(Domain.box([0.0], [4.0]), 3.0, cases=[(0.0, 1.0)],
                         label="stretcher", known_fixed_points=[[3.0]])


EQUIVALENCE_CASES = CASES + [(_stretcher, SamplePlan.grid(5))] + [
    (lambda m=m: m, SamplePlan.grid(6)) for m in builtin_gallery()]


def _recorded(run):
    """run()'s reprs and the messages of the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reprs = [repr(v) for v in run()]
    return reprs, [str(w.message) for w in caught]


def _requests(order):
    return [harness._request(SEPARATE[k][0], "check") for k in order]


@pytest.mark.parametrize("make,plan", EQUIVALENCE_CASES, ids=[
    "example1", "clip_double", "affine", "l1_scaling", "stretcher",
    *(f"gallery{i}" for i in range(len(builtin_gallery())))])
def test_one_scan_equals_the_checks_run_one_by_one(monkeypatch, make, plan):
    T = make()
    n = len(conditions.sample(T.domain, plan))
    for tile in (1, 7, n + 1):
        monkeypatch.setattr(conditions, "_TILE", tile)
        for order in ORDERS:
            want = _recorded(lambda: [SEPARATE[k][1](T, plan) for k in order])
            got = _recorded(lambda: conditions._checks(T, plan, _requests(order)))
            assert got == want, (tile, order)


def test_equivalence_cases_reach_both_prop1_short_cuts():
    """The cases above include a part (i) witness, which skips the pair
    scan of parts (ii) and (iii), and a failing precondition, which warns."""
    stretcher, plan = _stretcher(), SamplePlan.grid(5)
    (v,), _ = _recorded(lambda: conditions._checks(stretcher, plan, _requests([7])))
    assert "detail='part (i)'" in v
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        check_prop1(_clip_double(), 0.5, P, SamplePlan.grid(8))
    (w,) = caught
    assert "fails for 'clip_double'" in str(w.message)
    assert w.filename == __file__   # the warning points at the caller


def _first_error(run):
    with pytest.raises(ValueError) as info:
        run()
    return type(info.value), str(info.value)


def _nan_map():
    """No fixed points, and every image is NaN: drawing the images fails."""
    return register_mapping(lambda p: np.full_like(p, np.nan), GALLERY_BOX,
                            "nan_map", self_map=False)


@pytest.mark.parametrize("make,order,error", [
    (lambda: translation_map(GALLERY_BOX, [0.5, 0.0]), [7, 1], DomainError),
    (lambda: translation_map(GALLERY_BOX, [0.5, 0.0]), [1, 7], PreconditionError),
    (lambda: translation_map(GALLERY_BOX, [0.5, 0.0]), [0, 1, 7],
     PreconditionError),
    (_nan_map, [0, 1], InvalidInputError),
    (_nan_map, [1, 0], PreconditionError),
], ids=["prop1-first", "quasi-first", "quasi-second", "images-first",
        "images-second"])
def test_one_scan_raises_the_first_error_of_the_one_by_one_run(make, order, error):
    """Neither map has fixed points, so quasi_nonexpansive raises. A
    translation leaves the box, so prop1 cannot map its images again."""
    T, plan = make(), SamplePlan.grid(4)
    want = _first_error(lambda: [SEPARATE[k][1](T, plan) for k in order])
    assert want[0] is error
    assert _first_error(lambda: conditions._checks(T, plan, _requests(order))) == want


@pytest.mark.parametrize("checks,prop1", [
    (["nonexpansive", "condition_C", {"check": "condition_B", "gamma": 0.7, "mu": 0.35},
      {"check": "prop1", "theta": 0.7, "gamma": 0.7, "mu": 0.35}], True),
    (["nonexpansive", {"check": "condition_B", "gamma": 0.7, "mu": 0.35}], False),
], ids=["with-prop1", "symmetric-only"])
def test_check_command_samples_maps_and_measures_each_pair_once(tmp_path, monkeypatch,
                                                                 checks, prop1):
    """Checks on a passing map: N raw map calls for the images, and N more
    for prop1's second images. Every check reads the upper triangle only,
    prop1 each entry in both orientations, so a tile [lo, lo + 16) computes
    each of xx, TT, xT and Tx once, on the columns from lo on."""
    calls, entries = [], []
    real_build, real_norm = harness.build_mapping, conditions.pairwise_norm

    def build(desc, domain):
        m = real_build(desc, domain)
        fn = m.fn
        m.fn = lambda x: calls.append(1) or fn(x)
        return m

    def norm(A, B, kind, **kw):
        entries.append(len(A) * len(B))
        return real_norm(A, B, kind, **kw)

    monkeypatch.setattr(harness, "build_mapping", build)
    monkeypatch.setattr(conditions, "pairwise_norm", norm)
    config = tmp_path / "cost.json"
    config.write_text(json.dumps({
        "name": "cost",
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "mappings": [{"name": "affine", "matrix": [[0.6, 0.1], [-0.1, 0.5]],
                      "shift": [0.2, -0.1]}],
        "plan": {"mode": "grid", "resolution": 20},
        "checks": checks}))
    assert main(["check", "--config", str(config), "--quiet",
                 "--out", str(tmp_path / "out")]) == 0
    n = 20 * 20   # 25 tiles of 16 rows
    assert len(calls) == (2 if prop1 else 1) * n
    assert sum(entries) == 4 * sum(16 * (n - lo) for lo in range(0, n, 16)) == 332800


# --- the symmetric scan against the O(N^2) oracles ------------------------------

def _table_map(d: int, k: int, images: tuple):
    """The map of the box [0, k - 1]^d that sends grid point i of the k-per-
    axis grid to grid point images[i] and every other point to itself, so
    that its images map again and z = (1/2, ..., 1/2) is a fixed point."""
    domain = Domain.box([0.0] * d, [k - 1.0] * d)
    grid = conditions.sample(domain, SamplePlan.grid(k))
    table = {tuple(p): grid[j] for p, j in zip(grid, images)}
    return register_mapping(lambda p: table.get(tuple(p), p), domain, "table",
                            known_fixed_points=[[0.5] * d])


@st.composite
def table_maps(draw):
    """(d, k, images, lam, gamma, mu, theta): a map that moves a few grid
    points and fixes the rest, and the checks' parameters."""
    d = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(2, 12 if d == 1 else 4))
    images = list(range(k ** d))
    for i in draw(st.lists(st.integers(0, k ** d - 1), min_size=1, max_size=4)):
        images[i] = draw(st.integers(0, k ** d - 1))
    gamma = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    mu = draw(st.sampled_from([m for m in (0.0, 0.1, 0.25, 0.5) if 2.0 * m <= gamma]))
    return (d, k, tuple(images), draw(st.sampled_from([0.1, 0.5, 0.9])), gamma, mu,
            draw(st.sampled_from([0.2, 0.5, 1.0])))


#: Grid point 0 of 0..9 goes to 9. condition_C_lambda(1/2) fails at
#: (x_0, x_1) and (x_1, x_0), but its premise holds only at (x_1, x_0):
#: the first witness is in the lower triangle, and in the tile's own rows
#: (its diagonal block) at every tile size but 1.
LOWER = (1, 10, (9, *range(1, 10)), 0.5, 0.5, 0.25, 0.5)


#: condition_C_lambda(0.9) at tile size 1: tile 0 meets the failing pair
#: (x_0, x_2), whose premise holds only as (x_2, x_0). Tile 1 then finds
#: (x_1, x_2), which comes first: a check may not retire on a candidate
#: in a row its tile has not reached.
LATER = (1, 4, (3, 2, 0, 2), 0.9, 0.5, 0.25, 0.5)


#: Grid 0, 1, 2 mapped to 0, 0, 2: prop1's first witness is (x_2, x_1),
#: part (iii), below the diagonal, so at tile sizes 1 and 2 the scan finds
#: it only by reading the upper entry (x_1, x_2) flipped.
FLIPPED = (1, 3, (0, 0, 2), 0.5, 0.5, 0.25, 0.5)


def _as_oracle(v):
    w = v.witness
    return (v.passed, w and (w.x, w.y, w.lhs, w.rhs) + ((w.detail,) if w.detail else ()))


def test_the_lower_triangle_case_is_what_it_says():
    d, k, images, lam, *_ = LOWER
    T = _table_map(d, k, images)
    pts = list(conditions.sample(T.domain, SamplePlan.grid(k)))
    disp = [abs(float(T.fn(p)[0] - p[0])) for p in pts]
    assert not lam * disp[0] <= abs(pts[0][0] - pts[1][0])   # premise fails at (x_0, x_1)
    assert lam * disp[1] <= abs(pts[1][0] - pts[0][0])       # and holds at (x_1, x_0)
    assert oracle_condition_c_lambda(T.fn, pts, lam, 1e-9)[1][:2] == ((1.0,), (0.0,))


@example(LOWER)
@example(LATER)
@example(FLIPPED)
@given(table_maps())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_the_scan_finds_the_oracles_first_witnesses_at_every_tile_size(case):
    """A mixed scan (prop1 reads each upper entry in both orientations,
    quasi_nonexpansive the fixed point) and a scan of symmetric checks
    alone give each oracle's verdict and first witness, bit for bit, at
    tile sizes 1, 7, 16 and N + 1. LOWER has a first witness below the
    diagonal, in its tile's diagonal block, whose premise holds in one
    orientation only; LATER has a candidate that a later tile beats;
    FLIPPED has prop1's first witness below the diagonal. No pair (x, x)
    can fail these conclusions."""
    d, k, images, lam, gamma, mu, theta = case
    T, plan, p = _table_map(d, k, images), SamplePlan.grid(k), BGammaMu(gamma, mu)
    pts = list(conditions.sample(T.domain, plan))
    eps = plan.epsilon
    symmetric = [oracle_nonexpansive(T.fn, pts, eps),
                 oracle_condition_c_lambda(T.fn, pts, lam, eps),
                 oracle_condition_b(T.fn, pts, gamma, mu, eps)]
    mixed = symmetric + [oracle_prop1(T.fn, pts, theta, mu, eps),
                         oracle_quasi_nonexpansive(T.fn, pts, [np.full(d, 0.5)], eps)]
    requests = [conditions._nonexpansive(), conditions._condition_c(lam),
                conditions._one(conditions._condition_b(p))]
    for tile in (1, 7, 16, len(pts) + 1):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(conditions, "_TILE", tile)
            warnings.simplefilter("ignore", UserWarning)   # prop1's precondition
            got = conditions._checks(T, plan, requests + [
                conditions._prop1(theta, p), conditions._quasi_nonexpansive()])
            assert [_as_oracle(v) for v in got] == mixed, tile
            got = conditions._checks(T, plan, requests)
            assert [_as_oracle(v) for v in got] == symmetric, tile
