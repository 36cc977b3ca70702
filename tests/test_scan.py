"""The tiled pair-scan kernel behind every pairwise check and the sweep.

The scan walks the sample in row tiles and stops once every check it runs
has found its first row-major witness. Tiling is an implementation detail:
verdicts must not depend on the tile size, `checked_pairs` always counts
the plan's ordered pairs, and memory stays linear in the sample size.
"""
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
    SamplePlan,
    affine_map,
    check_condition_B,
    check_condition_C,
    check_condition_C_lambda,
    check_lemma3,
    check_nonexpansive,
    check_prop1,
    check_quasi_nonexpansive,
    example1_map,
    register_mapping,
    scaling_map,
    sweep_condition_B,
)
from fixedlab import conditions

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

    def counted(A, B, kind):
        calls.append(len(A))
        return real(A, B, kind)

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
