"""Acceptance gate: ten criteria, one test (and one printed line) each.

Budgets and tolerances are pinned in the assertions, not in comments, so a
regression shows up as a red test rather than a stale remark. Frozen float
literals were produced by the independent oracles in helpers.py and by the
plain-Python reference recurrences there; the suite also re-runs those
oracles live on smaller inputs (see the per-module test files), so the
pinned values cannot drift from the oracle silently.

The increment bound in criterion 8 carries a +1e-15 allowance: consecutive
schedule values round independently, so their float difference can exceed
the real-arithmetic slope bound by an ulp of the peak (observed excess:
1.7e-17).
"""
import math
import os
import time

import numpy as np

from fixedlab import (
    BGammaMu,
    ConstantSchedule,
    DEFAULT_TENT,
    DecaySchedule,
    IterationConfig,
    SamplePlan,
    TentSchedule,
    check_condition_B,
    check_condition_C,
    check_nonexpansive,
    dist,
    evaluate,
    goebel_kirk_gap,
    krasnoselskii_run,
    load_config,
    make_family,
    multi_map_run,
    multi_map_weights,
    residual_vanishes_check,
    rotation_scaling_map,
    run_command,
    scaling_map,
    sweep_condition_B,
    truncated_family_run,
    verify_schedule,
)
from fixedlab import GALLERY_BALL
from helpers import grid_points_1d, oracle_condition_c_lambda, oracle_nonexpansive

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _cfg(name):
    return os.path.join(CONFIGS, name)


def _bits(coords):
    return np.array(coords, dtype=float).tobytes()


def test_criterion_01_closed_form_reproduction(example1):
    t0 = time.perf_counter()
    cfg = IterationConfig(lam=0.5, max_iters=40, residual_tol=1e-12)
    trace = krasnoselskii_run(example1, [3.0], cfg)
    for r in trace.records:
        assert abs(r.x[0] - 3.0 * 0.5 ** r.step) <= 1e-12
    assert trace.records[0].fp_distances[0] == 3.0
    assert trace.final.fp_distances[0] <= 3e-12    # converges toward 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 01] PASS closed form exact over 41 steps "
          f"({elapsed:.3f}s)")


def test_criterion_02_implication_chain_on_gallery(gallery):
    t0 = time.perf_counter()
    zero = BGammaMu(0.0, 0.0)
    for m in gallery:
        res = 32 if m.domain.dimension == 1 else \
            (6 if m.domain.shape == "box" else 8)
        plan = SamplePlan.grid(res)
        ne = check_nonexpansive(m, plan)
        c = check_condition_C(m, plan)
        b0 = check_condition_B(m, zero, plan)
        assert ne.checked_pairs >= 1000, m.label
        if ne.passed:
            assert c.passed, m.label
        if c.passed:
            assert b0.passed, m.label
        assert b0.same_outcome(ne), m.label
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[criterion 02] PASS chain + degenerate-parameter equality on "
          f"{len(gallery)} mappings ({elapsed:.3f}s)")


def test_criterion_03_checker_soundness_vs_oracle(example1):
    plan = SamplePlan.grid(9)          # grid step 0.5 on [0, 4]
    pts = grid_points_1d(0.0, 4.0, 9)
    fn = lambda p: evaluate(example1, p)

    ne = check_nonexpansive(example1, plan)
    assert not ne.passed
    ne_oracle_passed, ne_wit = oracle_nonexpansive(fn, pts, plan.epsilon)
    assert ne_oracle_passed is False
    assert (tuple(ne.witness.x), tuple(ne.witness.y),
            ne.witness.lhs, ne.witness.rhs) == ne_wit

    c = check_condition_C(example1, plan)
    assert not c.passed
    c_oracle_passed, c_wit = oracle_condition_c_lambda(fn, pts, 0.5,
                                                       plan.epsilon)
    assert c_oracle_passed is False
    assert (tuple(c.witness.x), tuple(c.witness.y),
            c.witness.lhs, c.witness.rhs) == c_wit

    # replayability: both witnesses re-evaluate from scratch as violations
    for v in (ne, c):
        w = v.witness
        lhs = dist(evaluate(example1, w.x), evaluate(example1, w.y), "l2")
        rhs = dist(np.array(w.x), np.array(w.y), "l2")
        assert lhs == w.lhs and rhs == w.rhs
        assert lhs > rhs + plan.epsilon
    print("[criterion 03] PASS witnesses replay and match the brute-force "
          "oracle bit for bit")


def test_criterion_04_residual_and_recovered_gap_agree():
    cfg = load_config(_cfg("affine_contraction.json"))
    trace = krasnoselskii_run(cfg.mappings[0], cfg.x0, cfg.iteration)
    rep = goebel_kirk_gap(trace)
    by_step = {r.step: r.residual for r in trace.records}
    assert rep.gaps
    for step, gap in zip(rep.steps, rep.gaps):
        assert abs(gap - by_step[step]) <= 1e-12
    assert rep.gaps[-1] <= 1e-8
    assert trace.final.residual <= 1e-8
    assert residual_vanishes_check(trace).passed
    print(f"[criterion 04] PASS gap tracks residual within 1e-12 over "
          f"{len(rep.gaps)} pairs, tail {rep.gaps[-1]:.3e}")


def test_criterion_05_monotone_distance_on_shipped_configs(tmp_path):
    run_configs = ["example1.json", "affine_contraction.json",
                   "three_scalings.json", "five_scalings_tent.json",
                   "truncated_family.json"]
    checked = 0
    three_map_elapsed = None
    for name in run_configs:
        t0 = time.perf_counter()
        code, report = run_command("run", _cfg(name), out_dir=str(tmp_path), quiet=True)
        elapsed = time.perf_counter() - t0
        assert code == 0, name
        monotone = report["diagnostics"]["monotone"]
        assert monotone, f"{name} must know a common fixed point"
        assert all(v["passed"] for v in monotone), name
        checked += len(monotone)
        if name == "three_scalings.json":
            three_map_elapsed = elapsed
    assert three_map_elapsed is not None and three_map_elapsed < 1.0
    print(f"[criterion 05] PASS {checked} monotone verdicts over "
          f"{len(run_configs)} configs (three-map run {three_map_elapsed:.3f}s)")


def test_criterion_06_zero_schedule_degeneracy_is_bitwise():
    factors = (0.9, 0.8, 0.7, 0.6, 0.5)
    x0 = [0.6, 0.3]
    zero = ConstantSchedule(0.0)
    single = krasnoselskii_run(
        scaling_map(GALLERY_BALL, factors[0]), x0,
        IterationConfig(lam=0.5, max_iters=300, residual_tol=0.0))
    for m in (2, 3, 5):
        fam = make_family([scaling_map(GALLERY_BALL, a) for a in factors[:m]],
                          SamplePlan.grid(4))
        cfg = IterationConfig(lam=0.5, max_iters=300, residual_tol=0.0,
                              truncation_K=m)
        for t in (multi_map_run(fam, zero, x0, cfg),
                  truncated_family_run(fam, zero, x0, cfg)):
            assert t.total_steps == single.total_steps
            assert t.stop_reason == single.stop_reason
            for a, b in zip(t.records, single.records):
                assert a.step == b.step
                assert _bits(a.x) == _bits(b.x)
                assert _bits([a.residual]) == _bits([b.residual])
                assert _bits(a.fp_distances) == _bits(b.fp_distances)
    print("[criterion 06] PASS multi and truncated runs reproduce the "
          "single-map trace bitwise for m in {2, 3, 5}")


def test_criterion_07_weights_stay_convex_across_tent_run():
    cfg = load_config(_cfg("five_scalings_tent.json"))
    fam = make_family(cfg.mappings, cfg.plan or SamplePlan.grid(4))
    trace = multi_map_run(fam, cfg.schedule, cfg.x0, cfg.iteration)
    assert trace.total_steps == 10000
    t0 = time.perf_counter()
    for r in trace.records:
        w = multi_map_weights(r.alpha, 5)
        assert all(c >= 0.0 for c in w), r.step
        assert abs(math.fsum(w) - 1.0) <= 1e-12, r.step
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 07] PASS {len(trace.records)} weight vectors convex "
          f"within 1e-12 ({elapsed:.3f}s)")


def test_criterion_08_tent_schedule_compliance():
    horizon = 100000
    # independent block walk to find the block containing the window
    start, j = 0, 0
    while True:
        length = math.ceil(343 * 1.6 ** j)
        if start + length > horizon - 1:
            break
        start, j = start + length, j + 1
    assert start == 62287 and length == 37714     # frozen lattice
    rep = verify_schedule(DEFAULT_TENT, horizon)
    assert rep.window_start >= start              # window inside last block
    bound = 0.25 / math.ceil(length / 2)
    assert rep.limsup_proxy == 0.25
    assert rep.liminf_proxy <= 2.0 * bound
    assert rep.diff_proxy <= bound + 1e-15
    assert rep.compliant

    assert not verify_schedule(ConstantSchedule(0.1), 10000).compliant
    assert not verify_schedule(DecaySchedule(0.5, rate=1.0), 10000).compliant
    print(f"[criterion 08] PASS proxies liminf={rep.liminf_proxy:.3e} "
          f"limsup={rep.limsup_proxy} diff={rep.diff_proxy:.3e}")


def test_criterion_09_sweep_matches_pinned_oracle_table(example1):
    t0 = time.perf_counter()
    table = sweep_condition_B(example1,
                              [0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                              [0.25, 0.3, 0.35, 0.4, 0.45, 0.5],
                              SamplePlan.grid(401), pairing="zip")
    # pinned from the brute-force oracle over the same 401-point grid
    assert table.statuses() == ["fail", "fail", "pass", "pass", "pass", "pass"]
    fails = [c.verdict.witness for c in table.cells if c.status == "fail"]
    assert (tuple(fails[0].x), tuple(fails[0].y)) == ((2.0100000000000002,),
                                                      (4.0,))
    assert (fails[0].lhs, fails[0].rhs) == (2.0, 1.9974999999999998)
    assert (tuple(fails[1].x), tuple(fails[1].y)) == ((2.0100000000000002,),
                                                      (4.0,))
    assert (fails[1].lhs, fails[1].rhs) == (2.0, 1.9989999999999997)
    for c in table.cells:
        assert c.verdict.checked_pairs == 401 * 401
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[criterion 09] PASS 6-cell diagonal matches pinned oracle table "
          f"({elapsed:.3f}s)")


def test_criterion_10_fixed_point_invariance():
    lat = IterationConfig(lam=0.5, max_iters=1000, residual_tol=0.0)
    lat_k = IterationConfig(lam=0.5, max_iters=1000, residual_tol=0.0,
                            truncation_K=2)
    fam = make_family([scaling_map(GALLERY_BALL, a) for a in (0.9, 0.7, 0.5)],
                      SamplePlan.grid(4))
    origin = [0.0, 0.0]

    # exact common fixed point: engines converge on the spot, no iterate moves
    for trace in (krasnoselskii_run(fam.members[0], origin, lat),
                  multi_map_run(fam, DEFAULT_TENT, origin, lat),
                  truncated_family_run(fam, DEFAULT_TENT, origin, lat_k)):
        for r in trace.records:
            assert dist(np.array(r.x), np.zeros(2)) <= 1e-10

    # within 1e-12 of the fixed point: each engine walks the full 10**3
    # steps and still never strays past 1e-10 from the start
    near = [1e-12, 0.0]
    rot = rotation_scaling_map(GALLERY_BALL, math.pi / 6, 0.8)
    runs = [krasnoselskii_run(rot, near, lat),
            multi_map_run(fam, DEFAULT_TENT, near, lat),
            truncated_family_run(fam, DEFAULT_TENT, near, lat_k)]
    for trace in runs:
        assert trace.total_steps == 1000
        start = np.array(near)
        drift = max(dist(np.array(r.x), start) for r in trace.records)
        assert drift <= 1e-10
    print("[criterion 10] PASS all three engines hold iterates within 1e-10 "
          "of the start across 10**3 steps")
