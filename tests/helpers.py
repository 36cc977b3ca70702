"""Brute-force reference implementations the test suite checks the package
against.

These deliberately re-derive results with the dumbest possible code:
explicit double loops over sample points, scalar Python arithmetic, a
sequential block walk for the tent schedule, and a value-by-value tail scan
for the schedule report. They share only the norm primitive with the
package (so scalar values are comparable bit for bit) — the scan structure,
the inequalities, and the recurrences are transcribed independently from
their displayed forms. The report scan reads the schedule's own `values`, so
it referees the chunked reduction alone; the generators referee the values.
The sample oracle is the package's sampler from when it returned a list of
copies, kept as it was, so it shares the sampler's private helpers.
"""

from __future__ import annotations

import math

import numpy as np

from fixedlab.errors import ContractViolation, InvalidInputError, PreconditionError
from fixedlab.schedules import ScheduleReport
from fixedlab.vecspace import (_L1_REJECTION_MAX_D, Domain, NormKind, SamplePlan, Vector,
                               _axis_resolutions, _freeze, _norm_last_axis, dist)

# ---------------------------------------------------------------------------
# condition oracles: double loop, x-major, first violation wins
# ---------------------------------------------------------------------------


def oracle_nonexpansive(fn, points, eps, kind=NormKind.L2):
    """(passed, witness) where witness = (x, y, lhs, rhs) or None."""
    images = [fn(p) for p in points]
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            lhs = dist(images[i], images[j], kind)
            rhs = dist(x, y, kind)
            if lhs > rhs + eps:
                return False, (tuple(x), tuple(y), lhs, rhs)
    return True, None


def oracle_condition_c_lambda(fn, points, lam, eps, kind=NormKind.L2):
    images = [fn(p) for p in points]
    for i, x in enumerate(points):
        d_x_tx = dist(x, images[i], kind)
        for j, y in enumerate(points):
            d_xy = dist(x, y, kind)
            if not (lam * d_x_tx <= d_xy):
                continue
            lhs = dist(images[i], images[j], kind)
            if lhs > d_xy + eps:
                return False, (tuple(x), tuple(y), lhs, d_xy)
    return True, None


def oracle_condition_b(fn, points, gamma, mu, eps, kind=NormKind.L2):
    """Two-parameter condition, transcribed premise and conclusion. A zero
    gamma or mu drops its term: the display's 0*||.|| is 0 even where the
    distance overflows to inf, and 0.0 * inf would be NaN."""
    images = [fn(p) for p in points]
    for i, x in enumerate(points):
        d_x_tx = dist(x, images[i], kind)
        for j, y in enumerate(points):
            d_xy = dist(x, y, kind)
            d_y_ty = dist(y, images[j], kind)
            if not ((gamma * d_x_tx if gamma else 0.0) <= d_xy + (mu * d_y_ty if mu else 0.0)):
                continue
            lhs = dist(images[i], images[j], kind)
            d_x_ty = dist(x, images[j], kind)
            d_y_tx = dist(y, images[i], kind)
            rhs = (1.0 - gamma) * d_xy + (mu * (d_x_ty + d_y_tx) if mu else 0.0)
            if lhs > rhs + eps:
                return False, (tuple(x), tuple(y), lhs, rhs)
    return True, None


def oracle_sweep(fn, points, pairs, eps, kind=NormKind.L2):
    """Status rows for (gamma, mu) pairs: 'skipped' | 'pass' | 'fail'."""
    rows = []
    for gamma, mu in pairs:
        if 2.0 * mu > gamma:
            rows.append((gamma, mu, "skipped", None))
            continue
        passed, witness = oracle_condition_b(fn, points, gamma, mu, eps, kind)
        rows.append((gamma, mu, "pass" if passed else "fail", witness))
    return rows


def oracle_quasi_nonexpansive(fn, points, fixed_points, eps, kind=NormKind.L2):
    for x in points:
        tx = fn(x)
        for z in fixed_points:
            lhs = dist(tx, z, kind)
            rhs = dist(x, z, kind)
            if lhs > rhs + eps:
                return False, (tuple(x), tuple(z), lhs, rhs)
    return True, None


# ---------------------------------------------------------------------------
# schedule oracles: sequential block walk emitting the whole prefix, and the
# tail proxies taken one value at a time
# ---------------------------------------------------------------------------


def reference_tent(peak, first_block_length, growth, count):
    """First `count` values of the tent sequence, emitted block by block."""
    values = []
    j = 0
    while len(values) < count:
        length = math.ceil(first_block_length * growth ** j)
        half = math.ceil(length / 2)
        for t in range(length):
            values.append(peak * min(t, length - t) / half)
            if len(values) == count:
                return values
        j += 1
    return values


def reference_decay(scale, rate, count):
    return [min(0.5, scale / (n + 1) ** rate) for n in range(count)]


def reference_schedule_report(s, horizon):
    """verify_schedule as one comparison loop over the values, one at a time."""
    horizon = int(horizon)
    if horizon < 10:
        raise PreconditionError(f"verify_schedule needs horizon >= 10, got {horizon}")
    window_start = horizon - horizon // 4
    lo, hi, step, prev = math.inf, -math.inf, 0.0, None
    for n, v in enumerate(s.values(window_start, horizon + 1), window_start):
        if not (0.0 <= v <= 0.5):
            raise ContractViolation(
                f"schedule emitted {v} outside [0, 1/2] at step {n}")
        if prev is not None:   # prev runs over the window, v one step ahead
            lo = prev if prev < lo else lo
            hi = prev if prev > hi else hi
            if abs(v - prev) > step:
                step = abs(v - prev)
        prev = v
    return ScheduleReport(
        schedule=s.to_dict(), horizon=horizon, window_start=window_start,
        liminf_proxy=lo, limsup_proxy=hi, diff_proxy=step)


# ---------------------------------------------------------------------------
# iteration oracle: scalar recurrence, coordinate by coordinate
# ---------------------------------------------------------------------------


def reference_averaged_run(fns, weights_of, lam, x0, max_iters, residual_tol,
                           kind=NormKind.L2):
    """Replay of the averaged scheme with plain Python arithmetic.

    weights_of(n) returns the blend weights for step n. Returns the list of
    iterates (tuples) and the stop step. The recurrence is transcribed, not
    imported: w = sum_k c_k*T_k(x), then x <- lam*w + (1-lam)*x.
    """
    x = [float(c) for c in x0]
    iterates = [tuple(x)]
    n = 0
    while True:
        images = [fn(np.array(x, dtype=float)) for fn in fns]
        weights = weights_of(n)
        w = [0.0] * len(x)
        for c, img in zip(weights, images):
            for k in range(len(x)):
                w[k] += c * float(img[k])
        residual = dist(np.array(w), np.array(x), kind)
        if residual <= residual_tol or n >= max_iters:
            return iterates, n, residual
        x = [lam * w[k] + (1.0 - lam) * x[k] for k in range(len(x))]
        iterates.append(tuple(x))
        n += 1


def reference_records(fns, weights_of, alphas, lam, x0, max_iters, residual_tol,
                      record_every, decimation_start, fixed_points, kind=NormKind.L2):
    """The records of the averaged scheme, one scalar `dist` per distance.

    Steps below decimation_start are recorded every record_every steps, later
    ones every 10 * record_every steps, and the last step always. Each record
    is (step, x, residual, map_residuals, alpha, fp_distances), as the
    fields of a TraceStep; weights_of(a) gives the weights at alpha a, and
    zero weights are left out of the blend, as the engines document.
    """
    x = [float(c) for c in x0]
    records = []
    for n, a in enumerate(alphas):
        images = [[float(v) for v in np.atleast_1d(fn(np.array(x)))] for fn in fns]
        w = None
        for c, img in zip(weights_of(a), images):
            if c != 0.0:
                terms = [c * v for v in img]
                w = terms if w is None else [p + t for p, t in zip(w, terms)]
        residual = dist(np.array(w), np.array(x), kind)
        last = residual <= residual_tol or n >= max_iters
        stride = record_every if n < decimation_start else 10 * record_every
        if n % stride == 0 or last:
            records.append((n, tuple(x), residual,
                            tuple(dist(np.array(img), np.array(x), kind) for img in images),
                            a, tuple(dist(np.array(x), np.asarray(z), kind)
                                     for z in fixed_points)))
        if last:
            return records
        x = [lam * p + (1.0 - lam) * q for p, q in zip(w, x)]
    raise AssertionError("the alphas ended before the run")


def grid_points_1d(lo, hi, resolution):
    """The package's 1-d grid convention, rebuilt with np.linspace."""
    return [np.array([v]) for v in np.linspace(lo, hi, resolution)]


# ---------------------------------------------------------------------------
# sample oracle: the list of separately frozen copies that `sample` returned
# before it returned one array, kept as it was
# ---------------------------------------------------------------------------


def reference_sample(domain: Domain, plan: SamplePlan) -> list[Vector]:
    """Deterministic point sample of `domain` according to `plan`.

    Grid order is lexicographic with the first axis slowest; every produced
    point satisfies domain.contains. Grid sampling of a ball keeps the
    lattice points of the bounding box that fall inside the ball and raises
    if none do (increase the resolution). A random plan on an l1 ball is
    drawn by rejection up to d = 3 and exactly above (`_L1_REJECTION_MAX_D`).
    """
    d = domain.dimension
    if plan.mode == "grid":
        lo, up = domain.bounding_box()
        res = _axis_resolutions(plan, d)
        axes = [np.linspace(lo[i], up[i], res[i]) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        if domain.shape == "ball":
            pts = pts[_norm_last_axis(pts - domain.center, domain.norm_kind)
                      <= domain.radius]
            if pts.shape[0] == 0:
                raise InvalidInputError(
                    "grid too coarse for ball domain: no lattice point falls "
                    "inside; increase the resolution")
        return [_freeze(p.copy()) for p in pts]

    rng = np.random.default_rng(plan.seed)
    if domain.shape == "box":
        lo, up = domain.bounding_box()
        pts = rng.uniform(lo, up, size=(plan.count, d))
    else:
        c = np.array(domain.center)
        if domain.norm_kind == NormKind.L2:
            raw = rng.standard_normal((plan.count, d))
            norms = _norm_last_axis(raw, NormKind.L2)
            norms[norms == 0.0] = 1.0
            unit = raw / norms[:, None]
            radii = domain.radius * rng.random(plan.count) ** (1.0 / d)
            pts = c + unit * radii[:, None]
        elif domain.norm_kind == NormKind.L1 and d > _L1_REJECTION_MAX_D:
            # exact: Y iid Laplace, W ~ Exp(1), c + r*Y/(||Y||_1 + W) is uniform
            # on the l1 ball (Barthe, Guedon, Mendelson & Naor, Ann. Probab. 2005)
            y = rng.laplace(size=(plan.count, d))
            s = _norm_last_axis(y, NormKind.L1) + rng.exponential(size=plan.count)
            pts = c + domain.radius * (y / s[:, None])
        else:
            # l1/linf balls: rejection-sample the bounding box, `count` per batch.
            lo, up = domain.bounding_box()
            pts = np.empty((0, d))
            while len(pts) < plan.count:
                cand = rng.uniform(lo, up, size=(plan.count, d))
                pts = np.concatenate(
                    [pts, cand[_norm_last_axis(cand - c, domain.norm_kind) <= domain.radius]])
            pts = pts[:plan.count]
    return [_freeze(p.copy()) for p in pts]



def oracle_prop1(fn, points, theta, mu, eps, kind=NormKind.L2):
    """(passed, witness) where witness = (x, y, lhs, rhs, part): the first
    point failing part (i), else the first pair failing part (ii) or (iii),
    (ii) first on one pair. (ii) fails where both its alternatives fail;
    (iii) has its ||x - Ty|| term moved left."""
    images = [fn(p) for p in points]
    for x, tx in zip(points, images):
        lhs, rhs = dist(tx, fn(tx), kind), dist(x, tx, kind)
        if lhs > rhs + eps:
            return False, (tuple(x), None, lhs, rhs, "part (i)")
    for i, x in enumerate(points):
        d_x_tx = dist(x, images[i], kind)
        d_tx_ttx = dist(images[i], fn(images[i]), kind)
        for j, y in enumerate(points):
            d_xy = dist(x, y, kind)
            d_tx_y = dist(images[i], y, kind)
            if theta / 2 * d_x_tx > d_xy + eps and theta / 2 * d_tx_ttx > d_tx_y + eps:
                return False, (tuple(x), tuple(y), theta / 2 * d_x_tx, d_xy, "part (ii)")
            lhs = (1.0 - mu) * dist(x, images[j], kind)
            rhs = ((3.0 - theta) * d_x_tx + (1.0 - theta / 2) * d_xy
                   + mu * (2.0 * d_x_tx + d_tx_y + 2.0 * d_tx_ttx))
            if lhs > rhs + eps:
                return False, (tuple(x), tuple(y), lhs, rhs, "part (iii)")
    return True, None
