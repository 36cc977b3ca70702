"""Empirical checks of nonexpansiveness-type conditions on sampled pairs.

Every check scans the ordered pairs of a deterministic sample (x = y
included) and reports a Verdict. Premises are evaluated without slack; the
concluding inequality gets the plan's additive epsilon, so a fail witness
always violates its inequality by more than epsilon and can be replayed. A
pass only ever means "no counterexample found on this plan".

Four of the checks are one symmetric condition, which `_pair` builds from
a premise (gamma, mu) and a bound (a, b):

    gamma*||x - Tx|| <= ||x - y|| + mu*||y - Ty||
        implies  ||Tx - Ty|| <= a*||x - y|| + b*(||x - Ty|| + ||y - Tx||)

Nonexpansiveness is the premise (0, 0) with the bound (1, 0), condition
C_lambda (lambda, 0) with (1, 0), condition (C) its lambda = 1/2, and the
two-parameter condition of `check_condition_B` (gamma, mu) with
(1 - gamma, mu), where 0 <= gamma <= 1, 0 <= mu <= 1/2 and 2*mu <= gamma.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ContractViolation, PreconditionError
from .mappings import Mapping, _evaluate_rows
from .vecspace import SamplePlan, _norm_last_axis, _read_numbers, pairwise_norm, sample
from .verdicts import Verdict, Witness

__all__ = [
    "BGammaMu", "Verdict", "Witness",
    "check_nonexpansive", "check_quasi_nonexpansive",
    "check_condition_C", "check_condition_C_lambda", "check_condition_B",
    "check_prop1", "check_lemma3",
    "sweep_condition_B", "SweepCell", "SweepTable",
]


def _within(name: str, v: float, hi: float) -> float:
    """v, once checked to lie in [0, hi]."""
    if not (0.0 <= v <= hi):
        raise ContractViolation(f"{name} must lie in [0, {hi:g}], got {v}")
    return v


@dataclass(frozen=True)
class BGammaMu:
    """Parameter pair for the two-parameter condition; 2*mu <= gamma."""

    gamma: float
    mu: float

    def __post_init__(self):
        _read_numbers(self)
        _within("gamma", self.gamma, 1.0)
        _within("mu", self.mu, 0.5)
        if 2.0 * self.mu > self.gamma:
            raise ContractViolation(
                f"need 2*mu <= gamma, got gamma={self.gamma}, mu={self.mu}")


#: Sample rows per scan tile: a tile's distance arrays hold _TILE * N entries
#: each, so scan memory grows linearly in N, and at 16 rows a tile's (16, N)
#: arrays, 256 KB each at N = 2*10^3, stay together in a core's 2 MB L2 cache.
_TILE = 16


class _Check(NamedTuple):
    """One condition as `_scan` runs it. `parts` is described at `_scan`.
    A bound (a, b), declared where the check is described and never
    inferred, says that the check has one part, concluding TT <= a*xx +
    b*(xT+Tx), and is symmetric: that conclusion's two sides at the pair
    (y, x) equal those at (x, y) bit for bit."""

    label: str
    params: tuple
    cols: str
    parts: Callable
    bound: Optional[tuple] = None


class _Tile:
    """Distances from the sample rows `rows` to the upper triangle's
    columns: the sample points and images from rows.start on, and every
    known fixed point. Key "ab" holds ||a_i - b_j||, where x is a sample
    point, T its image and z a known fixed point, and "xT+Tx" the sum of
    two; each is computed into the scan's buffers when a check first asks
    for it."""

    def __init__(self, pts: dict, rows: slice, kind, bufs: dict):
        self.pts, self.rows, self.kind, self.bufs = pts, rows, kind, bufs
        self.col0 = {"x": rows.start, "T": rows.start, "z": 0}   # pts[c][col0[c]] is column 0
        self.made: dict[str, np.ndarray] = {}

    def out(self, name: str, cols: str = "x") -> np.ndarray:
        """The scan's buffer (name, cols) shaped as this tile's rows by its
        columns, holding whatever the last tile left there; made on first
        use for the first, largest tile, of bools for "viol", else floats."""
        shape = (self.rows.stop - self.rows.start, len(self.pts[cols]) - self.col0[cols])
        try:
            buf = self.bufs[name, cols]
        except KeyError:
            size = min(_TILE, len(self.pts["x"])) * len(self.pts[cols])
            buf = self.bufs[name, cols] = np.empty(size, bool if name == "viol" else float)
        return buf[:shape[0] * shape[1]].reshape(shape)

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self.made:
            out = self.out(key, key[-1])
            self.made[key] = (np.add(self["xT"], self["Tx"], out=out) if key == "xT+Tx"
                              else pairwise_norm(self.pts[key[0]][self.rows],
                                                 self.pts[key[1]][self.col0[key[1]]:],
                                                 self.kind, out=out))
        return self.made[key]


def _images(T: Mapping, plan: SamplePlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample points X, their images TX and the displacements ||x_i - Tx_i||."""
    X = sample(T.domain, plan)
    TX = _evaluate_rows(T, X)
    return X, TX, _norm_last_axis(X, T.domain.norm_kind, TX)


def _scan(T: Mapping, plan: SamplePlan, checks: list[_Check], images) -> list[Verdict]:
    """Run every check over the ordered (x_i, c_j) pairs of the sample
    points x_i and the check's columns c_j: the sample itself ("x") or T's
    known fixed points ("z"). `images` is `_images(T, plan)`.

    parts(tile, flip) gives a check's parts on the tile's pairs as
    (premise, lhs, rhs, detail): the pair (x, y) violates a part when lhs >
    rhs + epsilon and premise(||x - Tx||, ||y - Ty||, ||x - y||) holds,
    each argument broadcast to the tile (a None premise always holds). A
    premise is evaluated only on a tile where the conclusion fails. A part
    may write into the tile's "tmp" buffer, which the comparison then
    reuses. Where parts first fail on the same pair, the earlier part is
    the witness.

    On each tile the checks with a bound run first, in ascending (a, b),
    and a check is skipped where one compared clean on the tile has a
    bound no larger in both a and b: xx is finite and xT+Tx in [0, inf],
    so rounding keeps the skipped check's right side at least the clean
    one's, entry by entry, and it has no violation either.

    The scan walks row tiles [lo, hi) in order over the tile's columns.
    On the sample's own columns, an entry (i, j) stands for the pair
    (x_i, x_j) and, flipped, for (x_j, x_i); a check's parts(tile, True)
    give the flipped pairs' sides, and a check with a bound, being
    symmetric, compares its conclusion once, from parts(tile, False), and
    evaluates its premise in both orientations. Each check keeps its
    row-major first candidate pair. After tile [lo, hi) every pair in a row below hi has been seen,
    so a check whose candidate lies in such a row has its first witness
    and retires; the scan stops once every check has retired.
    """
    X, TX, disp = images
    pts = {"x": X, "T": TX, "z": np.reshape(T.known_fixed_points, (-1, X.shape[1]))}
    bufs = {}   # (name, cols) -> the buffer that every tile reuses
    best: dict[int, tuple] = {}   # check index -> (row, column, part, witness)
    order = sorted(range(len(checks)), key=lambda k: (checks[k].bound is None,
                                                      checks[k].bound or ()))
    for lo in range(0, len(X), _TILE):
        live = [k for k in order if k not in best or best[k][0] >= lo]
        if not live:
            break
        tile = _Tile(pts, slice(lo, min(lo + _TILE, len(X))), T.domain.norm_kind, bufs)
        args = (disp[tile.rows, None], disp[None, lo:])   # the premise's, unflipped
        clean = []   # the bounds of the conclusions compared clean on this tile
        for k in live:
            c = checks[k]
            if c.bound and any(a <= c.bound[0] and b <= c.bound[1] for a, b in clean):
                continue
            flips = (False, True) if c.cols == "x" else (False,)
            for group in [flips] if c.bound else [(f,) for f in flips]:   # one comparison each
                for part, (premise, lhs, rhs, detail) in enumerate(c.parts(tile, group[0])):
                    viol = np.greater(lhs, np.add(rhs, plan.epsilon, out=tile.out("tmp", c.cols)),
                                      out=tile.out("viol", c.cols))
                    if not viol.any():
                        if c.bound:   # its one comparison on this tile
                            clean.append(c.bound)
                        continue
                    for flip in group:
                        orient = np.transpose if flip else np.asarray
                        hits = orient(viol if premise is None else
                                      viol & premise(*args[::-1 if flip else 1], tile["xx"]))
                        i, j = divmod(int(np.argmax(hits)), hits.shape[1])   # row-major first
                        at = (lo + i, tile.col0[c.cols] + j, part)
                        if hits[i, j] and (k not in best or at < best[k][:3]):
                            # read now: the next part may overwrite the buffers
                            best[k] = (*at, Witness.at(
                                X[at[0]], lhs=orient(lhs)[i, j], rhs=orient(rhs)[i, j],
                                y=pts[c.cols][at[1]], detail=detail))
    return [Verdict(condition_label=c.label, passed=k not in best,
                    checked_pairs=len(X) * len(pts[c.cols]),
                    witness=best[k][-1] if k in best else None, plan=plan, params=c.params)
            for k, c in enumerate(checks)]


def _checks(T: Mapping, plan: SamplePlan, requests) -> list[Verdict]:
    """One Verdict per request, in order, from one `_scan` of one sample.

    A request is prepare(T, plan, images) -> (checks, finish): images()
    is `_images(T, plan)`, computed once, and finish(the checks' verdicts)
    is the request's Verdict. Each request is prepared, then the images
    made, before the next, so errors come in the one-by-one order. A check
    asked for twice, with the same (label, params, cols), is scanned once.
    """
    images = functools.cache(lambda: _images(T, plan))
    unique = {}   # repr keeps gamma = -0.0 apart from 0.0, as reports do
    prepared = []
    for request in requests:
        checks, finish = request(T, plan, images)
        if not T.known_fixed_points and any(c.cols == "z" for c in checks):
            raise PreconditionError(
                f"mapping {T.label!r} has no known fixed points to check against")
        keys = [repr(c[:3]) for c in checks]
        unique.update({k: c for k, c in zip(keys, checks) if k not in unique})
        prepared.append((keys, finish))
        images()
    with np.errstate(all="ignore"):   # pairwise_norm and the scan's arithmetic: silent, as dist is
        scanned = _scan(T, plan, list(unique.values()), images())
    verdicts = dict(zip(unique, scanned))
    out = []
    for keys, finish in prepared:   # a loop, so a warning's stacklevel is fixed
        out.append(finish([verdicts[k] for k in keys]))
    return out


# Each check is described once, by a private function that makes its
# request; both its public check_* function and `_CHECKS` use it.

def _one(check):
    """The request that runs `check` and keeps its verdict."""
    return lambda T, plan, images: ([check], lambda vs: vs[0])


def _pair(label: str, params: tuple, premise: tuple, bound: tuple) -> _Check:
    """The module docstring's condition for premise (gamma, mu) and bound
    (a, b). A zero gamma, mu or b drops its term: 0*||.|| is 0 even where a
    distance overflows to inf, where 0.0 * inf would be NaN, so gamma = 0
    makes the premise vacuous. The bound (1, 0) reads ||x - y|| itself, the
    bits of 1.0 * ||x - y||."""
    (gamma, mu), (a, b) = premise, bound
    scaled = (a, b) != (1.0, 0.0)

    def holds(dx, dy, xx):
        return gamma * dx <= (xx + mu * dy if mu else xx)

    def parts(t, flip):
        rhs = t["xx"]
        if scaled:
            rhs = np.multiply(a, rhs, out=t.out("rhs"))
            if b:
                rhs += np.multiply(b, t["xT+Tx"], out=t.out("tmp"))
        return [(holds if gamma else None, t["TT"], rhs, None)]
    return _Check(label, params, "x", parts, bound)


def _nonexpansive():
    return _one(_pair("nonexpansive", (), (0.0, 0.0), (1.0, 0.0)))


def check_nonexpansive(T: Mapping, plan: SamplePlan) -> Verdict:
    """||Tx - Ty|| <= ||x - y|| + epsilon over all ordered sample pairs."""
    return _checks(T, plan, [_nonexpansive()])[0]


def _quasi_nonexpansive(label: str = "quasi_nonexpansive", params: tuple = ()):
    return _one(_Check(label, params, "z", lambda t, flip: [(None, t["Tz"], t["xz"], None)]))


def check_quasi_nonexpansive(T: Mapping, plan: SamplePlan) -> Verdict:
    """||Tx - z|| <= ||x - z|| + epsilon for every known fixed point z.

    Requires a nonempty known_fixed_points list.
    """
    return _checks(T, plan, [_quasi_nonexpansive()])[0]


def _lemma3(p: BGammaMu):
    return _quasi_nonexpansive("fixed_point_shrink", (("gamma", p.gamma), ("mu", p.mu)))


def check_lemma3(T: Mapping, p: BGammaMu, plan: SamplePlan) -> Verdict:
    """Fixed points never repel images: ||z - Tx|| <= ||z - x|| + epsilon.

    Same inequality as the quasi-nonexpansive check (norms are symmetric);
    kept as its own label because reports treat it as a separate property.
    The scan itself does not use (gamma, mu) -- the property is asserted
    for maps satisfying the two-parameter condition, so the hypothesis
    parameters are recorded in the verdict for the report.
    """
    return _checks(T, plan, [_lemma3(p)])[0]


def _condition_c(lam: float, label: str = "condition_C_lambda"):
    """condition_C_lambda, or under another label with no parameters."""
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise ContractViolation(f"lambda must lie in (0, 1), got {lam}")
    params = (("lambda", lam),) if label == "condition_C_lambda" else ()
    return _one(_pair(label, params, (lam, 0.0), (1.0, 0.0)))


def check_condition_C_lambda(T: Mapping, lam: float, plan: SamplePlan) -> Verdict:
    """lam*||x - Tx|| <= ||x - y||  implies  ||Tx - Ty|| <= ||x - y|| + eps.

    lam must lie strictly inside (0, 1). The premise carries no slack.
    """
    return _checks(T, plan, [_condition_c(lam)])[0]


def check_condition_C(T: Mapping, plan: SamplePlan) -> Verdict:
    """The lam = 1/2 instance, under its own label."""
    return _checks(T, plan, [_condition_c(0.5, "condition_C")])[0]


def _condition_b(p: BGammaMu) -> _Check:
    """The two-parameter condition as a check for `_scan`."""
    return _pair("condition_B", (("gamma", p.gamma), ("mu", p.mu)), (p.gamma, p.mu),
                 (1.0 - p.gamma, p.mu))


def check_condition_B(T: Mapping, p: BGammaMu, plan: SamplePlan) -> Verdict:
    """The two-parameter condition; see the module docstring for the display."""
    return _checks(T, plan, [_one(_condition_b(p))])[0]


def _prop1(theta: float, p: BGammaMu):
    """check_prop1's request: its finish step warns when the condition_B
    check fails and gives part (i)'s witness, if any, without a pair scan."""
    theta = _within("theta", float(theta), 1.0)
    params = (("theta", theta), ("gamma", p.gamma), ("mu", p.mu))
    half = theta / 2.0

    def prepare(T, plan, images):
        X, TX, dxTx = images()
        TTX = _evaluate_rows(T, TX)
        dTxTtx = _norm_last_axis(TX, T.domain.norm_kind, TTX)
        eps = plan.epsilon
        viol_i = dTxTtx > dxTx + eps
        i = int(np.argmax(viol_i))   # first point violating part (i)

        def parts(t, flip):
            # the pair (x, y) is (x_i, x_j), or flipped (x_j, x_i): x's own
            # values are the rows' or the columns', and ||x - Ty||, ||Tx - y||
            # are xT and Tx or, flipped, Tx and xT, the same bits transposed
            ix = (None, slice(t.rows.start, None)) if flip else (t.rows, None)
            d, dd = dxTx[ix], dTxTtx[ix]
            x_Ty, Tx_y = (t["Tx"], t["xT"]) if flip else (t["xT"], t["Tx"])
            # (iii)'s sides, operation for operation: (1 - mu)*||x - Ty|| and
            # (3 - theta)*d + (1 - theta/2)*xx + mu*(2*d + ||Tx - y|| + 2*dd)
            rhs = np.multiply(1.0 - half, t["xx"], out=t.out("rhs"))
            rhs = np.add((3.0 - theta) * d, rhs, out=rhs)
            mu_terms = np.add(2.0 * d, Tx_y, out=t.out("tmp"))
            mu_terms += 2.0 * dd
            rhs += np.multiply(p.mu, mu_terms, out=mu_terms)
            # (ii) fails where both alternatives fail: the first as the
            # inequality, the second as the premise, read from this tile
            return [(lambda *_: half * dd > Tx_y + eps,
                     np.broadcast_to(half * d, t["xx"].shape), t["xx"], "part (ii)"),
                    (None, np.multiply(1.0 - p.mu, x_Ty, out=t.out("lhs")), rhs,
                     "part (iii)")]

        def finish(verdicts):
            pre, *rest = verdicts
            if not pre.passed:   # stacklevel 4: the caller of check_prop1
                warnings.warn(
                    f"condition_B(gamma={p.gamma}, mu={p.mu}) fails for {T.label!r} "
                    "on this plan; the property check may fail too", stacklevel=4)
            if rest:
                return rest[0]
            return Verdict(condition_label="prop1", passed=False,
                           checked_pairs=len(X) ** 2,
                           witness=Witness.at(X[i], lhs=dTxTtx[i], rhs=dxTx[i],
                                              detail="part (i)"),
                           plan=plan, params=params)

        return [_condition_b(p)] + (
            [] if viol_i[i] else [_Check("prop1", params, "x", parts)]), finish
    return prepare


def check_prop1(T: Mapping, theta: float, p: BGammaMu, plan: SamplePlan) -> Verdict:
    """Three structural consequences of the two-parameter condition.

    Checked over the plan's samples with epsilon slack on each right side:

      (i)   ||Tx - TTx|| <= ||x - Tx||
      (ii)  (theta/2)*||x - Tx|| <= ||x - y||
            or (theta/2)*||Tx - TTx|| <= ||Tx - y||
      (iii) (1 - mu)*||x - Ty|| <= (3 - theta)*||x - Tx||
            + (1 - theta/2)*||x - y||
            + mu*(2*||x - Tx|| + ||y - Tx|| + 2*||Tx - TTx||)

    (iii) is the displayed inequality with its right-hand ||x - Ty|| term
    moved left (coefficient 1 - mu, fine since mu <= 1/2). theta is applied
    as given and is not forced to track gamma. Part (i), a per-point check,
    takes precedence over (ii) and (iii). If the underlying condition check
    fails on this plan a warning is emitted but the check proceeds.
    """
    return _checks(T, plan, [_prop1(theta, p)])[0]


#: Every per-map check a config may request, in the order error messages
#: list them: name -> (request maker, the names of its parameters in order).
_CHECKS = {
    "nonexpansive": (_nonexpansive, ()),
    "quasi_nonexpansive": (_quasi_nonexpansive, ()),
    "fixed_point_shrink": (lambda g, m: _lemma3(BGammaMu(g, m)), ("gamma", "mu")),
    "condition_C": (lambda: _condition_c(0.5, "condition_C"), ()),
    "condition_C_lambda": (_condition_c, ("lambda",)),
    "condition_B": (lambda g, m: _one(_condition_b(BGammaMu(g, m))), ("gamma", "mu")),
    "prop1": (lambda theta, g, m: _prop1(theta, BGammaMu(g, m)), ("theta", "gamma", "mu")),
}


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    gamma: float
    mu: float
    status: str  # "pass" | "fail" | "skipped"
    verdict: Optional[Verdict] = None


@dataclass(frozen=True)
class SweepTable:
    mapping_label: str
    cells: tuple[SweepCell, ...]
    plan: SamplePlan
    pairing: str

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.cells)

    def statuses(self) -> list[str]:
        return [c.status for c in self.cells]

    def to_rows(self) -> list[dict]:
        rows = []
        for c in self.cells:
            row = {"gamma": c.gamma, "mu": c.mu, "status": c.status}
            w = c.verdict.witness if c.verdict else None
            row["witness_x"] = list(w.x) if w else None
            row["witness_y"] = list(w.y) if w and w.y is not None else None
            row["lhs"] = w.lhs if w else None
            row["rhs"] = w.rhs if w else None
            rows.append(row)
        return rows


def sweep_condition_B(T: Mapping, gamma_grid: Sequence[float],
                      mu_grid: Sequence[float], plan: SamplePlan,
                      pairing: str = "cross") -> SweepTable:
    """Feasibility table of the two-parameter condition over parameter grids.

    pairing="cross" scans the full gamma x mu product row-major;
    pairing="zip" scans matched (gamma_i, mu_i) pairs. Cells with
    2*mu > gamma are recorded as "skipped", never pass/fail. The admissible
    cells run as the checks of one scan, so each tile's distances are shared
    by all cells and a single-cell sweep equals check_condition_B for that cell.
    """
    gammas = [_within("sweep gamma", float(g), 1.0) for g in gamma_grid]
    mus = [_within("sweep mu", float(m), 0.5) for m in mu_grid]
    if pairing not in ("cross", "zip"):
        raise ContractViolation(f"unknown pairing {pairing!r}")
    if pairing == "zip" and len(gammas) != len(mus):
        raise ContractViolation(
            f"zip pairing needs equal grid lengths, got {len(gammas)} and {len(mus)}")
    pairs = [(g, m) for g in gammas for m in mus] if pairing == "cross" \
        else list(zip(gammas, mus))
    cells = [SweepCell(gamma=g, mu=m, status="skipped") for g, m in pairs]
    scanned = [k for k, (g, m) in enumerate(pairs) if 2.0 * m <= g]
    verdicts = _checks(T, plan, [_one(_condition_b(BGammaMu(*pairs[k]))) for k in scanned])
    for k, v in zip(scanned, verdicts):
        cells[k] = replace(cells[k], status="pass" if v.passed else "fail", verdict=v)
    return SweepTable(mapping_label=T.label, cells=tuple(cells), plan=plan,
                      pairing=pairing)
