"""Empirical checks of nonexpansiveness-type conditions on sampled pairs.

Every check scans the ordered pairs of a deterministic sample (x = y
included) and reports a Verdict. Premises are evaluated without slack; the
concluding inequality gets the plan's additive epsilon, so a fail witness
always violates its inequality by more than epsilon and can be replayed. A
pass only ever means "no counterexample found on this plan".

The two-parameter condition checked by `check_condition_B` is

    gamma*||x - Tx|| <= ||x - y|| + mu*||y - Ty||
        implies  ||Tx - Ty|| <= (1 - gamma)*||x - y|| + mu*(||x - Ty|| + ||y - Tx||)

with 0 <= gamma <= 1, 0 <= mu <= 1/2 and 2*mu <= gamma. Setting gamma = mu
= 0 makes the premise vacuous and the conclusion plain nonexpansiveness,
and the verdicts agree exactly (same scan, bitwise-identical arithmetic).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation, PreconditionError
from .mappings import Mapping, evaluate
from .vecspace import SamplePlan, dist, pairwise_norm, sample
from .verdicts import Verdict, Witness

__all__ = [
    "BGammaMu", "Verdict", "Witness",
    "check_nonexpansive", "check_quasi_nonexpansive",
    "check_condition_C", "check_condition_C_lambda", "check_condition_B",
    "check_prop1", "check_lemma3",
    "sweep_condition_B", "SweepCell", "SweepTable",
]


@dataclass(frozen=True)
class BGammaMu:
    """Parameter pair for the two-parameter condition; 2*mu <= gamma."""

    gamma: float
    mu: float

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ContractViolation(f"gamma must lie in [0, 1], got {self.gamma}")
        if not (0.0 <= self.mu <= 0.5):
            raise ContractViolation(f"mu must lie in [0, 1/2], got {self.mu}")
        if 2.0 * self.mu > self.gamma:
            raise ContractViolation(
                f"need 2*mu <= gamma, got gamma={self.gamma}, mu={self.mu}")


@dataclass(frozen=True)
class _PairData:
    """Per-sample arrays shared by the pairwise checks."""

    X: np.ndarray        # (N, d) sample points
    TX: np.ndarray       # (N, d) images
    dxy: np.ndarray      # (N, N) ||x_i - x_j||
    dTxTy: np.ndarray    # (N, N) ||Tx_i - Tx_j||
    dxTx: np.ndarray     # (N,)   ||x_i - Tx_i||
    M: np.ndarray        # (N, N) ||x_i - Tx_j||


def _images(T: Mapping, plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    pts = sample(T.domain, plan)
    return np.stack(pts), np.stack([evaluate(T, p) for p in pts])


def _pair_data(T: Mapping, plan: SamplePlan) -> _PairData:
    X, TX = _images(T, plan)
    kind = T.domain.norm_kind
    dxy = pairwise_norm(X, X, kind)
    dTxTy = pairwise_norm(TX, TX, kind)
    M = pairwise_norm(X, TX, kind)
    dxTx = np.diagonal(M).copy()
    return _PairData(X=X, TX=TX, dxy=dxy, dTxTy=dTxTy, dxTx=dxTx, M=M)


def _pair_verdict(label: str, rows: np.ndarray, cols: np.ndarray,
                  plan: SamplePlan, *parts,
                  params: tuple[tuple[str, float], ...] = ()) -> Verdict:
    """Scan every (rows[i], cols[j]) pair; report the first row-major violation.

    Each part is (premise, lhs, rhs, detail) over the pairs: pair (i, j)
    violates it when premise[i, j] holds (a None premise always holds) and
    lhs[i, j] > rhs[i, j] + epsilon. Where parts first fail on the same
    pair, the earlier part is the witness.
    """
    hit = None
    for premise, lhs, rhs, detail in parts:
        viol = lhs > rhs + plan.epsilon
        if premise is not None:
            viol &= premise
        flat = int(np.argmax(viol))   # first True in row-major order
        if viol.flat[flat] and (hit is None or flat < hit[0]):
            hit = (flat, lhs, rhs, detail)
    witness = None
    if hit is not None:
        flat, lhs, rhs, detail = hit
        i, j = divmod(flat, len(cols))
        witness = Witness.at(rows[i], lhs=lhs[i, j], rhs=rhs[i, j], y=cols[j],
                             detail=detail)
    return Verdict(condition_label=label, passed=witness is None,
                   checked_pairs=len(rows) * len(cols), witness=witness,
                   plan=plan, params=params)


def check_nonexpansive(T: Mapping, plan: SamplePlan) -> Verdict:
    """||Tx - Ty|| <= ||x - y|| + epsilon over all ordered sample pairs."""
    data = _pair_data(T, plan)
    return _pair_verdict("nonexpansive", data.X, data.X, plan,
                         (None, data.dTxTy, data.dxy, None))


def check_quasi_nonexpansive(T: Mapping, plan: SamplePlan) -> Verdict:
    """||Tx - z|| <= ||x - z|| + epsilon for every known fixed point z.

    Requires a nonempty known_fixed_points list.
    """
    if not T.known_fixed_points:
        raise PreconditionError(
            f"mapping {T.label!r} has no known fixed points to check against")
    X, TX = _images(T, plan)
    Z = np.stack(T.known_fixed_points)
    kind = T.domain.norm_kind
    lhs = pairwise_norm(TX, Z, kind)   # ||Tx_i - z_k||
    rhs = pairwise_norm(X, Z, kind)    # ||x_i - z_k||
    return _pair_verdict("quasi_nonexpansive", X, Z, plan, (None, lhs, rhs, None))


def check_lemma3(T: Mapping, p: BGammaMu, plan: SamplePlan) -> Verdict:
    """Fixed points never repel images: ||z - Tx|| <= ||z - x|| + epsilon.

    Same inequality as the quasi-nonexpansive check (norms are symmetric);
    kept as its own label because reports treat it as a separate property.
    The scan itself does not use (gamma, mu) -- the property is asserted
    for maps satisfying the two-parameter condition, so the hypothesis
    parameters are recorded in the verdict for the report.
    """
    return replace(check_quasi_nonexpansive(T, plan),
                   condition_label="fixed_point_shrink",
                   params=(("gamma", p.gamma), ("mu", p.mu)))


def check_condition_C_lambda(T: Mapping, lam: float, plan: SamplePlan) -> Verdict:
    """lam*||x - Tx|| <= ||x - y||  implies  ||Tx - Ty|| <= ||x - y|| + eps.

    lam must lie strictly inside (0, 1). The premise carries no slack.
    """
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise ContractViolation(f"lambda must lie in (0, 1), got {lam}")
    data = _pair_data(T, plan)
    premise = lam * data.dxTx[:, None] <= data.dxy
    return _pair_verdict("condition_C_lambda", data.X, data.X, plan,
                         (premise, data.dTxTy, data.dxy, None),
                         params=(("lambda", lam),))


def check_condition_C(T: Mapping, plan: SamplePlan) -> Verdict:
    """The lam = 1/2 instance, under its own label."""
    return replace(check_condition_C_lambda(T, 0.5, plan),
                   condition_label="condition_C", params=())


def _condition_b_on(data: _PairData, p: BGammaMu, plan: SamplePlan) -> Verdict:
    premise = p.gamma * data.dxTx[:, None] <= data.dxy + p.mu * data.dxTx[None, :]
    rhs = (1.0 - p.gamma) * data.dxy + p.mu * (data.M + data.M.T)
    return _pair_verdict("condition_B", data.X, data.X, plan,
                         (premise, data.dTxTy, rhs, None),
                         params=(("gamma", p.gamma), ("mu", p.mu)))


def check_condition_B(T: Mapping, p: BGammaMu, plan: SamplePlan) -> Verdict:
    """The two-parameter condition; see the module docstring for the display."""
    return _condition_b_on(_pair_data(T, plan), p, plan)


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
    as given and is not forced to track gamma. If the underlying condition
    check fails on this plan a warning is emitted but the check proceeds.
    """
    theta = float(theta)
    if not (0.0 <= theta <= 1.0):
        raise ContractViolation(f"theta must lie in [0, 1], got {theta}")
    params = (("theta", theta), ("gamma", p.gamma), ("mu", p.mu))
    data = _pair_data(T, plan)
    pre = _condition_b_on(data, p, plan)
    if not pre.passed:
        warnings.warn(
            f"condition_B(gamma={p.gamma}, mu={p.mu}) fails for {T.label!r} on "
            "this plan; the property check may fail too", stacklevel=2)
    kind = T.domain.norm_kind
    TTX = np.stack([evaluate(T, tx) for tx in data.TX])
    dTxTtx = np.array([dist(a, b, kind) for a, b in zip(data.TX, TTX)])
    eps = plan.epsilon
    n = data.X.shape[0]

    viol_i = dTxTtx > data.dxTx + eps
    first_i = np.argwhere(viol_i)
    if first_i.shape[0] > 0:
        i = int(first_i[0, 0])
        return Verdict(condition_label="prop1", passed=False, checked_pairs=n * n,
                       witness=Witness.at(data.X[i], lhs=dTxTtx[i], rhs=data.dxTx[i],
                                          detail="part (i)"),
                       plan=plan, params=params)

    half = theta / 2.0
    dTx_y = pairwise_norm(data.TX, data.X, kind)   # ||Tx_i - x_j||
    # (ii) fails where both alternatives fail: the first as the inequality,
    # the second as the premise
    lhs_ii = np.broadcast_to(half * data.dxTx[:, None], data.dxy.shape)
    premise_ii = half * dTxTtx[:, None] > dTx_y + eps
    lhs_iii = (1.0 - p.mu) * data.M
    rhs_iii = ((3.0 - theta) * data.dxTx[:, None]
               + (1.0 - half) * data.dxy
               + p.mu * (2.0 * data.dxTx[:, None] + data.M.T
                         + 2.0 * dTxTtx[:, None]))
    return _pair_verdict("prop1", data.X, data.X, plan,
                         (premise_ii, lhs_ii, data.dxy, "part (ii)"),
                         (None, lhs_iii, rhs_iii, "part (iii)"), params=params)


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
    2*mu > gamma are recorded as "skipped", never pass/fail. The sample and
    its pairwise distances are computed once and shared by all cells, so a
    single-cell sweep equals check_condition_B for that cell.
    """
    gammas = [float(g) for g in gamma_grid]
    mus = [float(m) for m in mu_grid]
    for g in gammas:
        if not (0.0 <= g <= 1.0):
            raise ContractViolation(f"sweep gamma {g} outside [0, 1]")
    for m in mus:
        if not (0.0 <= m <= 0.5):
            raise ContractViolation(f"sweep mu {m} outside [0, 1/2]")
    if pairing not in ("cross", "zip"):
        raise ContractViolation(f"unknown pairing {pairing!r}")
    if pairing == "zip" and len(gammas) != len(mus):
        raise ContractViolation(
            f"zip pairing needs equal grid lengths, got {len(gammas)} and {len(mus)}")
    pairs = [(g, m) for g in gammas for m in mus] if pairing == "cross" \
        else list(zip(gammas, mus))
    data = _pair_data(T, plan)
    cells = []
    for g, m in pairs:
        if 2.0 * m > g:
            cells.append(SweepCell(gamma=g, mu=m, status="skipped"))
            continue
        v = _condition_b_on(data, BGammaMu(gamma=g, mu=m), plan)
        cells.append(SweepCell(gamma=g, mu=m,
                               status="pass" if v.passed else "fail", verdict=v))
    return SweepTable(mapping_label=T.label, cells=tuple(cells), plan=plan,
                      pairing=pairing)
