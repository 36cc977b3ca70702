"""Verdict and witness value types shared by checks and diagnostics.

A Verdict is the outcome of scanning a finite sample: pass means "no
counterexample found on this plan", never a proof. A failing Verdict always
carries a replayable witness whose stored sides violate the checked
inequality by more than the plan's slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .vecspace import SamplePlan


def _coords(v) -> Optional[tuple[float, ...]]:
    if v is None:
        return None
    return tuple(float(c) for c in np.atleast_1d(np.asarray(v, dtype=float)))


@dataclass(frozen=True)
class Witness:
    """One concrete violation: the point(s) and both inequality sides.

    `x` is always set. `y` is the pair partner where the check is pairwise
    (the fixed point for fixed-point checks), None for per-point checks.
    `step` is set by trace diagnostics, `left_value`/`right_value` by the
    commuting check (the two composite images), `detail` names a failed
    sub-inequality for multi-part checks.
    """

    x: tuple[float, ...]
    lhs: float
    rhs: float
    y: Optional[tuple[float, ...]] = None
    step: Optional[int] = None
    left_value: Optional[tuple[float, ...]] = None
    right_value: Optional[tuple[float, ...]] = None
    detail: Optional[str] = None

    @staticmethod
    def at(x, lhs: float, rhs: float, y=None, step: Optional[int] = None,
           left_value=None, right_value=None, detail: Optional[str] = None) -> "Witness":
        return Witness(x=_coords(x), lhs=float(lhs), rhs=float(rhs), y=_coords(y),
                       step=step, left_value=_coords(left_value),
                       right_value=_coords(right_value), detail=detail)

    def to_dict(self) -> dict:
        out = {"x": list(self.x), "lhs": self.lhs, "rhs": self.rhs}
        for key in ("y", "step", "left_value", "right_value", "detail"):
            v = getattr(self, key)
            if v is not None:
                out[key] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass(frozen=True)
class Verdict:
    """Outcome of one empirical check over one sample plan."""

    condition_label: str
    passed: bool
    checked_pairs: int
    witness: Optional[Witness] = None
    plan: Optional[SamplePlan] = None
    params: tuple[tuple[str, float], ...] = ()
    observed_max: Optional[float] = None  # commuting pass: max gap seen

    def same_outcome(self, other: "Verdict") -> bool:
        """Equality of verdict content ignoring labels and parameters."""
        return (self.passed == other.passed
                and self.checked_pairs == other.checked_pairs
                and self.witness == other.witness)

    def to_dict(self) -> dict:
        out = {
            "condition": self.condition_label,
            "params": {k: v for k, v in self.params},
            "passed": self.passed,
            "checked_pairs": self.checked_pairs,
            "witness": self.witness.to_dict() if self.witness else None,
            "plan": self.plan.to_dict() if self.plan else None,
        }
        if self.observed_max is not None:
            out["observed_max"] = self.observed_max
        return out
