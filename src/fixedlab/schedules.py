"""Blend-weight schedules: values in [0, 1/2] indexed by step.

The multi-map engines want a sequence that keeps returning to zero
(liminf 0), keeps reaching a positive level (limsup > 0), and has vanishing
increments. The tent schedule delivers all three by construction: within
block j of length L_j = ceil(first_block_length * growth**j) the value
climbs linearly from 0 to the peak and back, so the per-step increment
peak/ceil(L_j/2) shrinks as the blocks grow.

Every schedule yields its values lazily through `values(start, stop)`; the
engines and `verify_schedule` draw from it, and `alpha(n)` is its first
value. `verify_schedule` measures finite-horizon proxies for the three
limits over the last quarter of the horizon. Proxies, not proofs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterator

from .errors import ContractViolation, PreconditionError

__all__ = [
    "ConstantSchedule", "DecaySchedule", "TentSchedule", "AlphaSchedule",
    "DEFAULT_TENT", "PROXY_TOL", "alpha", "verify_schedule", "ScheduleReport",
]

# a tail proxy below this counts as "vanished"; above it as "bounded away"
PROXY_TOL = 1e-3


def _index(n: int) -> int:
    if n < 0:
        raise ContractViolation(f"schedule index must be >= 0, got {n}")
    return n


class AlphaSchedule:
    """The schedule interface: each kind yields `values(start, stop)` lazily."""

    def alpha(self, n: int) -> float:
        return next(self.values(n, n + 1))

    def to_dict(self) -> dict:
        """The schedule as its kind and its fields, the keys a config names."""
        return {"kind": self.kind, **dataclasses.asdict(self)}


@dataclass(frozen=True)
class ConstantSchedule(AlphaSchedule):
    kind: ClassVar[str] = "constant"
    value: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 0.5):
            raise ContractViolation(
                f"constant schedule value must lie in [0, 1/2], got {self.value}")

    def values(self, start: int, stop: int) -> Iterator[float]:
        """alpha(start), ..., alpha(stop - 1), made one at a time."""
        return itertools.repeat(self.value, max(0, stop - _index(start)))


@dataclass(frozen=True)
class DecaySchedule(AlphaSchedule):
    """alpha_n = min(1/2, scale/(n+1)**rate); nonincreasing, tends to 0."""

    kind: ClassVar[str] = "decay"
    scale: float
    rate: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.scale < math.inf):
            raise ContractViolation(f"decay scale must be finite and >= 0, got {self.scale}")
        if not (0.0 < self.rate < math.inf):
            raise ContractViolation(f"decay rate must be finite and > 0, got {self.rate}")

    def values(self, start: int, stop: int) -> Iterator[float]:
        """alpha(start), ..., alpha(stop - 1), made one at a time."""
        scale, rate = self.scale, self.rate
        return (min(0.5, scale / (n + 1) ** rate)
                for n in range(_index(start), stop))


@dataclass(frozen=True)
class TentSchedule(AlphaSchedule):
    """Triangular waves over geometrically growing blocks.

    Block j occupies L_j = ceil(first_block_length * growth**j) consecutive
    steps; at offset t within it the value is
    peak * min(t, L_j - t) / ceil(L_j / 2). The peak is attained exactly
    once per even-length block and the value at both block ends is 0.
    """

    kind: ClassVar[str] = "tent"
    peak: float
    first_block_length: float
    growth: float

    def __post_init__(self):
        if not (0.0 < self.peak <= 0.5):
            raise ContractViolation(
                f"tent peak must lie in (0, 1/2], got {self.peak}")
        if not (2 <= self.first_block_length < math.inf):
            raise ContractViolation("tent first_block_length must be finite "
                                    f"and >= 2, got {self.first_block_length}")
        if not (1.0 <= self.growth < math.inf):
            raise ContractViolation(
                f"tent growth must be finite and >= 1, got {self.growth}")

    def values(self, start: int, stop: int) -> Iterator[float]:
        """alpha(start), ..., alpha(stop - 1), visiting each block once."""
        n, peak = _index(start), self.peak
        block_start = j = 0
        while n < stop:
            length = math.ceil(self.first_block_length * self.growth ** j)
            end = block_start + length
            if n < end:
                half = -(-length // 2)
                # peak * half / half can round one ulp above peak.
                for t in range(n - block_start, min(stop, end) - block_start):
                    yield min(peak, peak * min(t, length - t) / half)
                n = end
            block_start = end
            j += 1


#: kind -> class: the one rule that turns a schedule's to_dict back into it.
_KINDS = {cls.kind: cls for cls in (ConstantSchedule, DecaySchedule, TentSchedule)}

# Chosen so that at horizon 1e5 the whole last quarter lies inside one
# block that contains its apex and ends two steps past the horizon; the
# tail proxies then take their cleanest possible values.
DEFAULT_TENT = TentSchedule(peak=0.25, first_block_length=343, growth=1.6)


def alpha(s: AlphaSchedule, n: int) -> float:
    """Schedule value at step n. Deterministic in (s, n)."""
    return s.alpha(n)


@dataclass(frozen=True)
class ScheduleReport:
    schedule: dict
    horizon: int
    window_start: int
    liminf_proxy: float   # min over the last-quarter window
    limsup_proxy: float   # max over the last-quarter window
    diff_proxy: float     # max |alpha_{n+1} - alpha_n| over the window

    @property
    def liminf_ok(self) -> bool:
        return self.liminf_proxy <= PROXY_TOL

    @property
    def limsup_ok(self) -> bool:
        return self.limsup_proxy > PROXY_TOL

    @property
    def diff_ok(self) -> bool:
        return self.diff_proxy <= PROXY_TOL

    @property
    def compliant(self) -> bool:
        return self.liminf_ok and self.limsup_ok and self.diff_ok

    def flags(self) -> list[str]:
        out = []
        if not self.liminf_ok:
            out.append(f"tail min {self.liminf_proxy:.6g} stays above {PROXY_TOL}; "
                       "the sequence never returns near 0")
        if not self.limsup_ok:
            out.append(f"tail max {self.limsup_proxy:.6g} is below {PROXY_TOL}; "
                       "the sequence decays instead of keeping a positive level")
        if not self.diff_ok:
            out.append(f"tail step {self.diff_proxy:.6g} exceeds {PROXY_TOL}; "
                       "increments do not vanish")
        return out

    def to_dict(self) -> dict:
        return {
            **dataclasses.asdict(self),
            "liminf_ok": self.liminf_ok,
            "limsup_ok": self.limsup_ok,
            "diff_ok": self.diff_ok,
            "compliant": self.compliant,
            "flags": self.flags(),
        }


def verify_schedule(s: AlphaSchedule, horizon: int) -> ScheduleReport:
    """Tail-window proxies for the three limit requirements.

    The window is the last quarter of [0, horizon); the increment proxy
    uses pairs (n, n+1) with n in the window, so it also evaluates the
    schedule at `horizon` itself. horizon must be >= 10.
    """
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
