"""Blend-weight schedules: values in [0, 1/2] indexed by step.

The multi-map engines want a sequence that keeps returning to zero
(liminf 0), keeps reaching a positive level (limsup > 0), and has vanishing
increments. The tent schedule delivers all three by construction: within
block j of length L_j = ceil(first_block_length * growth**j) the value
climbs linearly from 0 to the peak and back, so the per-step increment
peak/ceil(L_j/2) shrinks as the blocks grow.

Each schedule makes its values as float64 chunks of at most `_CHUNK`
steps, through a private `_chunks(start, stop)`. `AlphaSchedule.values` is
defined once on top of it and yields them lazily as floats; the engines
draw from it, and `alpha(n)` is its first value. A chunk applies the same
IEEE operations, in the same order, as the scalar formula of its kind, so
each value is bit for bit the formula's. The decay schedule raises its
powers with Python's own `pow`: numpy's vectorised power may differ from
it in the last bit.

`verify_schedule` measures finite-horizon proxies for the three limits
over the last quarter of the horizon, reducing one chunk at a time, so its
memory does not grow with the horizon. Proxies, not proofs.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat
from operator import truediv
from typing import ClassVar, Iterator

import numpy as np

from .errors import ContractViolation, PreconditionError

__all__ = [
    "ConstantSchedule", "DecaySchedule", "TentSchedule", "AlphaSchedule",
    "DEFAULT_TENT", "PROXY_TOL", "verify_schedule", "ScheduleReport",
]

# a tail proxy below this counts as "vanished"; above it as "bounded away"
PROXY_TOL = 1e-3

# steps per chunk: a chunk's few arrays stay in cache, and a run that stops
# early has paid for at most this many values it did not use
_CHUNK = 4096


def _index(n: int) -> int:
    if n < 0:
        raise ContractViolation(f"schedule index must be >= 0, got {n}")
    return n


class AlphaSchedule:
    """The schedule interface: each kind makes `_chunks(start, stop)`,
    nonempty float64 arrays of alpha(start), ..., alpha(stop - 1) in order,
    at most `_CHUNK` long."""

    def _chunks(self, start: int, stop: int) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def values(self, start: int, stop: int) -> Iterator[float]:
        """alpha(start), ..., alpha(stop - 1), made a chunk at a time."""
        chunks = self._chunks(_index(start), stop)
        return chain.from_iterable(c.tolist() for c in chunks)

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

    def _chunks(self, start: int, stop: int) -> Iterator[np.ndarray]:
        for a in range(start, stop, _CHUNK):
            yield np.full(min(stop - a, _CHUNK), self.value, dtype=float)


@dataclass(frozen=True)
class DecaySchedule(AlphaSchedule):
    """alpha_n = min(1/2, scale/(n+1)**rate); nonincreasing, tends to 0."""

    kind: ClassVar[str] = "decay"
    scale: float
    rate: float = 1.0

    def __post_init__(self):
        # an int past the float range is not finite either
        if not (0.0 <= self.scale <= sys.float_info.max):
            raise ContractViolation(f"decay scale must be finite and >= 0, got {self.scale}")
        if not (0.0 < self.rate <= sys.float_info.max):
            raise ContractViolation(f"decay rate must be finite and > 0, got {self.rate}")

    def _raw(self, a: int, b: int) -> np.ndarray:
        """scale/(n+1)**rate for n in [a, b), before the clamp."""
        powers = map(pow, range(a + 1, b + 1), repeat(self.rate))
        if isinstance(self.scale, int) and isinstance(self.rate, int):
            # int / int rounds the exact quotient once, unlike float / float
            return np.fromiter(map(truediv, repeat(self.scale), powers), float, b - a)
        raw = np.fromiter(powers, float, b - a)
        return np.divide(self.scale, raw, out=raw)

    def _overflows(self, n: int) -> bool:
        """Whether (n+1)**rate leaves the float range, decided from its
        binary exponent; only a power near 2**1024 is built to decide it."""
        e = self.rate * math.log2(n + 1)
        if e < 1023 or e > 1025:
            return e > 1025
        try:
            float(pow(n + 1, self.rate))
        except OverflowError:
            return True
        return False

    def _chunks(self, start: int, stop: int) -> Iterator[np.ndarray]:
        for a in range(start, stop, _CHUNK):
            b = min(stop, a + _CHUNK)
            # (n+1)**rate grows with n: the steps before the first that
            # overflows are still served, so a run that stops earlier
            # never meets it
            n = a + bisect_left(range(a, b), True, key=self._overflows)
            if n > a:
                raw = self._raw(a, n)
                yield np.minimum(0.5, raw, out=raw)
            if n < b:
                raise ContractViolation(
                    f"decay rate {self.rate} overflows a float at step {n}: "
                    f"{n + 1}**{self.rate} is too large")


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

    def _chunks(self, start: int, stop: int) -> Iterator[np.ndarray]:
        """Each chunk cut at block edges and filled in closed form, visiting
        each block once; at growth 1 every block is L steps long, so a
        step's offset in its block is its remainder mod L."""
        if self.growth == 1:
            length = math.ceil(self.first_block_length)
            L = min(length, 2**62)   # int64 must hold L - t, as below
            for a in range(start, stop, _CHUNK):
                t = np.arange(a, min(stop, a + _CHUNK)) % L
                yield self._fill(t, L - t, -(-length // 2))
            return
        block_start, length, j = 0, 0, 0
        for a in range(start, stop, _CHUNK):
            b, n = min(stop, a + _CHUNK), a
            # one run per block met
            starts, lengths, halves, counts = runs = [], [], [], []
            while n < b:
                while block_start + length <= n:   # the next block
                    block_start += length
                    try:
                        length = math.ceil(self.first_block_length * self.growth ** j)
                    except OverflowError:
                        # as for a steep decay, the steps before the block
                        # are still served
                        if counts:
                            yield self._fill(*self._offsets(a, n, runs))
                        raise ContractViolation(
                            f"tent growth {self.growth} overflows a float at block "
                            f"{j}, step {block_start}: {self.first_block_length}"
                            f"*{self.growth}**{j} is too large") from None
                    j += 1
                starts.append(block_start)
                # int64 must hold L - t; cutting L to 2**62 leaves
                # min(t, L - t) = t for every offset t below 2**61
                lengths.append(min(length, 2**62))
                halves.append(-(-length // 2))
                counts.append(min(b, block_start + length) - n)
                n += counts[-1]
            yield self._fill(*self._offsets(a, b, runs))

    @staticmethod
    def _offsets(a: int, b: int, runs) -> tuple:
        """(t, L - t, half) of steps a, ..., b - 1 from `_chunks`' runs."""
        starts, lengths, halves, counts = runs
        t = np.arange(a, b)
        t -= np.repeat(starts, counts)             # offset in its block
        L_t = np.repeat(lengths, counts)
        L_t -= t
        return t, L_t, np.repeat(np.array(halves, dtype=float), counts)

    def _fill(self, t: np.ndarray, L_t: np.ndarray, half) -> np.ndarray:
        """The values at offsets t of blocks L = t + L_t long, halves `half`."""
        v = self.peak * np.minimum(t, L_t, out=t)
        # the formula's float / int rounds the int half to a float first
        v /= np.asarray(half, dtype=float)
        # peak * half / half can round one ulp above peak.
        return np.minimum(self.peak, v, out=v)


#: kind -> class: the one rule that turns a schedule's to_dict back into it.
_KINDS = {cls.kind: cls for cls in (ConstantSchedule, DecaySchedule, TentSchedule)}

# Chosen so that at horizon 1e5 the whole last quarter lies inside one
# block that contains its apex and ends two steps past the horizon; the
# tail proxies then take their cleanest possible values.
DEFAULT_TENT = TentSchedule(peak=0.25, first_block_length=343, growth=1.6)


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
    lo, hi, step, n, last = math.inf, -math.inf, 0.0, window_start, np.empty(0)
    for c in s._chunks(window_start, horizon + 1):
        if not (0.0 <= c.min() and c.max() <= 0.5):   # NaN included
            i = int(np.flatnonzero(~((c >= 0.0) & (c <= 0.5)))[0])
            raise ContractViolation(
                f"schedule emitted {c[i].item()} outside [0, 1/2] at step {n + i}")
        n += c.size
        # every value but the last is paired with its successor one step
        # ahead, so the last value of a chunk leads the next chunk
        c, last = np.concatenate((last, c)), c[-1:]
        lo = c[:-1].min(initial=lo).item()
        hi = c[:-1].max(initial=hi).item()
        d = np.diff(c)
        step = np.abs(d, out=d).max(initial=step).item()
    return ScheduleReport(
        schedule=s.to_dict(), horizon=horizon, window_start=window_start,
        liminf_proxy=lo, limsup_proxy=hi, diff_proxy=step)
