"""Collapse geometry and per-mode squeezing parameters.

A thin null shell of mass ``m`` collapses to a black hole that radiates
at the Hawking temperature ``T_H = 1/(8 pi m)``.  Every field mode of
frequency ``omega`` is pair produced in a two-mode squeezed state whose
squeezing angle depends on the geometry only through the dimensionless
combination ``x = 4 pi m omega``, equal to ``omega / (2 T_H)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import SqueezingOverflowError

FOUR_PI = 4.0 * math.pi

# Infrared floor on x, fixed.  It does not guard the boson truncation:
# N_CAP in states already refuses every boson x below 1.03e-3 at the
# default eps_tail (below 6.3e-4 at EPS_TAIL_MAX).  The floor decides only
# which error a boson mode below it gets, and whether a fermion mode is
# admitted.
X_MIN = 1e-6


def _is_real(value: object) -> bool:
    """An int or float; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_finite_positive(name: str, value: object) -> None:
    """Refuse anything but a finite positive real."""
    if not (_is_real(value) and math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a finite positive real, got {value!r}")


class Statistics(str, Enum):
    """Exchange statistics of a field mode."""

    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True)
class BlackHoleParams:
    """Collapsing shell of mass ``mass``, the only geometric input to x."""

    mass: float

    def __post_init__(self) -> None:
        _require_finite_positive("mass", self.mass)


@dataclass(frozen=True)
class ModeChannel:
    """One radiated field mode: frequency ``omega`` and its exchange statistics."""

    omega: float
    statistics: Statistics

    def __post_init__(self) -> None:
        _require_finite_positive("omega", self.omega)
        object.__setattr__(self, "statistics", Statistics(self.statistics))


@dataclass(frozen=True)
class SqueezingParams:
    """Two-mode squeezing of one horizon/outgoing mode pair, fixed by x alone.

    ``boltzmann_weight`` is ``w = e^{-x}``.  The squeezing angle satisfies
    ``tanh r = w`` for bosons (r unbounded) and ``tan r = w`` for fermions
    (r in (0, pi/4]).  Both are derived from x on construction.  Underflow
    edges are representable: ``w == 0.0`` denotes a mode frozen out to the
    vacuum, and ``w == 1.0`` (reachable only for x below ~1e-16) denotes
    maximal squeezing, with ``r = inf`` in the bosonic case.
    """

    statistics: Statistics
    x: float
    boltzmann_weight: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistics", Statistics(self.statistics))
        x = self.x
        _require_finite_positive("x", x)
        w = math.exp(-x)
        if self.statistics is Statistics.BOSON:
            r = math.inf if w == 1.0 else math.atanh(w)
        else:
            r = math.atan(w)
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "boltzmann_weight", w)
        object.__setattr__(self, "r", r)

    def to_json_dict(self) -> dict:
        """Serialisable header identifying the squeezing: statistics, r, x."""
        return {"statistics": self.statistics.value, "r": self.r, "x": self.x}

    @classmethod
    def from_x(cls, statistics: Statistics | str, x: float) -> "SqueezingParams":
        """Build squeezing parameters from the dimensionless ratio x = 4 pi m omega."""
        return cls(statistics, x)

    @classmethod
    def from_r(cls, statistics: Statistics | str, r: float) -> "SqueezingParams":
        """Build squeezing parameters from the squeezing angle itself."""
        statistics = Statistics(statistics)
        _require_finite_positive("r", r)
        if statistics is Statistics.BOSON:
            w = math.tanh(r)
        else:
            if r > math.pi / 4.0:
                raise ValueError(f"fermionic r must lie in (0, pi/4], got {r!r}")
            w = math.tan(r)
        if w >= 1.0:
            raise ValueError(
                f"r {r!r} rounds to maximal squeezing; construct via from_x instead"
            )
        return cls(statistics, -math.log(w))


def _require_statistics(squeezing: SqueezingParams, expected: Statistics) -> None:
    if squeezing.statistics is not expected:
        raise ValueError(
            f"expected {expected.value} squeezing, got {squeezing.statistics.value}"
        )


def dimensionless_x(params: BlackHoleParams, channel: ModeChannel) -> float:
    """Return x = 4 pi m omega for the given mode.

    The product is evaluated as ((4 pi) * m) * omega in that fixed order, so
    rescalings (k m, omega / k) with k an exact power of two reproduce x bit
    for bit.
    """
    return (FOUR_PI * params.mass) * channel.omega


def squeezing_for(params: BlackHoleParams, channel: ModeChannel) -> SqueezingParams:
    """Squeezing parameters of the pair state produced in ``channel``.

    Modes with x below the infrared floor ``X_MIN`` raise
    SqueezingOverflowError.  For bosons the truncation cap refuses a far
    wider range anyway, so the floor only picks the message; for fermions,
    which need no truncation, it decides admission.  An x that overflows to
    inf also raises SqueezingOverflowError (one that underflows to 0 is
    below the floor).
    """
    x = dimensionless_x(params, channel)
    if x < X_MIN:
        raise SqueezingOverflowError(
            f"x = {x!r} below floor {X_MIN!r}: mode too soft for a faithful "
            f"truncated representation"
        )
    if x == math.inf:
        raise SqueezingOverflowError(f"x = {x!r} is not a finite positive float")
    return SqueezingParams(channel.statistics, x)
