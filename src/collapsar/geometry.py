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

# Infrared floor on x, fixed: the one limit for both statistics.  With
# states.EPS_TAIL_MIN it bounds a boson state at 24,981,863 levels.
X_MIN = 1e-6


def _is_real(value: object) -> bool:
    """An int or float; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_finite_positive(name: str, value: object) -> None:
    """Refuse anything but a finite positive real that a float can hold.

    An exact float takes one comparison chain, which accepts and refuses
    what the general rule does (nan fails both comparisons).
    """
    if type(value) is float and 0.0 < value < math.inf:
        return
    try:
        ok = _is_real(value) and math.isfinite(value) and value > 0.0
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite positive real, got {value!r}")


class Statistics(str, Enum):
    """Exchange statistics of a field mode."""

    BOSON = "boson"
    FERMION = "fermion"


# The members under module names, for the per-mode path.  In CPython 3.11,
# EnumType's __getattr__ hook makes each read of Statistics.BOSON a slow
# class lookup (~150 ns, against ~15 ns for a module global).
_BOSON = Statistics.BOSON
_FERMION = Statistics.FERMION


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
        if not isinstance(self.statistics, Statistics):
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
        if not isinstance(self.statistics, Statistics):
            object.__setattr__(self, "statistics", Statistics(self.statistics))
        x = self.x
        _require_finite_positive("x", x)
        # The generated __init__ stored x as given, so only a non-float is
        # stored again: storing every x twice made each record ~15 % slower.
        if type(x) is not float:
            object.__setattr__(self, "x", float(x))
        w = math.exp(-x)
        if self.statistics is _BOSON:
            r = math.inf if w == 1.0 else math.atanh(w)
        else:
            r = math.atan(w)
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


def _require_representable(x: float) -> None:
    """Refuse an x below the infrared floor X_MIN (0 included), or x = inf."""
    if x < X_MIN:
        raise SqueezingOverflowError(
            f"x = {x!r} below floor {X_MIN!r}: mode too soft for a faithful "
            f"truncated representation"
        )
    if x == math.inf:
        raise SqueezingOverflowError(f"x = {x!r} is not a finite positive float")


def squeezing_for(params: BlackHoleParams, channel: ModeChannel) -> SqueezingParams:
    """Squeezing parameters of the pair state produced in ``channel``.

    Raises SqueezingOverflowError, for either statistics, when x is below the
    infrared floor ``X_MIN`` or is inf; ``build_boson_state`` has the same floor.
    """
    x = dimensionless_x(params, channel)
    _require_representable(x)
    return SqueezingParams(channel.statistics, x)
