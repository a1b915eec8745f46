"""Squeezed pair states of collapse radiation.

Bosonic modes come out in a two-mode squeezed vacuum over number labels,
sum_n tanh^n(r)/cosh(r) |n, n>, truncated at an explicit occupation cut.
Fermionic modes fill a four-term state over pair labels, exactly
representable with no truncation.  The builders supply only the statistics
and the Schmidt weights, the squared amplitudes; ``fock`` fixes which labels
each weight pairs and the sign of each amplitude.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import PureBipartiteState
from .geometry import (
    SqueezingParams, _BOSON, _FERMION, _require_representable, _require_statistics,
)

EPS_TAIL_DEFAULT = 1e-12
EPS_TAIL_MAX = 1e-6
# Floor on eps_tail.  With x >= X_MIN it caps a boson state at 24,981,863
# levels, and it keeps eps_tail * (1 - q) in _boson_cut normal.
EPS_TAIL_MIN = 1e-16


def _validate_eps_tail(eps_tail: float) -> None:
    # No int or bool lies in the range, so only a float can; nan fails the comparisons.
    if not (isinstance(eps_tail, float) and EPS_TAIL_MIN <= eps_tail <= EPS_TAIL_MAX):
        raise ValueError(
            f"eps_tail must lie in [{EPS_TAIL_MIN!r}, {EPS_TAIL_MAX!r}], got {eps_tail!r}"
        )


def _boson_cut(squeezing: SqueezingParams, eps_tail: float) -> tuple[int, float]:
    """The boson cut: the fewest levels d with q^d/(1-q) < eps_tail, and that tail bound.

    q = w*w for the squeezing's weight w, and 0 <= q < 1 for every x that
    the infrared floor admits.  The builder and the CLI's level count both
    take d from here.
    """
    w = squeezing.boltzmann_weight
    q = w * w
    if q == 0.0:
        return 1, 0.0
    target = eps_tail * (1.0 - q)
    d = max(1, math.ceil(math.log(target) / math.log(q)))
    # The log estimate can land one level off; settle it exactly.
    while q**d >= target:
        d += 1
    while d > 1 and q ** (d - 1) < target:
        d -= 1
    return d, q**d / (1.0 - q)


def build_boson_state(
    squeezing: SqueezingParams,
    eps_tail: float = EPS_TAIL_DEFAULT,
) -> PureBipartiteState:
    """Truncated two-mode squeezed vacuum for a bosonic mode.

    Level n carries the amplitude tanh^n r / cosh r, computed from x as
    e^(-x n) sqrt(-expm1(-2x)) in one exp pass over the levels, and squared
    in place: the state holds one d-vector, the weights that its
    completeness check sums and its reductions adopt as their diagonal.

    Parameters
    ----------
    squeezing:
        Bosonic squeezing parameters.
    eps_tail:
        Ceiling on the tail bound q^(n_max+1)/(1-q) of the discarded mass.

    Raises SqueezingOverflowError for x below the infrared floor X_MIN, as
    squeezing_for does.  Every other mode is built, at 8 bytes a level: at
    most 24,981,863 levels (200 MB), at X_MIN with eps_tail = EPS_TAIL_MIN.
    """
    _require_statistics(squeezing, _BOSON)
    _validate_eps_tail(eps_tail)
    x = squeezing.x
    _require_representable(x)
    d, tail_bound = _boson_cut(squeezing, eps_tail)
    # One d-vector, filled in place from x: the rounding of w is never raised
    # to the n-th power, and 1 - q keeps its digits as q -> 1.
    weights = np.arange(d, dtype=np.float64)
    weights *= -x
    np.exp(weights, out=weights)
    weights *= math.sqrt(-math.expm1(-2.0 * x))
    weights *= weights
    return PureBipartiteState._built(_BOSON, weights, tail_bound)


def build_fermion_state(squeezing: SqueezingParams) -> PureBipartiteState:
    """Four-term pair state for a fermionic mode; exact, no truncation.

    Pair labels are (n_particle, n_antiparticle).  A horizon antiparticle
    accompanies an outgoing particle and vice versa, with the relative
    signs fixed by the squeezing transformation:

        cos^2 r |00,00> - sin r cos r |01,10> + sin r cos r |10,01> - sin^2 r |11,11>

    The state keeps the four squares; ``fock`` holds the signs.
    """
    _require_statistics(squeezing, _FERMION)
    c = math.cos(squeezing.r)
    s = math.sin(squeezing.r)
    weights = np.array([c * c, s * c, s * c, s * s])
    weights *= weights
    return PureBipartiteState._built(_FERMION, weights, 0.0)
