"""Squeezed pair states of collapse radiation.

Bosonic modes come out in a two-mode squeezed vacuum over number labels,
sum_n tanh^n(r)/cosh(r) |n, n>, truncated at an explicit occupation cut.
Fermionic modes fill a four-term state over pair labels, exactly
representable with no truncation.  The builders supply only the statistics
and the amplitudes; ``fock`` fixes which labels each amplitude pairs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import SqueezingOverflowError
from .fock import PureBipartiteState
from .geometry import Statistics, SqueezingParams, _is_real, _require_statistics

# Hard cap on the truncated dimension n_max + 1 of a bosonic pair state.
N_CAP = 16384

EPS_TAIL_DEFAULT = 1e-12
EPS_TAIL_MAX = 1e-6


def _validate_eps_tail(eps_tail: float) -> None:
    # An exact float takes one comparison chain, which accepts what the
    # two rules below accept together (nan fails both comparisons).
    if type(eps_tail) is float and sys.float_info.min <= eps_tail <= EPS_TAIL_MAX:
        return
    if not (_is_real(eps_tail) and 0.0 < eps_tail <= EPS_TAIL_MAX):
        raise ValueError(
            f"eps_tail must lie in (0, {EPS_TAIL_MAX!r}], got {eps_tail!r}"
        )
    # A subnormal eps_tail lets eps_tail * (1 - q) underflow to 0 in
    # _truncation_level, whose log and settle loops need it positive.
    if eps_tail < sys.float_info.min:
        raise ValueError(
            f"eps_tail must not be subnormal (below {sys.float_info.min!r}), got {eps_tail!r}"
        )


def _truncation_level(q: float, eps_tail: float) -> int:
    """Minimal n_max with q^(n_max+1)/(1-q) < eps_tail.

    Raises SqueezingOverflowError when that requires a dimension above N_CAP.
    """
    if q == 0.0:
        return 0
    target = eps_tail * (1.0 - q)
    estimate = math.log(target) / math.log(q)
    if estimate > N_CAP + 2:
        raise SqueezingOverflowError(
            f"truncation needs about {estimate:.0f} levels, cap is {N_CAP}"
        )
    n_plus_1 = max(1, math.ceil(estimate))
    # The log estimate can land one level off; settle it exactly.
    while q**n_plus_1 >= target:
        n_plus_1 += 1
    while n_plus_1 > 1 and q ** (n_plus_1 - 1) < target:
        n_plus_1 -= 1
    if n_plus_1 > N_CAP:
        raise SqueezingOverflowError(
            f"truncation needs {n_plus_1} levels, cap is {N_CAP}"
        )
    return n_plus_1 - 1


def build_boson_state(
    squeezing: SqueezingParams,
    eps_tail: float = EPS_TAIL_DEFAULT,
) -> PureBipartiteState:
    """Truncated two-mode squeezed vacuum for a bosonic mode.

    Level n carries the amplitude tanh^n r / cosh r, computed from x as
    e^(-x n) sqrt(-expm1(-2x)) in one exp pass over the levels.  The state
    holds two d-vectors: the amplitudes and the squares that its
    completeness check sums, which its reductions adopt as their diagonal.

    Parameters
    ----------
    squeezing:
        Bosonic squeezing parameters.
    eps_tail:
        Ceiling on the tail bound q^(n_max+1)/(1-q) of the discarded mass.

    Raises SqueezingOverflowError when the cut needs more than N_CAP levels,
    which holds for every x below about 1e-3.
    """
    _require_statistics(squeezing, Statistics.BOSON)
    _validate_eps_tail(eps_tail)
    x = squeezing.x
    w = squeezing.boltzmann_weight
    q = w * w
    if q >= 1.0:
        raise SqueezingOverflowError("maximal squeezing cannot be truncated")
    n_max = _truncation_level(q, eps_tail)
    # One d-vector, filled in place from x: the rounding of w is never raised
    # to the n-th power, and 1 - q keeps its digits as q -> 1.
    amps = np.arange(n_max + 1, dtype=np.float64)
    amps *= -x
    np.exp(amps, out=amps)
    amps *= math.sqrt(-math.expm1(-2.0 * x))
    tail_bound = q ** (n_max + 1) / (1.0 - q)
    return PureBipartiteState._built(Statistics.BOSON, amps, tail_bound)


def build_fermion_state(squeezing: SqueezingParams) -> PureBipartiteState:
    """Four-term pair state for a fermionic mode; exact, no truncation.

    Pair labels are (n_particle, n_antiparticle).  A horizon antiparticle
    accompanies an outgoing particle and vice versa, with the relative
    signs fixed by the squeezing transformation:

        cos^2 r |00,00> - sin r cos r |01,10> + sin r cos r |10,01> - sin^2 r |11,11>
    """
    _require_statistics(squeezing, Statistics.FERMION)
    c = math.cos(squeezing.r)
    s = math.sin(squeezing.r)
    amps = np.array([c * c, -(s * c), s * c, -(s * s)])
    return PureBipartiteState._built(Statistics.FERMION, amps, 0.0)
