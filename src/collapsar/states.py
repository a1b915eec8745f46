"""Squeezed pair states of collapse radiation and their reduced density operators.

Bosonic modes come out in a two-mode squeezed vacuum over number labels,
sum_n tanh^n(r)/cosh(r) |n, n>, truncated at an explicit occupation cut.
Fermionic modes fill a four-term state over pair labels, exactly
representable with no truncation.  Both builders pair each horizon label
with its outgoing partner, horizon label first.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SqueezingOverflowError
from .fock import FERMION_BASIS, DensityOperator, PureBipartiteState
from .geometry import Statistics, SqueezingParams

# Hard cap on the truncated dimension n_max + 1 of a bosonic pair state.
N_CAP = 16384

EPS_TAIL_DEFAULT = 1e-12
EPS_TAIL_MAX = 1e-6


def _validate_eps_tail(eps_tail: float) -> None:
    if not (isinstance(eps_tail, (int, float)) and 0.0 < eps_tail <= EPS_TAIL_MAX):
        raise ValueError(
            f"eps_tail must lie in (0, {EPS_TAIL_MAX!r}], got {eps_tail!r}"
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

    Parameters
    ----------
    squeezing:
        Bosonic squeezing parameters.
    eps_tail:
        Ceiling on the tail bound q^(n_max+1)/(1-q) of the discarded mass.

    Raises SqueezingOverflowError when the cut needs more than N_CAP levels,
    which holds for every x below about 1e-3.
    """
    if squeezing.statistics is not Statistics.BOSON:
        raise ValueError(f"bosonic builder got {squeezing.statistics.value} squeezing")
    _validate_eps_tail(eps_tail)
    w = squeezing.boltzmann_weight
    q = w * w
    if q >= 1.0:
        raise SqueezingOverflowError("maximal squeezing cannot be truncated")
    n_max = _truncation_level(q, eps_tail)
    inv_cosh = math.sqrt(1.0 - q)
    ns = np.arange(n_max + 1)
    amps = inv_cosh * w**ns
    tail_bound = q ** (n_max + 1) / (1.0 - q)
    coeffs = {(int(n), int(n)): float(a) for n, a in zip(ns, amps)}
    return PureBipartiteState(coeffs, tail_bound)


def build_fermion_state(squeezing: SqueezingParams) -> PureBipartiteState:
    """Four-term pair state for a fermionic mode; exact, no truncation.

    Pair labels are (n_particle, n_antiparticle).  A horizon antiparticle
    accompanies an outgoing particle and vice versa, with the relative
    signs fixed by the squeezing transformation:

        cos^2 r |00,00> - sin r cos r |01,10> + sin r cos r |10,01> - sin^2 r |11,11>
    """
    if squeezing.statistics is not Statistics.FERMION:
        raise ValueError(f"fermionic builder got {squeezing.statistics.value} squeezing")
    c = math.cos(squeezing.r)
    s = math.sin(squeezing.r)
    coeffs = {
        ((0, 0), (0, 0)): c * c,
        ((0, 1), (1, 0)): -(s * c),
        ((1, 0), (0, 1)): s * c,
        ((1, 1), (1, 1)): -(s * s),
    }
    return PureBipartiteState(coeffs, 0.0)


def _clamp_unit_trace(diag: np.ndarray) -> np.ndarray:
    # Rounding may push the probability sum a few ulp above 1; shave the
    # excess off the largest entry so emitted operators always trace to <= 1.
    for _ in range(4):
        excess = math.fsum(diag) - 1.0
        if excess <= 0.0:
            break
        diag[int(np.argmax(diag))] -= excess
    return diag


def boson_reduced_analytic(
    squeezing: SqueezingParams,
    n_max: int | None = None,
    eps_tail: float = EPS_TAIL_DEFAULT,
) -> DensityOperator:
    """Closed-form reduced state of either member of a bosonic pair.

    Diagonal over number labels with entries (1-q) q^n, q = tanh^2 r,
    truncated at ``n_max`` (derived from ``eps_tail`` when not given).
    """
    if squeezing.statistics is not Statistics.BOSON:
        raise ValueError(f"bosonic reduction got {squeezing.statistics.value} squeezing")
    w = squeezing.boltzmann_weight
    q = w * w
    if q >= 1.0:
        raise SqueezingOverflowError("maximal squeezing has no normalisable reduction")
    if n_max is None:
        _validate_eps_tail(eps_tail)
        n_max = _truncation_level(q, eps_tail)
    if not (isinstance(n_max, int) and not isinstance(n_max, bool) and n_max >= 0):
        raise ValueError(f"n_max must be a nonnegative int, got {n_max!r}")
    if n_max + 1 > N_CAP:
        raise SqueezingOverflowError(f"dimension {n_max + 1} exceeds cap {N_CAP}")
    diag = _clamp_unit_trace((1.0 - q) * q ** np.arange(n_max + 1, dtype=np.float64))
    deficit = min(1.0 - 1e-12, q ** (n_max + 1) + 1e-12)
    return DensityOperator(
        basis=tuple(range(n_max + 1)), diag=diag, max_trace_deficit=deficit
    )


def fermion_reduced_analytic(squeezing: SqueezingParams) -> DensityOperator:
    """Closed-form reduced state of either member of a fermionic pair.

    Diagonal over the four pair labels with entries
    (cos^4 r, sin^2 r cos^2 r, sin^2 r cos^2 r, sin^4 r).
    """
    if squeezing.statistics is not Statistics.FERMION:
        raise ValueError(f"fermionic reduction got {squeezing.statistics.value} squeezing")
    w = squeezing.boltzmann_weight
    w2 = w * w
    c2 = 1.0 / (1.0 + w2)
    s2 = w2 / (1.0 + w2)
    diag = _clamp_unit_trace(
        np.array([c2 * c2, c2 * s2, s2 * c2, s2 * s2], dtype=np.float64)
    )
    return DensityOperator(basis=FERMION_BASIS, diag=diag)
