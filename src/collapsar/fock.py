"""Truncated two-mode Fock space: Schmidt-form pair states and their reductions.

The statistics of a mode fixes its label layout; no caller chooses labels.
A bosonic state of d amplitudes pairs number level ``n`` on the horizon side
with the same level outside, ``n < d``.  A fermionic state holds four
amplitudes over pair labels ``(n_particle, n_antiparticle)``:
``FERMION_BASIS[i]`` on the horizon side pairs with its slot-exchanged
partner outside.  Each label appears once per side, so tracing out a side
leaves an exactly diagonal operator over ``range(d)`` or ``FERMION_BASIS``,
stored as its diagonal.  Truncation is explicit: ``tail_bound`` bounds the
squared norm discarded by the cut, and completeness is checked against it
rather than silently renormalised away.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Literal, Union

import numpy as np

from .geometry import Statistics, _is_real

BasisLabel = Union[int, tuple[int, int]]

FERMION_BASIS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
# Index in FERMION_BASIS of each label's slot-exchanged partner; its own inverse.
_SLOT_EXCHANGE = [0, 2, 1, 3]
# Particle number of each FERMION_BASIS label: its first slot.
_FERMION_NUMBERS = np.array([lab[0] for lab in FERMION_BASIS], dtype=np.float64)
_FERMION_NUMBERS.setflags(write=False)

# Completeness window half-width for pure states.
EPS_NORM = 1e-12
# How negative a probability may be before the operator is rejected.
PSD_ATOL = 1e-10
# Default allowance on 1 - trace for a reduced operator.
TRACE_DEFICIT_DEFAULT = 1e-9
# Allowance on trace above 1 (pure rounding).
TRACE_EXCESS = 1e-12
# Within this distance of a completeness window edge the pairwise sum of
# squares does not decide; math.fsum does.  Over 20x numpy's pairwise
# error bound on a sum near 1, even at d = 2e7.
_EDGE_SLACK = 1e-13
# Eigenvalues at or below this floor are treated as exact zeros in entropies.
LAMBDA_FLOOR = 1e-30


def _basis(statistics: Statistics, d: int) -> Sequence[BasisLabel]:
    return FERMION_BASIS if statistics is Statistics.FERMION else range(d)


def _one_signed_zero(values: np.ndarray) -> bool:
    """No two zeros of ``values`` differ in sign."""
    signs = np.signbit(values[values == 0.0])
    return bool(signs.all() or not signs.any())


def _real_vector(statistics: Statistics, values: object, what: str) -> np.ndarray:
    """A float64 copy of ``values``: real numbers, one per basis label."""
    vec = np.array(values)
    if vec.dtype.kind not in "iuf":
        raise ValueError(f"{what} are not real numbers: dtype {vec.dtype}")
    if vec.ndim != 1:
        raise ValueError(f"{what} must be a 1-D array, got shape {vec.shape}")
    if vec.size == 0:
        raise ValueError(f"no {what}")
    if statistics is Statistics.FERMION and vec.size != len(FERMION_BASIS):
        raise ValueError(f"a fermion mode has 4 {what}, got {vec.size}")
    return vec.astype(np.float64, copy=False)


def _require_fraction(name: str, value: object) -> None:
    if not (_is_real(value) and 0.0 <= value < 1.0):
        raise ValueError(f"{name} must lie in [0, 1), got {value!r}")


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Pure state of a horizon/outgoing mode pair in a truncated Fock basis.

    ``amplitudes`` holds one real amplitude per label pair, in the horizon
    side's basis order, as a read-only float64 copy of the caller's; the
    pairing follows from ``statistics``.  ``tail_bound`` bounds the squared
    norm removed by truncation, 0.0 for an exact state.  The analytic bound
    may overestimate the discarded mass by up to a factor 1/(1-q), so the
    retained probability plus ``tail_bound`` may exceed 1 by almost
    ``tail_bound`` itself.

    The squared norm is numpy's pairwise sum of the squared amplitudes.
    Within ``_EDGE_SLACK`` of a window edge, or when the check fails, the
    exactly rounded ``norm_squared()`` (``math.fsum``) decides instead and is
    the total an error reports, so every decision is that of the exact sum.
    """

    statistics: Statistics
    amplitudes: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        statistics = Statistics(self.statistics)
        amps = _real_vector(statistics, self.amplitudes, "amplitudes")
        with np.errstate(over="ignore"):
            total = float((amps * amps).sum())
        # A nan or inf amplitude always makes the sum non-finite.
        if not math.isfinite(total) and not np.isfinite(amps).all():
            raise ValueError("non-finite amplitude")
        tail = self.tail_bound
        _require_fraction("tail_bound", tail)
        amps.setflags(write=False)
        object.__setattr__(self, "statistics", statistics)
        object.__setattr__(self, "amplitudes", amps)
        total += tail
        upper = 1.0 + EPS_NORM + tail
        if not 1.0 - EPS_NORM + _EDGE_SLACK < total < upper - _EDGE_SLACK:
            # At an edge, or failing: decide and report on the exact sum.
            total = self.norm_squared() + tail
            if not 1.0 - EPS_NORM <= total <= upper:
                raise ValueError(
                    f"state not complete: |amplitudes|^2 + tail_bound = {total!r}"
                )

    @property
    def coefficients(self) -> Mapping[tuple[BasisLabel, BasisLabel], float]:
        """Read-only view ``(hor_label, out_label) -> amplitude`` of the pairing."""
        return _Coefficients(self)

    def norm_squared(self) -> float:
        """Exactly rounded sum of the squared amplitudes; inf past the float range."""
        with np.errstate(over="ignore"):
            squares = (self.amplitudes * self.amplitudes).tolist()
        try:
            return math.fsum(squares)
        except OverflowError:
            return math.inf

    def hor_labels(self) -> tuple[BasisLabel, ...]:
        return tuple(_basis(self.statistics, self.amplitudes.size))

    # Sorted, both sides carry the same labels.
    out_labels = hor_labels


class _Coefficients(Mapping):
    """Mapping view over a state's pairing; builds no per-label storage."""

    __slots__ = ("_hor", "_out", "_amps")

    def __init__(self, state: PureBipartiteState) -> None:
        self._amps = state.amplitudes
        self._hor = self._out = _basis(state.statistics, self._amps.size)
        if state.statistics is Statistics.FERMION:
            self._out = tuple(FERMION_BASIS[i] for i in _SLOT_EXCHANGE)

    def __len__(self) -> int:
        return self._amps.size

    def __iter__(self) -> Iterator[tuple[BasisLabel, BasisLabel]]:
        return zip(self._hor, self._out)

    def __getitem__(self, key: tuple[BasisLabel, BasisLabel]) -> float:
        try:
            h, o = key
            i = self._hor.index(h)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if self._out[i] != o:
            raise KeyError(key)
        return self._amps[i].item()


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive trace-near-one operator, diagonal in the basis its statistics fixes.

    ``diag`` holds the probabilities in ``basis`` order, as a read-only
    float64 array.  ``max_trace_deficit`` widens the lower trace window for
    operators that descend from truncated states; it is a validation
    allowance, not data.  The constructor checks a caller's probabilities;
    a reduction from ``partial_trace`` is checked once, on its pair state.
    """

    statistics: Statistics
    diag: np.ndarray
    max_trace_deficit: float = field(default=TRACE_DEFICIT_DEFAULT, repr=False)

    def __post_init__(self) -> None:
        statistics = Statistics(self.statistics)
        diag = _real_vector(statistics, self.diag, "probabilities")
        with np.errstate(over="ignore", invalid="ignore"):
            tr = float(diag.sum())
        # A nan or inf entry always makes the trace non-finite.
        if not math.isfinite(tr) and not np.isfinite(diag).all():
            raise ValueError("non-finite diagonal entries")
        deficit = self.max_trace_deficit
        _require_fraction("max_trace_deficit", deficit)
        if float(diag.min()) < -PSD_ATOL:
            raise ValueError(f"negative diagonal entry {float(diag.min())!r}")
        if not (1.0 - deficit - 1e-15 <= tr <= 1.0 + TRACE_EXCESS):
            raise ValueError(f"trace {tr!r} outside allowed window")

        diag.setflags(write=False)
        object.__setattr__(self, "statistics", statistics)
        object.__setattr__(self, "diag", diag)

    @classmethod
    def _reduced(
        cls, statistics: Statistics, diag: np.ndarray, max_trace_deficit: float
    ) -> DensityOperator:
        """Adopt a fresh diagonal that a validated pair state fixed, unchecked.

        The squares of finite amplitudes are finite and non-negative, and
        their sum is the one the state accepted, so the constructor's checks
        would repeat the state's.  The windows differ only at two edges: a
        sum whose exact total sits on the state's upper edge may lie an ulp
        above the trace window, and a tail bound within 1e-9 of 1 lets the
        state keep less weight than the clamped trace window asks.
        """
        rho = object.__new__(cls)
        diag.setflags(write=False)
        object.__setattr__(rho, "statistics", statistics)
        object.__setattr__(rho, "diag", diag)
        object.__setattr__(rho, "max_trace_deficit", max_trace_deficit)
        return rho

    @property
    def basis(self) -> Sequence[BasisLabel]:
        """``range(dim)`` for a bosonic mode, ``FERMION_BASIS`` for a fermionic one."""
        return _basis(self.statistics, self.diag.size)

    @property
    def dim(self) -> int:
        return self.diag.size

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum: the sorted diagonal, as a fresh contiguous array.

        A non-increasing diagonal, as every reduction of a built state is,
        is reversed rather than sorted; the bits are those of ``np.sort``.
        The one exception sorts: a tie of +0.0 and -0.0, whose input order
        ``np.sort`` keeps.  Like its diagonal, the spectrum of a reduction is
        checked once, on its pair state.
        """
        diag = self.diag
        if (diag[1:] <= diag[:-1]).all() and (diag[-1] > 0.0 or _one_signed_zero(diag)):
            return diag[::-1].copy()
        return np.sort(diag)

    def to_json_dict(self) -> dict:
        """Serialisable view: basis labels, diagonal, and off-diagonal weight (always 0)."""
        return {
            "basis": [list(lab) if isinstance(lab, tuple) else lab for lab in self.basis],
            "diag": [float(p) for p in self.diag],
            "offdiag_norm": 0.0,
        }


def partial_trace(
    state: PureBipartiteState, keep: Literal["out", "hor"] = "out"
) -> DensityOperator:
    """Reduce a pure bipartite state to the side ``keep``, "out" or "hor".

    Each kept label carries the weight amplitude^2 of its single pair; a
    fermionic outgoing label takes it from its slot-exchanged horizon
    partner.  The trace window is widened by the state's tail bound.  The
    reduction is checked once, on its pair state: the operator adopts the
    fresh weights without a second copy, sum or sign check.
    """
    if keep not in ("out", "hor"):
        raise ValueError(f"keep must be 'out' or 'hor', got {keep!r}")
    weights = state.amplitudes * state.amplitudes
    if keep == "out" and state.statistics is Statistics.FERMION:
        weights = weights[_SLOT_EXCHANGE]
    deficit = min(1.0 - 1e-12, TRACE_DEFICIT_DEFAULT + state.tail_bound)
    return DensityOperator._reduced(state.statistics, weights, deficit)


def von_neumann_entropy(rho: DensityOperator, method: Literal["eigen"] = "eigen") -> float:
    """Entropy -tr(rho log2 rho) in bits, summed over the ascending spectrum.

    ``method`` accepts only "eigen".  Eigenvalues at or below LAMBDA_FLOOR
    count as exact zeros.
    """
    if method != "eigen":
        raise ValueError(f"unknown method {method!r}")
    p = rho.eigenvalues()
    if p[0] <= LAMBDA_FLOOR:
        p = p[np.searchsorted(p, LAMBDA_FLOOR, side="right") :]
        if p.size == 0:
            return 0.0
    t = np.log2(p)
    t *= p
    return max(0.0, -float(t.sum()))


def mean_occupation(rho: DensityOperator, which: Literal["particle"] = "particle") -> float:
    """Expected particle number; "particle" is the only sector ``which`` accepts.

    Boson level n holds n particles; a fermion pair label holds the count in
    its first slot.  numpy's pairwise sum, unlike a BLAS dot, adds in an
    order that no thread count changes, so the printed digits are
    reproducible.
    """
    if which != "particle":
        raise ValueError(f"unknown sector {which!r}")
    if rho.statistics is Statistics.FERMION:
        numbers = _FERMION_NUMBERS
    else:
        numbers = np.arange(rho.dim, dtype=np.float64)
    return float((rho.diag * numbers).sum())
