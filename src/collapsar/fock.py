"""Truncated two-mode Fock space: Schmidt-form pair states and their reductions.

The statistics of a mode fixes its label layout; no caller chooses labels.
A pair state stores one level vector, its Schmidt weights.  A bosonic state
of d weights pairs number level ``n`` on the horizon side with the same
level outside, ``n < d``.  A fermionic state holds four weights over pair
labels ``(n_particle, n_antiparticle)``: ``FERMION_BASIS[i]`` on the
horizon side pairs with its slot-exchanged partner outside.  Each label
appears once per side, and a built state weighs exchanged labels alike, so
tracing out either side leaves the same diagonal operator over ``range(d)``
or ``FERMION_BASIS``: the weights.  The crossed pairing and the amplitudes'
signs show only in ``coefficients`` and ``amplitudes``, which derive each
amplitude from its weight.  Truncation is explicit: ``tail_bound`` bounds
the squared norm discarded by the cut, and completeness is checked against
it rather than silently renormalised away.

Neither class takes a caller's numbers: a pair state comes only from the
builders in ``states``, and an operator only from ``partial_trace``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .geometry import _FERMION, Statistics

BasisLabel = Union[int, tuple[int, int]]

FERMION_BASIS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
# Fermion amplitude signs over FERMION_BASIS, the pair-creation generator's
# (see build_fermion_state); every boson amplitude is positive.
_FERMION_SIGNS = (1.0, -1.0, 1.0, -1.0)
# The outgoing partner of each FERMION_BASIS label: its slots exchanged.
_FERMION_PARTNERS = tuple((a, p) for p, a in FERMION_BASIS)

# Completeness window half-width for pure states.
EPS_NORM = 1e-12
# Within this distance of a completeness window edge the pairwise sum of
# the weights does not decide; math.fsum does.  Over 20x numpy's pairwise
# error bound on a sum near 1, even at d = 2.5e7.
_EDGE_SLACK = 1e-13
# Eigenvalues at or below this floor are treated as exact zeros in entropies.
LAMBDA_FLOOR = 1e-30


def _basis(statistics: Statistics, d: int) -> Sequence[BasisLabel]:
    return FERMION_BASIS if statistics is _FERMION else range(d)


@dataclass(frozen=True, eq=False, init=False)
class PureBipartiteState:
    """Pure state of a horizon/outgoing mode pair in a truncated Fock basis.

    ``weights`` holds the Schmidt weight, the squared amplitude, of each
    label pair in the horizon side's basis order, as a read-only float64
    array: the state's one level vector, which ``partial_trace`` hands on
    as the diagonal of either side.  The pairing and the amplitudes' signs
    follow from ``statistics``, so ``amplitudes`` and ``coefficients``
    derive each amplitude from its weight.  Only ``build_boson_state`` and
    ``build_fermion_state`` make one, through ``_built``; calling the class
    raises TypeError.  ``tail_bound`` bounds the squared norm removed by
    truncation, 0.0 for an exact state.  The analytic bound may overestimate
    the discarded mass by up to a factor 1/(1-q), so the retained
    probability plus ``tail_bound`` may exceed 1 by almost ``tail_bound``
    itself.

    The squared norm is numpy's pairwise sum of the weights.  Within
    ``_EDGE_SLACK`` of a window edge, or when the check fails, the exactly
    rounded ``norm_squared()`` (``math.fsum``) decides instead and is the
    total an error reports, so every decision is that of the exact sum.
    """

    statistics: Statistics
    weights: np.ndarray
    tail_bound: float

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("PureBipartiteState: use build_boson_state or build_fermion_state")

    @classmethod
    def _built(
        cls, statistics: Statistics, weights: np.ndarray, tail_bound: float
    ) -> PureBipartiteState:
        """Adopt a builder's fresh float64 weights, checked once for completeness.

        The builder fixes the statistics, the length and a tail bound below
        1e-6, and its weights are the squares of amplitudes in [-1, 1].  The
        array is kept with no copy, read-only; it is the diagonal that
        ``partial_trace`` hands on.

        The builder also vouches for the order: the weights, and so both
        reductions, are non-increasing, so the entropy and the temperature
        fit read every operator as a descending spectrum.  Rounding cannot
        undo the order, because correctly rounded products and squares of
        non-negative numbers are monotone and each step between neighbours
        is far wider than the rounding of ``exp``:

        - boson: level n is (exp(-x n) c)^2 with c = sqrt(-expm1(-2x)).  The
          arguments -x n are exact to a relative 2^-53 and step by x, and
          neighbouring exps differ by the factor e^(-x) <= e^(-1e-6) (the
          builder refuses x below X_MIN), a step of 1e-6 against a few ulp
          of error in ``exp``; scaling by c and squaring keep the order.
        - fermion: r = atan(e^(-x)) < pi/4 for x >= X_MIN, so c > s by about
          7e-7, far more than an ulp, and (c c)^2 >= (s c)^2 >= (s s)^2.  The
          exchanged labels (0, 1) and (1, 0) both carry (s c)^2, so both
          sides reduce to these weights.  A fermion vector whose exchanged
          weights differ is refused.
        """
        weights.setflags(write=False)
        state = object.__new__(cls)
        # Frozen: every field goes straight into the instance, in one step.
        state.__dict__.update(statistics=statistics, weights=weights, tail_bound=tail_bound)
        total = float(np.add.reduce(weights)) + tail_bound
        upper = 1.0 + EPS_NORM + tail_bound
        if not 1.0 - EPS_NORM + _EDGE_SLACK < total < upper - _EDGE_SLACK:
            # At an edge, or failing: decide and report on the exact sum.
            total = state.norm_squared() + tail_bound
            if not 1.0 - EPS_NORM <= total <= upper:
                raise ValueError(
                    f"state not complete: |amplitudes|^2 + tail_bound = {total!r}"
                )
        if statistics is _FERMION and weights.item(1) != weights.item(2):
            raise ValueError(
                "exchanged labels (0, 1) and (1, 0) must carry equal weights, got "
                f"{weights.item(1)!r} and {weights.item(2)!r}"
            )
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only real amplitudes, sqrt(weights) with the statistics' signs.

        Derived on each read.  The root of a normal weight, fl(a a), is |a|
        bit for bit; a weight that underflowed to 0.0 gives a signed zero.
        """
        amps = np.sqrt(self.weights)
        if self.statistics is _FERMION:
            amps *= _FERMION_SIGNS
        amps.setflags(write=False)
        return amps

    @property
    def coefficients(self) -> Mapping[tuple[BasisLabel, BasisLabel], float]:
        """Read-only view ``(hor_label, out_label) -> amplitude`` of the pairing."""
        return _Coefficients(self)

    def norm_squared(self) -> float:
        """Exactly rounded sum of the weights, by ``math.fsum``.

        fsum reads the array in place, one weight at a time, so the sum
        holds no list of Python floats beside the state.
        """
        return math.fsum(self.weights)

    def hor_labels(self) -> tuple[BasisLabel, ...]:
        return tuple(_basis(self.statistics, self.weights.size))

    # Sorted, both sides carry the same labels.
    out_labels = hor_labels


def _is_int(value: object) -> bool:
    """An int; a bool is not a label here."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Coefficients(Mapping):
    """Mapping view over a state's pairing; builds no per-label storage.

    A key is a pair of labels of the state's kind: ints for a boson state,
    pairs of ints for a fermion one.  Anything else, a bool or a float that
    equals a label included, is not in the view.  An item's amplitude is
    derived when it is read, with the bits of ``amplitudes``.
    """

    __slots__ = ("_hor", "_out", "_weights", "_pairs")

    def __init__(self, state: PureBipartiteState) -> None:
        self._weights = state.weights
        self._hor = self._out = _basis(state.statistics, self._weights.size)
        self._pairs = state.statistics is _FERMION
        if self._pairs:
            self._out = _FERMION_PARTNERS

    def _is_label(self, value: object) -> bool:
        if self._pairs:
            return isinstance(value, tuple) and len(value) == 2 and all(map(_is_int, value))
        return _is_int(value)

    def __len__(self) -> int:
        return self._weights.size

    def __iter__(self) -> Iterator[tuple[BasisLabel, BasisLabel]]:
        return zip(self._hor, self._out)

    def __getitem__(self, key: tuple[BasisLabel, BasisLabel]) -> float:
        try:
            h, o = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if not (self._is_label(h) and self._is_label(o)):
            raise KeyError(key)
        # h is a label of the state's kind: it matches only itself, and a
        # boson range finds it without a scan.
        try:
            i = self._hor.index(h)
        except ValueError:
            raise KeyError(key) from None
        if self._out[i] != o:
            raise KeyError(key)
        amp = math.sqrt(self._weights.item(i))
        return amp * _FERMION_SIGNS[i] if self._pairs else amp


@dataclass(frozen=True, eq=False, init=False)
class DensityOperator:
    """Reduction of a pair state to one side, diagonal in the basis its statistics fixes.

    ``diag`` holds the probabilities in ``basis`` order, as a read-only
    float64 array, non-increasing as the state's builder vouches (see
    ``PureBipartiteState._built``), so it is the spectrum read backwards.
    Only ``partial_trace`` makes one, through ``_reduced``; calling the
    class raises TypeError.
    """

    statistics: Statistics
    diag: np.ndarray

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("DensityOperator: use partial_trace")

    @classmethod
    def _reduced(cls, statistics: Statistics, diag: np.ndarray) -> DensityOperator:
        """Adopt, unchecked and uncopied, a diagonal that a built pair state fixed.

        A built state's weights are finite and non-negative, and their sum
        is the one the state accepted, so a check here would repeat the
        state's.  The diagonal arrives read-only, so no flag is set here.
        """
        rho = object.__new__(cls)
        rho.__dict__.update(statistics=statistics, diag=diag)
        return rho

    @property
    def basis(self) -> Sequence[BasisLabel]:
        """``range(dim)`` for a bosonic mode, ``FERMION_BASIS`` for a fermionic one."""
        return _basis(self.statistics, self.diag.size)

    @property
    def dim(self) -> int:
        return self.diag.size

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

    Each kept label carries the weight of its single pair; a fermionic
    outgoing label takes it from its slot-exchanged horizon partner, which a
    built state weighs the same (see ``_built``).  So the operator adopts the
    state's read-only weights for either ``keep``: the reduction is checked
    once, on its pair state, with no square, copy, sum, sign or order check.
    This is the only way to make a ``DensityOperator``.
    """
    if keep not in ("out", "hor"):
        raise ValueError(f"keep must be 'out' or 'hor', got {keep!r}")
    return DensityOperator._reduced(state.statistics, state.weights)


def _above(diag: np.ndarray, floor: float) -> np.ndarray:
    """The prefix of a non-increasing ``diag`` above ``floor``; ``diag`` itself if none is cut.

    The entries at or below the floor are a suffix, counted by a binary
    search of the reversed diagonal.
    """
    if diag.item(-1) <= floor:
        return diag[: diag.size - diag[::-1].searchsorted(floor, side="right")]
    return diag


def von_neumann_entropy(rho: DensityOperator, method: Literal["eigen"] = "eigen") -> float:
    """Entropy -tr(rho log2 rho) in bits, summed over the ascending spectrum.

    ``method`` accepts only "eigen".  Eigenvalues at or below LAMBDA_FLOOR
    count as exact zeros; a binary search of the spectrum counts them.  The
    non-increasing diagonal is its spectrum read backwards: the logarithms
    run over it as it lies, in contiguous memory (numpy's ``log2`` may round
    a strided view differently), and only the pairwise sum reads the terms
    in reverse, so no spectrum is copied.
    """
    if method != "eigen":
        raise ValueError(f"unknown method {method!r}")
    p = _above(rho.diag, LAMBDA_FLOOR)
    t = np.log2(p)
    t *= p
    return max(0.0, -float(np.add.reduce(t[::-1])))


def mean_occupation(rho: DensityOperator, which: Literal["particle"] = "particle") -> float:
    """Expected particle number; "particle" is the only sector ``which`` accepts.

    Boson level n holds n particles; numpy's pairwise sum, unlike a BLAS
    dot, adds in an order that no thread count changes, so the printed
    digits are reproducible.  A fermion pair label holds the count in its
    first slot, so only (1, 0) and (1, 1) count: one addition, with the bits
    of the four-term sum, whose other two terms are exact zeros.
    """
    if which != "particle":
        raise ValueError(f"unknown sector {which!r}")
    diag = rho.diag
    if rho.statistics is _FERMION:
        return diag.item(2) + diag.item(3)
    numbers = np.arange(diag.size, dtype=np.float64)
    numbers *= diag
    return float(np.add.reduce(numbers))
