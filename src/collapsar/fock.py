"""Truncated two-mode Fock space: Schmidt-form pair states and their reductions.

Basis labels come in two kinds and are never mixed within one state:

* number labels, plain ints ``n >= 0``, for a bosonic mode;
* pair labels ``(n_particle, n_antiparticle)`` with entries in {0, 1}, for a
  fermionic mode carrying both a particle and an antiparticle slot.

A pure bipartite state stores its Schmidt pairing directly: a sequence of
horizon labels, a sequence of outgoing labels and one amplitude vector, the
i-th amplitude belonging to the i-th label of each side.  No label repeats
on either side, so tracing out one side leaves an exactly diagonal operator,
stored as its diagonal.  A run of number labels may be given as a ``range``,
which is checked by its ends instead of label by label.  Truncation is
explicit: ``tail_bound`` is an upper bound on the squared norm discarded by
the cut, and completeness is checked against it rather than silently
renormalised away.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Literal, Union

import numpy as np

BasisLabel = Union[int, tuple[int, int]]
Labels = Union[range, tuple[BasisLabel, ...]]

FERMION_BASIS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))

# Completeness window half-width for pure states.
EPS_NORM = 1e-12
# How negative a probability may be before the operator is rejected.
PSD_ATOL = 1e-10
# Default allowance on 1 - trace for a reduced operator.
TRACE_DEFICIT_DEFAULT = 1e-9
# Allowance on trace above 1 (pure rounding).
TRACE_EXCESS = 1e-12
# Eigenvalues at or below this floor are treated as exact zeros in entropies.
LAMBDA_FLOOR = 1e-30


def _is_slot(k: object) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k in (0, 1)


def _label_kind(label: object) -> str:
    if isinstance(label, bool):
        raise ValueError(f"bad basis label {label!r}")
    if isinstance(label, int):
        if label < 0:
            raise ValueError(f"number label must be nonnegative, got {label!r}")
        return "number"
    if isinstance(label, tuple) and len(label) == 2 and _is_slot(label[0]) and _is_slot(label[1]):
        return "pair"
    raise ValueError(f"bad basis label {label!r}")


def _label_run(labels: Sequence[BasisLabel]) -> tuple[Labels, set[str]]:
    """Labels frozen as a range or a tuple, with the set of their kinds.

    A range holds distinct number labels and is valid iff both its ends are
    nonnegative; any other sequence is checked label by label, and the
    caller checks it for repeats.
    """
    if isinstance(labels, range):
        if labels and min(labels[0], labels[-1]) < 0:
            raise ValueError(f"number labels must be nonnegative, got {labels!r}")
        return labels, {"number"}
    labels = tuple(labels)
    return labels, {_label_kind(lab) for lab in labels}


def _repeats(labels: Labels) -> bool:
    return not isinstance(labels, range) and len(set(labels)) != len(labels)


def _weights(amps: np.ndarray) -> np.ndarray:
    """|a|^2 per amplitude, as re^2 + im^2 for complex amplitudes."""
    if amps.dtype.kind == "c":
        return amps.real * amps.real + amps.imag * amps.imag
    return amps * amps


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Pure state of a horizon/outgoing mode pair in a truncated Fock basis.

    Parameters
    ----------
    hor, out:
        Horizon and outgoing labels; ``amplitudes[i]`` is the amplitude of
        ``|hor[i]>|out[i]>``.  No label repeats on either side (Schmidt
        form), and labels are homogeneous in kind across the whole state.
        Stored as given when a ``range``, else frozen to a tuple.
    amplitudes:
        One real or complex amplitude per label pair, stored as a read-only
        1-D float64 or complex array copied from the caller's.
    tail_bound:
        Upper bound on the squared norm removed by truncation; 0.0 for an
        exactly representable state.

    The completeness invariant is one sided: the analytic tail bound may
    overestimate the discarded mass by up to a factor 1/(1-q), so the sum
    of retained probability and ``tail_bound`` may legitimately exceed 1
    by almost ``tail_bound`` itself.
    """

    hor: Labels
    out: Labels
    amplitudes: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        hor, hor_kinds = _label_run(self.hor)
        out, out_kinds = _label_run(self.out)
        amps = np.array(self.amplitudes)
        if amps.dtype.kind not in "iufc":
            raise ValueError(f"amplitudes are not numbers: dtype {amps.dtype}")
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be a 1-D array, got shape {amps.shape}")
        if amps.size == 0:
            raise ValueError("state has no amplitudes")
        if not len(hor) == len(out) == amps.size:
            raise ValueError(
                f"{len(hor)} horizon labels, {len(out)} outgoing labels "
                f"and {amps.size} amplitudes"
            )
        if len(hor_kinds | out_kinds) != 1:
            raise ValueError("mixed number and pair labels in one state")
        if _repeats(hor) or _repeats(out):
            raise ValueError("state not in Schmidt form: a label repeats on one side")
        if not np.isfinite(amps).all():
            raise ValueError("non-finite amplitude")
        tail = self.tail_bound
        if not (isinstance(tail, (int, float)) and 0.0 <= tail < 1.0):
            raise ValueError(f"tail_bound must lie in [0, 1), got {tail!r}")
        if amps.dtype.char not in "dD":
            amps = amps.astype(np.result_type(amps, np.float64))
        amps.setflags(write=False)
        object.__setattr__(self, "hor", hor)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "amplitudes", amps)
        total = self.norm_squared() + tail
        if not (1.0 - EPS_NORM <= total <= 1.0 + EPS_NORM + tail):
            raise ValueError(
                f"state not complete: |amplitudes|^2 + tail_bound = {total!r}"
            )

    @property
    def coefficients(self) -> Mapping[tuple[BasisLabel, BasisLabel], float | complex]:
        """Read-only view ``(hor_label, out_label) -> amplitude`` of the pairing."""
        return _Coefficients(self)

    def norm_squared(self) -> float:
        return math.fsum(_weights(self.amplitudes).tolist())

    def hor_labels(self) -> tuple[BasisLabel, ...]:
        return tuple(sorted(self.hor))

    def out_labels(self) -> tuple[BasisLabel, ...]:
        return tuple(sorted(self.out))


class _Coefficients(Mapping):
    """Mapping view over a state's pairing; builds no per-label storage."""

    __slots__ = ("_state",)

    def __init__(self, state: PureBipartiteState) -> None:
        self._state = state

    def __len__(self) -> int:
        return self._state.amplitudes.size

    def __iter__(self) -> Iterator[tuple[BasisLabel, BasisLabel]]:
        return zip(self._state.hor, self._state.out)

    def __getitem__(self, key: tuple[BasisLabel, BasisLabel]) -> float | complex:
        state = self._state
        try:
            h, o = key
            i = state.hor.index(h)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if state.out[i] != o:
            raise KeyError(key)
        return state.amplitudes[i].item()


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive trace-near-one operator, diagonal in its labelled basis.

    ``basis`` is stored as a tuple; a ``range`` is accepted and checked by
    its ends.  ``diag`` holds the probabilities in basis order, as a read-only float64
    array.  ``max_trace_deficit`` widens the lower trace window for
    operators that descend from truncated states; it is a validation
    allowance, not data.
    """

    basis: tuple[BasisLabel, ...]
    diag: np.ndarray
    max_trace_deficit: float = field(default=TRACE_DEFICIT_DEFAULT, repr=False)

    def __post_init__(self) -> None:
        basis, kinds = _label_run(self.basis)
        if not basis:
            raise ValueError("empty basis")
        if len(kinds) != 1:
            raise ValueError("mixed number and pair labels in one basis")
        if _repeats(basis):
            raise ValueError("duplicate basis labels")
        basis = tuple(basis)
        diag = np.array(self.diag, dtype=np.float64, copy=True)
        if diag.shape != (len(basis),):
            raise ValueError(f"diag shape {diag.shape} does not match basis size {len(basis)}")
        if not np.isfinite(diag).all():
            raise ValueError("non-finite diagonal entries")
        if not (0.0 <= self.max_trace_deficit < 1.0):
            raise ValueError(f"bad max_trace_deficit {self.max_trace_deficit!r}")
        if float(diag.min()) < -PSD_ATOL:
            raise ValueError(f"negative diagonal entry {float(diag.min())!r}")
        tr = float(diag.sum())
        if not (1.0 - self.max_trace_deficit - 1e-15 <= tr <= 1.0 + TRACE_EXCESS):
            raise ValueError(f"trace {tr!r} outside allowed window")

        diag.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def diagonal(self) -> np.ndarray:
        """Probabilities in basis order, as a read-only array."""
        return self.diag

    def trace(self) -> float:
        return float(np.sum(self.diag))

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum: the sorted diagonal."""
        return np.sort(self.diag)

    def to_json_dict(self) -> dict:
        """Serialisable view: basis labels, diagonal, and off-diagonal weight (always 0)."""
        basis_json: list = [
            list(lab) if isinstance(lab, tuple) else int(lab) for lab in self.basis
        ]
        return {
            "basis": basis_json,
            "diag": [float(p) for p in self.diag],
            "offdiag_norm": 0.0,
        }


def partial_trace(
    state: PureBipartiteState, keep: Literal["out", "hor"] = "out"
) -> DensityOperator:
    """Reduce a pure bipartite state to one side.

    Parameters
    ----------
    state:
        The pure state to reduce.
    keep:
        Which subsystem survives: "out" (outgoing radiation, the default)
        or "hor" (horizon modes).

    Returns
    -------
    DensityOperator on the kept side, with a trace window widened by the
    state's tail bound.  The state is in Schmidt form, so each kept label
    carries the weight |amplitude|^2 of its single pair; labels come out
    sorted, which an ascending ``range`` already is.
    """
    if keep not in ("out", "hor"):
        raise ValueError(f"keep must be 'out' or 'hor', got {keep!r}")
    labels = state.out if keep == "out" else state.hor
    weights = _weights(state.amplitudes)
    if not (isinstance(labels, range) and labels.step > 0):
        order = sorted(range(len(labels)), key=labels.__getitem__)
        labels = tuple(labels[i] for i in order)
        weights = weights[order]
    deficit = min(1.0 - 1e-12, TRACE_DEFICIT_DEFAULT + state.tail_bound)
    return DensityOperator(basis=labels, diag=weights, max_trace_deficit=deficit)


def von_neumann_entropy(
    rho: DensityOperator,
    method: Literal["auto", "diagonal", "eigen"] = "auto",
) -> float:
    """Entropy -tr(rho log2 rho) in bits.

    Parameters
    ----------
    rho:
        Operator to measure.
    method:
        "diagonal" and "auto" sum over the probabilities in basis order,
        "eigen" over the ascending spectrum; the two differ only in
        summation order.

    Eigenvalues at or below LAMBDA_FLOOR count as exact zeros.
    """
    if method in ("auto", "diagonal"):
        p = rho.diag
    elif method == "eigen":
        p = rho.eigenvalues()
    else:
        raise ValueError(f"unknown method {method!r}")
    p = p[p > LAMBDA_FLOOR]
    if p.size == 0:
        return 0.0
    s = -float(np.sum(p * np.log2(p)))
    return max(0.0, s)


def purity(rho: DensityOperator) -> float:
    """tr(rho^2), the sum of the squared probabilities."""
    return float(np.dot(rho.diag, rho.diag))


def mean_occupation(rho: DensityOperator, which: Literal["particle"] = "particle") -> float:
    """Expected particle number: the number label, or a pair label's particle slot.

    "particle" is the only sector; ``which`` rejects any other name.
    """
    if which != "particle":
        raise ValueError(f"unknown sector {which!r}")
    labels = np.array(rho.basis, dtype=np.float64)
    occs = labels if labels.ndim == 1 else labels[:, 0]
    return float(np.dot(rho.diagonal(), occs))
