"""Truncated two-mode Fock space: Schmidt-form pair states and their reductions.

Basis labels come in two kinds and are never mixed within one state:

* number labels, plain ints ``n >= 0``, for a bosonic mode;
* pair labels ``(n_particle, n_antiparticle)`` with entries in {0, 1}, for a
  fermionic mode carrying both a particle and an antiparticle slot.

A pure bipartite state stores amplitudes keyed by ``(hor_label, out_label)``,
the horizon-side label first, in Schmidt form: each horizon label and each
outgoing label occurs in exactly one key.  Tracing out either side then
leaves an exactly diagonal operator, stored as its diagonal.  Truncation is
explicit: ``tail_bound`` is an upper bound on the squared norm discarded by
the cut, and completeness is checked against it rather than silently
renormalised away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Literal, Mapping, Union

import numpy as np

BasisLabel = Union[int, tuple[int, int]]

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


def _label_kind(label: object) -> str:
    if isinstance(label, bool):
        raise ValueError(f"bad basis label {label!r}")
    if isinstance(label, int):
        if label < 0:
            raise ValueError(f"number label must be nonnegative, got {label!r}")
        return "number"
    if (
        isinstance(label, tuple)
        and len(label) == 2
        and all(isinstance(k, int) and not isinstance(k, bool) and k in (0, 1) for k in label)
    ):
        return "pair"
    raise ValueError(f"bad basis label {label!r}")


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Pure state of a horizon/outgoing mode pair in a truncated Fock basis.

    Parameters
    ----------
    coefficients:
        Mapping ``(hor_label, out_label) -> amplitude``, in Schmidt form: no
        horizon label and no outgoing label occurs in two keys.  Labels must
        be homogeneous in kind across the whole state.
    tail_bound:
        Upper bound on the squared norm removed by truncation; 0.0 for an
        exactly representable state.

    The completeness invariant is one sided: the analytic tail bound may
    overestimate the discarded mass by up to a factor 1/(1-q), so the sum
    of retained probability and ``tail_bound`` may legitimately exceed 1
    by almost ``tail_bound`` itself.
    """

    coefficients: Mapping[tuple[BasisLabel, BasisLabel], complex]
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        coeffs = dict(self.coefficients)
        if not coeffs:
            raise ValueError("state has no amplitudes")
        for key in coeffs:
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"amplitude key must be (hor, out), got {key!r}")
        hor = {k[0] for k in coeffs}
        out = {k[1] for k in coeffs}
        # Each side is checked on its own: True == 1, so a union of the two
        # sets could keep an int label and drop the bool label beside it.
        # Within one side such a collapse fails the Schmidt check below.
        if len({_label_kind(lab) for lab in hor} | {_label_kind(lab) for lab in out}) != 1:
            raise ValueError("mixed number and pair labels in one state")
        if not len(coeffs) == len(hor) == len(out):
            raise ValueError("state not in Schmidt form: a label occurs in two amplitude keys")
        for key, amp in coeffs.items():
            if isinstance(amp, bool) or not isinstance(amp, (int, float, complex)):
                raise ValueError(f"amplitude at {key!r} is not a number: {amp!r}")
            c = complex(amp)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite amplitude at {key!r}")
        tail = self.tail_bound
        if not (isinstance(tail, (int, float)) and 0.0 <= tail < 1.0):
            raise ValueError(f"tail_bound must lie in [0, 1), got {tail!r}")
        total = self.norm_squared() + tail
        if not (1.0 - EPS_NORM <= total <= 1.0 + EPS_NORM + tail):
            raise ValueError(
                f"state not complete: |amplitudes|^2 + tail_bound = {total!r}"
            )
        object.__setattr__(self, "coefficients", MappingProxyType(coeffs))

    def norm_squared(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.coefficients.values())

    def hor_labels(self) -> tuple[BasisLabel, ...]:
        return tuple(sorted({k[0] for k in self.coefficients}))

    def out_labels(self) -> tuple[BasisLabel, ...]:
        return tuple(sorted({k[1] for k in self.coefficients}))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive trace-near-one operator, diagonal in its labelled basis.

    ``diag`` holds the probabilities in basis order, as a read-only float64
    array.  ``max_trace_deficit`` widens the lower trace window for
    operators that descend from truncated states; it is a validation
    allowance, not data.
    """

    basis: tuple[BasisLabel, ...]
    diag: np.ndarray
    max_trace_deficit: float = field(default=TRACE_DEFICIT_DEFAULT, repr=False)

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("empty basis")
        kinds = {_label_kind(lab) for lab in basis}
        if len(kinds) != 1:
            raise ValueError("mixed number and pair labels in one basis")
        if len(set(basis)) != len(basis):
            raise ValueError("duplicate basis labels")
        diag = np.array(self.diag, dtype=np.float64, copy=True)
        if diag.shape != (len(basis),):
            raise ValueError(f"diag shape {diag.shape} does not match basis size {len(basis)}")
        if not np.all(np.isfinite(diag)):
            raise ValueError("non-finite diagonal entries")
        if not (0.0 <= self.max_trace_deficit < 1.0):
            raise ValueError(f"bad max_trace_deficit {self.max_trace_deficit!r}")
        if float(diag.min()) < -PSD_ATOL:
            raise ValueError(f"negative diagonal entry {float(diag.min())!r}")
        tr = float(np.sum(diag))
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
    carries the weight |amplitude|^2 of its single key.
    """
    if keep not in ("out", "hor"):
        raise ValueError(f"keep must be 'out' or 'hor', got {keep!r}")
    kept_pos = 1 if keep == "out" else 0
    weights = {}
    for key, amp in state.coefficients.items():
        a = complex(amp)
        weights[key[kept_pos]] = (a.conjugate() * a).real
    labels = tuple(sorted(weights))
    diag = np.array([weights[lab] for lab in labels], dtype=np.float64)
    deficit = min(1.0 - 1e-12, TRACE_DEFICIT_DEFAULT + state.tail_bound)
    return DensityOperator(basis=labels, diag=diag, max_trace_deficit=deficit)


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


def mean_occupation(
    rho: DensityOperator,
    which: Literal["total", "particle", "antiparticle"] = "total",
) -> float:
    """Expectation of the occupation number encoded in the basis labels.

    For number labels "particle" and "total" both mean the label itself;
    "antiparticle" is rejected.  For pair labels the three sectors read the
    respective components of ``(n_particle, n_antiparticle)``.
    """
    if which not in ("total", "particle", "antiparticle"):
        raise ValueError(f"unknown sector {which!r}")
    occs = np.empty(rho.dim, dtype=np.float64)
    for i, lab in enumerate(rho.basis):
        if isinstance(lab, int):
            if which == "antiparticle":
                raise ValueError("number basis has no antiparticle sector")
            occs[i] = lab
        else:
            n_p, n_a = lab
            if which == "particle":
                occs[i] = n_p
            elif which == "antiparticle":
                occs[i] = n_a
            else:
                occs[i] = n_p + n_a
    return float(np.dot(rho.diagonal(), occs))
