"""Entanglement entropy of collapse radiation: closed forms, numerics, and sweeps.

Every quantity here comes in two independent routes that the tests hold
against each other: a closed-form expression in the squeezing parameters,
and a numerical route that builds the truncated pair state, traces out one
side, and sums over the spectrum of the diagonal that remains.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import SqueezingOverflowError
from .fock import DensityOperator, mean_occupation, partial_trace, von_neumann_entropy
from .geometry import (
    BlackHoleParams,
    ModeChannel,
    SqueezingParams,
    Statistics,
    _require_finite_positive,
    _require_statistics,
    dimensionless_x,
    squeezing_for,
)
from .states import (
    EPS_TAIL_DEFAULT,
    _validate_eps_tail,
    build_boson_state,
    build_fermion_state,
)

_LN2 = math.log(2.0)

# Occupation probabilities below this carry no usable information for the
# log-linear temperature fit.
_FIT_FLOOR = 1e-15

# Bracket on which crossover() bisects S_f - S_b.  The tests check that
# S_f - S_b changes sign exactly once on a log grid over [1e-3, 100], and
# that the change lies inside this bracket.
CROSSOVER_BRACKET = (0.1, 1.0)


def boson_entropy(squeezing: SqueezingParams) -> float:
    """Closed-form single-mode entropy of a bosonic pair, in bits.

    Equals cosh^2(r) log2 cosh^2(r) - sinh^2(r) log2 sinh^2(r), evaluated
    in the equivalent stable form -log2(1-q) - q log2(q)/(1-q) with
    q = tanh^2(r).  Returns inf at the maximal-squeezing edge q == 1.
    """
    _require_statistics(squeezing, Statistics.BOSON)
    w = squeezing.boltzmann_weight
    q = w * w
    if q == 0.0:
        return 0.0
    if q >= 1.0:
        return math.inf
    return (-math.log1p(-q) - q * math.log(q) / (1.0 - q)) / _LN2


def _xlog2(p: float) -> float:
    return 0.0 if p == 0.0 else p * math.log2(p)


def fermion_entropy(squeezing: SqueezingParams) -> float:
    """Closed-form single-mode entropy of a fermionic pair, in bits.

    Equals -2 [cos^2 r log2 cos^2 r + sin^2 r log2 sin^2 r]; bounded by 2,
    the two bits of a maximally mixed particle/antiparticle slot pair.
    """
    _require_statistics(squeezing, Statistics.FERMION)
    w = squeezing.boltzmann_weight
    w2 = w * w
    denom = 1.0 + w2
    c2 = 1.0 / denom
    s2 = w2 / denom
    # max() turns the -0.0 of a frozen-out mode (c2 == 1, s2 == 0) into 0.0.
    return max(0.0, -2.0 * (_xlog2(c2) + _xlog2(s2)))


@dataclass(frozen=True)
class EntropyReport:
    """One mode's entanglement summary; field order matches the CSV schema."""

    x: float
    omega: float
    mass: float
    statistics: Statistics
    S_closed: float
    S_numeric: float
    gap: float
    mean_occ: float
    T_ratio: float
    error: str | None = None


CSV_HEADER = tuple(f.name for f in fields(EntropyReport))


def temperature_ratio_fit(rho: DensityOperator, x: float) -> float:
    """Radiation temperature read off the occupation spectrum, over T_H.

    Bosonic ladders get the least-squares slope of y = log p(n) against n
    over the levels above the fit floor, from two centred vector sums,
    sum((n - mean n) (y - y_mid)) / sum((n - mean n)^2), with no Vandermonde
    matrix and no lstsq solve.  Since sum(n - mean n) = 0, the offset y_mid
    does not change the slope; taking the middle sample rather than the mean
    keeps the terms small and makes a fit over two adjacent levels exactly
    y1 - y0.  Fermionic operators use the two-level ratio p(0,1)/p(0,0).
    Returns 1 for an exactly thermal spectrum and nan when the spectrum
    retains too little weight to fit, as when a fermionic p(0,0) or p(0,1)
    is subnormal, or shows no falling slope.
    """
    _require_finite_positive("x", x)
    diag = rho.diag
    if rho.statistics is Statistics.BOSON:
        # The diagonal is non-increasing (see PureBipartiteState._built), so
        # the levels above the floor are a prefix: all of them, or a count.
        k = diag.size if diag[-1] > _FIT_FLOOR else np.count_nonzero(diag > _FIT_FLOOR)
        if k < 2:
            return math.nan
        # The fitted levels are 0..k-1, whose mean is exactly (k - 1) / 2.
        # One fill of exact half-integers, centred on that mean.
        dn = np.arange(-(k - 1) / 2, (k + 1) / 2)
        y = diag[:k]
        # sum(dn^2) in closed form.  Each term is a half-integer squared
        # and every partial sum is exact for k below 3e5, so the pairwise
        # sum is this value, correctly rounded, bit for bit.
        sxx = k * (k * k - 1) / 12
        y = np.log(y)
        y -= y[y.size // 2]
        y *= dn
        slope = float(y.sum() / sxx)
        if not (math.isfinite(slope) and slope < 0.0):
            return math.nan
        return -2.0 * x / slope
    # FERMION_BASIS starts with (0, 0), (0, 1).
    p00 = float(diag[0])
    p01 = float(diag[1])
    if p00 < sys.float_info.min or p01 < sys.float_info.min or p00 == p01:
        return math.nan
    return -2.0 * x / math.log(p01 / p00)


def entropy_report(
    params: BlackHoleParams,
    channel: ModeChannel,
    eps_tail: float = EPS_TAIL_DEFAULT,
) -> EntropyReport:
    """Closed-form and numerical entropies for one mode, with thermality checks.

    The numerical column always goes the long way, through ``_reduction``:
    build the truncated pair state, trace out the horizon side, and sum over
    the spectrum of the diagonal reduction.  ``mean_occ`` is the
    particle-sector occupation of the outgoing side and ``T_ratio`` the
    fitted-to-Hawking temperature ratio.

    Raises SqueezingOverflowError when the mode cannot be represented;
    sweep() converts that into an in-band error row instead.
    """
    sq = squeezing_for(params, channel)
    s_closed = _closed_form_entropy(sq)
    rho = _reduction(sq, eps_tail)
    s_numeric = von_neumann_entropy(rho, method="eigen")
    return EntropyReport(
        x=sq.x,
        omega=float(channel.omega),
        mass=float(params.mass),
        statistics=sq.statistics,
        S_closed=s_closed,
        S_numeric=s_numeric,
        gap=abs(s_closed - s_numeric),
        mean_occ=mean_occupation(rho),
        T_ratio=temperature_ratio_fit(rho, sq.x),
    )


def _closed_form_entropy(sq: SqueezingParams) -> float:
    """The closed route: the one place that picks a closed form by statistics."""
    if sq.statistics is Statistics.BOSON:
        return boson_entropy(sq)
    return fermion_entropy(sq)


def _reduction(sq: SqueezingParams, eps_tail: float) -> DensityOperator:
    """The numeric route: build the pair state of ``sq`` and trace out the horizon side.

    A fermion mode needs no truncation, but refuses a bad ``eps_tail`` as a
    boson one does.  The builders and ``partial_trace`` are read from this
    module's globals, which ``bench/tracer.py`` rebinds.
    """
    if sq.statistics is Statistics.FERMION:
        _validate_eps_tail(eps_tail)
        return partial_trace(build_fermion_state(sq))
    return partial_trace(build_boson_state(sq, eps_tail=eps_tail))


@dataclass(frozen=True)
class CrossoverResult:
    """Root of S_fermion - S_boson in x, with convergence evidence."""

    x_star: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


def crossover() -> CrossoverResult:
    """Locate the x where the fermionic entropy overtakes the bosonic one.

    Bisects f(x) = S_fermion(x) - S_boson(x) on ``CROSSOVER_BRACKET`` until
    the bracket is two adjacent floats, and returns the endpoint with the
    smaller |f|.
    """

    def f(x: float) -> float:
        s_f, s_b = (_closed_form_entropy(SqueezingParams(st, x)) for st in ("fermion", "boson"))
        return s_f - s_b

    a, b = CROSSOVER_BRACKET
    fa, fb = f(a), f(b)
    iterations = 0
    # The midpoint of two adjacent floats rounds to one of them.
    while (mid := 0.5 * (a + b)) not in (a, b):
        iterations += 1
        fm = f(mid)
        if fa * fm <= 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    x_star, residual = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    return CrossoverResult(
        x_star=x_star, bracket=(a, b), residual=residual, iterations=iterations
    )


def sweep(
    params: BlackHoleParams,
    omegas,
    statistics=(Statistics.BOSON, Statistics.FERMION),
    eps_tail: float = EPS_TAIL_DEFAULT,
) -> list[EntropyReport]:
    """Entropy reports over a frequency grid, statistics interleaved per point.

    Per-point representation failures do not abort the sweep: the report for
    that point carries the closed-form entropy (nan when x is not a finite
    positive float), nan numerics, and the error message in band.
    """
    oms = list(omegas)
    if not oms:
        raise ValueError("empty frequency grid")
    for o in oms:
        _require_finite_positive("omega", o)
    oms = [float(o) for o in oms]
    if any(b <= a for a, b in zip(oms, oms[1:])):
        raise ValueError("frequency grid must be strictly increasing")
    if isinstance(statistics, (Statistics, str)):
        statistics = (statistics,)
    stats = tuple(Statistics(s) for s in statistics)
    if not stats:
        raise ValueError("no statistics selected")
    if len(set(stats)) != len(stats):
        raise ValueError("duplicate statistics selected")
    _validate_eps_tail(eps_tail)

    reports: list[EntropyReport] = []
    for om in oms:
        for st in stats:
            channel = ModeChannel(omega=om, statistics=st)
            try:
                reports.append(entropy_report(params, channel, eps_tail=eps_tail))
            except SqueezingOverflowError as exc:
                x = dimensionless_x(params, channel)
                sq = SqueezingParams(st, x) if 0.0 < x < math.inf else None
                reports.append(
                    EntropyReport(
                        x=x,
                        omega=om,
                        mass=float(params.mass),
                        statistics=st,
                        S_closed=math.nan if sq is None else _closed_form_entropy(sq),
                        S_numeric=math.nan,
                        gap=math.nan,
                        mean_occ=math.nan,
                        T_ratio=math.nan,
                        error=str(exc),
                    )
                )
    return reports


def format_float(value: float) -> str:
    """Canonical 17-significant-digit rendering used by all CSV output."""
    return format(float(value), ".17g")


def report_csv_row(report: EntropyReport) -> list[str]:
    """Row for csv.writer, in CSV_HEADER order; error renders as empty string."""
    return [
        format_float(report.x),
        format_float(report.omega),
        format_float(report.mass),
        report.statistics.value,
        format_float(report.S_closed),
        format_float(report.S_numeric),
        format_float(report.gap),
        format_float(report.mean_occ),
        format_float(report.T_ratio),
        report.error or "",
    ]


def _json_number(value: float):
    # Strict JSON has no nan or inf; emit null for them.
    v = float(value)
    return v if math.isfinite(v) else None


def report_json_dict(report: EntropyReport) -> dict:
    """JSON object mirroring the CSV row, with non-finite numbers as null."""
    return {
        "x": _json_number(report.x),
        "omega": _json_number(report.omega),
        "mass": _json_number(report.mass),
        "statistics": report.statistics.value,
        "S_closed": _json_number(report.S_closed),
        "S_numeric": _json_number(report.S_numeric),
        "gap": _json_number(report.gap),
        "mean_occ": _json_number(report.mean_occ),
        "T_ratio": _json_number(report.T_ratio),
        "error": report.error,
    }
