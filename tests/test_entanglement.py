"""Closed-form entropies, thermality fits, crossover, sweeps, serialisation.

The frozen constants were produced by two test-side oracles independent of
the library code: a brute-force summation of the occupation distribution
(float64 and 50-digit mpmath), and mpmath root finding for the crossover.
The live mpmath and sympy checks below re-derive the same quantities at
high precision on every run.
"""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapsar import (
    BlackHoleParams,
    CSV_HEADER,
    ModeChannel,
    SqueezingParams,
    Statistics,
    boson_entropy,
    build_boson_state,
    build_fermion_state,
    crossover,
    entropy_report,
    fermion_entropy,
    partial_trace,
    report_csv_row,
    sweep,
    von_neumann_entropy,
)
from collapsar.entanglement import (
    CROSSOVER_BRACKET,
    _FIT_FLOOR,
    format_float,
    report_json_dict,
    temperature_ratio_fit,
)
from collapsar.errors import SqueezingOverflowError
from collapsar.fock import LAMBDA_FLOOR, DensityOperator
from collapsar.geometry import FOUR_PI, X_MIN
from collapsar.states import EPS_TAIL_MAX, N_CAP

B = Statistics.BOSON
F = Statistics.FERMION

# x -> entropy in bits, frozen from the summation oracle (50-digit arithmetic).
BOSON_ENTROPY_TABLE = {
    0.2: 2.7742027930105995,
    0.3: 2.2011081343652608,
    0.5: 1.5013432665422342,
    1.0: 0.6614017285590653,
    2.0: 0.1343363875559037,
    5.0: 0.000720512013139728,
    0.01: 7.086575275340567,
    0.001: 10.4084795660002,
}
FERMION_ENTROPY_TABLE = {
    0.3: 1.875775260963314,
    0.5: 1.6798830759663386,
    1.0: 1.0541306820063234,
    2.0: 0.25995854933260987,
    1e-6: 1.9999999999985572,
}
# Root of S_fermion - S_boson, frozen from mpmath.findroot at 30 digits.
X_STAR = 0.40671361302244355
X_STAR_TOL = 4.0 * math.ulp(X_STAR)


def mp_boson_entropy(x):
    # High-precision reference through the hyperbolic route, which shares
    # no code or algebra with the stable production formula.
    with mpmath.workdps(50):
        r = mpmath.atanh(mpmath.exp(-mpmath.mpf(x)))
        ch2 = mpmath.cosh(r) ** 2
        sh2 = mpmath.sinh(r) ** 2
        s = ch2 * mpmath.log(ch2, 2) - sh2 * mpmath.log(sh2, 2)
        return float(s)


def mp_fermion_entropy(x):
    with mpmath.workdps(50):
        r = mpmath.atan(mpmath.exp(-mpmath.mpf(x)))
        c2 = mpmath.cos(r) ** 2
        s2 = mpmath.sin(r) ** 2
        return float(-2 * (c2 * mpmath.log(c2, 2) + s2 * mpmath.log(s2, 2)))


class TestClosedForms:
    @pytest.mark.parametrize("x,expected", sorted(BOSON_ENTROPY_TABLE.items()))
    def test_boson_frozen_values(self, x, expected):
        assert boson_entropy(SqueezingParams.from_x(B, x)) == pytest.approx(
            expected, abs=5e-13
        )

    @pytest.mark.parametrize("x,expected", sorted(FERMION_ENTROPY_TABLE.items()))
    def test_fermion_frozen_values(self, x, expected):
        assert fermion_entropy(SqueezingParams.from_x(F, x)) == pytest.approx(
            expected, abs=5e-13
        )

    @pytest.mark.parametrize(
        "x", sorted({0.05, 0.2, 1.0, 3.0, 8.0, *map(float, np.geomspace(0.05, 5.0, 30))})
    )
    def test_boson_against_live_mpmath(self, x):
        assert boson_entropy(SqueezingParams.from_x(B, x)) == pytest.approx(
            mp_boson_entropy(x), abs=1e-13
        )

    @pytest.mark.parametrize("x", [0.05, 0.2, 1.0, 3.0, 8.0])
    def test_fermion_against_live_mpmath(self, x):
        assert fermion_entropy(SqueezingParams.from_x(F, x)) == pytest.approx(
            mp_fermion_entropy(x), abs=1e-13
        )

    def test_stable_form_equals_hyperbolic_form_symbolically(self):
        # The production formula is an algebraic rearrangement of the
        # hyperbolic one; verify the identity at 50 digits over exact
        # rational squeezing angles.
        r = sympy.Symbol("r", positive=True)
        q = sympy.tanh(r) ** 2
        hyperbolic = sympy.cosh(r) ** 2 * sympy.log(sympy.cosh(r) ** 2, 2) - sympy.sinh(
            r
        ) ** 2 * sympy.log(sympy.sinh(r) ** 2, 2)
        stable = (-sympy.log(1 - q) - q * sympy.log(q) / (1 - q)) / sympy.log(2)
        for r_val in (sympy.Rational(1, 10), sympy.Rational(1, 2), 1, 2):
            a = hyperbolic.subs(r, r_val).evalf(50)
            b = stable.subs(r, r_val).evalf(50)
            assert abs(a - b) < sympy.Float(10) ** -40

    def test_boson_edges(self):
        assert boson_entropy(SqueezingParams.from_x(B, 800.0)) == 0.0
        assert boson_entropy(SqueezingParams.from_x(B, 1e-17)) == math.inf

    def test_fermion_edges(self):
        assert fermion_entropy(SqueezingParams.from_x(F, 800.0)) == 0.0
        assert fermion_entropy(SqueezingParams.from_x(F, 1e-17)) == 2.0

    def test_fermion_never_exceeds_two(self):
        for x in np.geomspace(1e-6, 50.0, 300):
            assert fermion_entropy(SqueezingParams.from_x(F, float(x))) <= 2.0

    @pytest.mark.parametrize("stats", [B, F])
    @given(x=st.floats(min_value=1e-6, max_value=745.0, allow_nan=False))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_closed_form_finite_nonnegative_never_negative_zero(self, stats, x):
        s = _closed_form(stats, x)
        assert math.isfinite(s)
        assert s >= 0.0
        assert math.copysign(1.0, s) == 1.0
        if stats is F:
            assert s <= 2.0

    @pytest.mark.parametrize("stats", [B, F])
    def test_closed_form_non_increasing(self, stats):
        values = [_closed_form(stats, float(x)) for x in np.geomspace(1e-6, 745.0, 5000)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_statistics_guards(self):
        with pytest.raises(ValueError):
            boson_entropy(SqueezingParams.from_x(F, 1.0))
        with pytest.raises(ValueError):
            fermion_entropy(SqueezingParams.from_x(B, 1.0))

    @given(x=st.floats(min_value=0.3, max_value=3.0, allow_nan=False))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_boson_closed_form_tracks_numeric_route(self, x):
        sq = SqueezingParams.from_x(B, x)
        rho = partial_trace(build_boson_state(sq))
        assert abs(boson_entropy(sq) - von_neumann_entropy(rho, method="eigen")) < 1e-8


def _closed_form(stats, x):
    sq = SqueezingParams.from_x(stats, x)
    return boson_entropy(sq) if stats is B else fermion_entropy(sq)


def build_fermion(x):
    return build_fermion_state(SqueezingParams.from_x(F, x))


def reduced(statistics, diag):
    """An operator over a chosen non-increasing diagonal, adopted as partial_trace does."""
    diag = np.array(diag, dtype=np.float64)
    assert descends(diag)
    diag.setflags(write=False)
    return DensityOperator._reduced(statistics, diag)


def descends(diag):
    """``diag`` is non-increasing, so that reversed it is ``np.sort(diag)``, bit for bit.

    The one exception is a tie of +0.0 and -0.0, whose input order
    ``np.sort`` keeps; such a diagonal does not count as descending.
    """
    zero_signs = np.signbit(diag[diag == 0.0])
    one_signed_zero = zero_signs.all() or not zero_signs.any()
    return bool((diag[1:] <= diag[:-1]).all() and (diag[-1] > 0.0 or one_signed_zero))


def thermal_boson_rho(x, d=60):
    """Exactly thermal reduced boson operator: (1 - q) q^n, q = e^-2x, n < d."""
    q = math.exp(-2.0 * x)
    return reduced(B, (1.0 - q) * q ** np.arange(d))


def fit_points(rho):
    """The (n, p) points the boson fit uses: levels above its 1e-15 floor."""
    mask = rho.diag > 1e-15
    return np.arange(rho.dim, dtype=np.float64)[mask], rho.diag[mask]


def mpmath_slope(ns, ps):
    """Least-squares slope of log p against n in 40-digit arithmetic."""
    with mpmath.workdps(40):
        n = [mpmath.mpf(float(v)) for v in ns]
        y = [mpmath.log(mpmath.mpf(float(v))) for v in ps]
        n_bar = mpmath.fsum(n) / len(n)
        y_bar = mpmath.fsum(y) / len(y)
        return mpmath.fsum((a - n_bar) * (b - y_bar) for a, b in zip(n, y)) / mpmath.fsum(
            (a - n_bar) ** 2 for a in n
        )


def masked_fit(rho, x):
    """The boson fit over the fit points, centred on their mean label."""
    ns, ps = fit_points(rho)
    dn = ns - ns.sum() / ns.size
    y = np.log(ps)
    y -= y[y.size // 2]
    slope = float((dn * y).sum() / (dn * dn).sum())
    return -2.0 * x / slope if math.isfinite(slope) and slope < 0.0 else math.nan


@st.composite
def ladders(draw):
    """A thermal ladder, its x, and tail levels below the fit floor or zero."""
    d = draw(st.integers(3, 300))
    x = draw(st.floats(0.005, 2.5))
    diag = -math.expm1(-2.0 * x) * np.exp(-2.0 * x * np.arange(d))
    if draw(st.booleans()):
        cut = draw(st.integers(2, d - 1))
        diag[cut:] = np.minimum(diag[cut:], 1e-16)
    zeros = draw(st.integers(0, 4))
    return x, np.concatenate([diag, np.zeros(zeros)])


class TestTemperatureRatio:
    def test_boson_thermal_diagonal_fits_to_one(self):
        for x in (0.5, 1.0, 2.0):
            rho = thermal_boson_rho(x)
            assert temperature_ratio_fit(rho, x) == pytest.approx(1.0, abs=1e-10)

    def test_fermion_two_level_ratio(self):
        for x in (0.5, 1.0, 2.0):
            rho = partial_trace(build_fermion(x))
            assert temperature_ratio_fit(rho, x) == pytest.approx(1.0, abs=1e-12)

    def test_fermion_fit_reads_p00_and_p01(self):
        # A built state has p(0,1) == p(1,0); this operator does not, so the
        # fit must take p(0,1) from its place in FERMION_BASIS.
        rho = reduced(F, [0.5, 0.25, 0.2, 0.05])
        assert temperature_ratio_fit(rho, 1.5) == -3.0 / math.log(0.25 / 0.5)

    def test_deep_vacuum_returns_nan(self):
        rho = thermal_boson_rho(30.0)
        assert math.isnan(temperature_ratio_fit(rho, 30.0))

    def test_frozen_fermion_returns_nan(self):
        rho = partial_trace(build_fermion(800.0))
        assert math.isnan(temperature_ratio_fit(rho, 800.0))

    # Wherever a report's fit is defined, it recovers the horizon temperature.
    # At x = 371 the fermionic p(0,1) is subnormal and used to fit 0.99994.
    # Below x ~ 3e-4 the two-level fit -2x / log(p01/p00) is the limit: a few
    # ulp of rounding in p01/p00 move it by about eps / x (2.1 eps / x at
    # worst on a 20000-point grid), so the bound there is 4 eps / x.
    @given(x=st.floats(min_value=1e-6, max_value=745.0, allow_nan=False))
    @example(x=371.0)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_fermion_report_fit_exact_wherever_finite(self, x):
        r = entropy_report(BlackHoleParams(mass=1.0), ModeChannel(x / FOUR_PI, F))
        tol = max(1e-12, 4.0 * sys.float_info.epsilon / r.x)
        assert math.isnan(r.T_ratio) or abs(r.T_ratio - 1.0) <= tol

    @given(x=st.floats(min_value=0.01, max_value=745.0, allow_nan=False))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_boson_report_fit_thermal_wherever_finite(self, x):
        r = entropy_report(BlackHoleParams(mass=1.0), ModeChannel(x / FOUR_PI, B))
        assert math.isnan(r.T_ratio) or abs(r.T_ratio - 1.0) <= 1e-6

    def test_x_validation(self):
        rho = thermal_boson_rho(1.0)
        with pytest.raises(ValueError):
            temperature_ratio_fit(rho, -1.0)

    def test_bool_x_is_not_a_number(self):
        with pytest.raises(ValueError, match="x must be a finite positive real, got True"):
            temperature_ratio_fit(thermal_boson_rho(1.0), True)

    # The fit's slope against a 40-digit least-squares slope of the same
    # points, over the boson-deep range and beyond, and at d = N_CAP.
    @pytest.mark.parametrize(
        "x", [*np.geomspace(0.015, 40.0, 24).tolist(), 1.032e-3]
    )
    def test_boson_fit_matches_mpmath_least_squares(self, x):
        rho = partial_trace(build_boson_state(SqueezingParams.from_x(B, x)))
        ns, ps = fit_points(rho)
        if ns.size < 2:
            assert math.isnan(temperature_ratio_fit(rho, x))
            return
        want = -2 * mpmath.mpf(x) / mpmath_slope(ns, ps)
        got = temperature_ratio_fit(rho, x)
        assert abs(got - want) <= 4 * 2.0**-52 * abs(want)

    # np.polyfit, which the fit replaced, as the oracle: any positive
    # non-increasing diagonal over the levels range(d).
    @given(
        weights=st.integers(2, 200).flatmap(
            lambda d: st.lists(st.floats(1e-6, 1.0), min_size=d, max_size=d)
        )
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_boson_fit_matches_polyfit(self, weights):
        weights = np.sort(weights)[::-1]
        rho = reduced(B, weights / weights.sum())
        ns, ps = fit_points(rho)
        want = np.polyfit(ns, np.log(ps), 1)[0]
        t_ratio = temperature_ratio_fit(rho, 1.0)
        # A nearly flat spectrum has a slope at rounding level, which no two
        # summation orders agree on to 1e-12 relative; the absolute term
        # allows 64 ulp of the largest |log p| over the spread of the labels.
        noise = 64 * sys.float_info.epsilon * np.abs(np.log(ps)).max() / np.sqrt(
            ((ns - ns.mean()) ** 2).sum()
        )
        if math.isnan(t_ratio):  # the fit's slope is not negative
            assert want >= -noise
        else:
            assert abs(-2.0 / t_ratio - want) <= 1e-12 * abs(want) + noise

    @given(p0=st.floats(0.5, 1.0 - 1e-12))
    @example(p0=0.5)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_two_level_fit_is_exact_log_ratio(self, p0):
        # Two adjacent levels above the floor: the slope is exactly y1 - y0.
        rho = reduced(B, [p0, 1.0 - p0])
        y0, y1 = (float(v) for v in np.log(rho.diag))
        t_ratio = temperature_ratio_fit(rho, 0.25)
        if y1 < y0:
            assert t_ratio == -0.5 / (y1 - y0)
        else:
            assert math.isnan(t_ratio)

    # Every ladder's fitted levels form a prefix, which the fit slices; it
    # gives the bits of the masked centred sums over the same levels.
    @given(ladder=ladders())
    @example(ladder=(0.5, np.array([0.6, 0.3, 0.1, 1e-16])))
    @example(ladder=(0.5, np.array([0.6, 0.3, 0.1, 0.0, 0.0])))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_prefix_and_masked_fits_match_masked_sums(self, ladder):
        x, diag = ladder
        rho = reduced(B, diag)
        want = masked_fit(rho, x)
        got = temperature_ratio_fit(rho, x)
        assert got == want or (math.isnan(got) and math.isnan(want))

    # The prefix path takes sum(dn^2) in closed form.  With log p exactly 1
    # below the middle level and 0 from it on, every other step of the fit
    # is exact, so the fitted ratio carries the bits of the pairwise sum.
    def test_prefix_fit_sxx_is_the_pairwise_sum(self):
        assert np.log(math.e) == 1.0
        n = np.arange(N_CAP, dtype=np.float64)
        steps = np.repeat([math.e, 1.0], N_CAP)
        for k in range(2, N_CAP + 1):
            mid = k // 2
            dn = n[:k] - (k - 1) / 2
            diag = steps[N_CAP - mid : N_CAP - mid + k]
            rho = DensityOperator._reduced(B, diag)
            slope = dn[:mid].sum() / (dn * dn).sum()
            assert temperature_ratio_fit(rho, 0.5) == -1.0 / slope, k

    # The prefix fit centres its levels in one fill; every value is an exact
    # half-integer, so it is arange then -= bit for bit, at every length.
    def test_centred_levels_fill_once(self):
        for k in range(2, N_CAP + 1):
            two_step = np.arange(k, dtype=np.float64)
            two_step -= (k - 1) / 2
            one_fill = np.arange(-(k - 1) / 2, (k + 1) / 2)
            assert one_fill.dtype == np.float64 and one_fill.size == k, k
            assert one_fill.tobytes() == two_step.tobytes(), k

    # A flat spectrum has no temperature; polyfit read a rounding-level slope
    # off range(8) and reported T_ratio = 1.1e17.  A flat fermion spectrum
    # has p(0,1) == p(0,0).
    @pytest.mark.parametrize("basis", [range(8), ((0, 0), (0, 1), (1, 0), (1, 1))])
    def test_uniform_spectrum_returns_nan(self, basis):
        statistics = B if isinstance(basis, range) else F
        rho = reduced(statistics, np.full(len(basis), 1.0 / len(basis)))
        assert tuple(rho.basis) == tuple(basis)
        assert math.isnan(temperature_ratio_fit(rho, 1.0))


def entropy_oracle(diag):
    """The entropy by the sorted route: an ascending copy, log2, multiply, sum."""
    p = np.sort(diag)
    if p[0] <= LAMBDA_FLOOR:
        p = p[np.searchsorted(p, LAMBDA_FLOOR, side="right") :]
        if p.size == 0:
            return 0.0
    t = np.log2(p)
    t *= p
    return max(0.0, -float(t.sum()))


def fit_oracle(rho, x):
    """The boson fit by masked sums; nan below two fit points."""
    if np.count_nonzero(rho.diag > _FIT_FLOOR) < 2:
        return math.nan
    return masked_fit(rho, x)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# Entries for the tail of a drawn diagonal: zeros, subnormals, and values
# on and either side of both floors.
TAIL_VALUES = np.array([
    0.0, 5e-324, 1e-300, LAMBDA_FLOOR / 2, LAMBDA_FLOOR, np.nextafter(LAMBDA_FLOOR, 1.0),
    1e-20, _FIT_FLOOR, np.nextafter(_FIT_FLOOR, 1.0),
])


@st.composite
def descending_diagonals(draw):
    """A non-increasing unit-trace diagonal: a thermal or random head and a drawn tail.

    The sizes include both sides of numpy's 8192-element pairwise blocks
    and N_CAP; the tail takes entries across LAMBDA_FLOOR and the fit floor.
    """
    d = draw(st.sampled_from([2, 4, 8191, 8192, 8193, N_CAP]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = draw(st.floats(1e-3, 20.0))
        head = -math.expm1(-2.0 * x) * np.exp(-2.0 * x * np.arange(d))
        head *= 1.0 + rng.uniform(-1e-9, 1e-9, d)
    else:
        head = rng.random(d) ** draw(st.integers(1, 60))
    tail = draw(st.integers(0, min(d - 1, 30)))
    head[d - tail :] = rng.choice(TAIL_VALUES, tail)
    head[: d - tail] /= head[: d - tail].sum()
    return np.sort(head)[::-1].copy()


class TestSpectrumPath:
    """The non-increasing diagonal is read in place; its bits are those of the sorted route."""

    @given(diag=descending_diagonals())
    @example(diag=np.array([1.0, 0.0]))
    @example(diag=np.array([1.0, LAMBDA_FLOOR, 0.0, 0.0]))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_entropy_and_fit_keep_the_oracle_bits(self, diag):
        want_s = entropy_oracle(diag)
        rho = reduced(B, diag)
        want_t = fit_oracle(rho, 0.5)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(np, "sort", no_sort)
            assert same_bits(von_neumann_entropy(rho), want_s)
            assert same_bits(temperature_ratio_fit(rho, 0.5), want_t)

    # An unordered diagonal has no way in.  In the order a builder gives it,
    # the fit's levels above its floor are a prefix even where the unordered
    # ones were scattered, and the entropy keeps the bits of the sorted
    # route over the unordered diagonal, and the fit those of the masked sums.
    @pytest.mark.parametrize(
        "diag, scattered",
        [
            ([0.2, 0.5, 0.3], False),
            ([0.3, 0.5, 0.0, 0.2], True),
            ([0.4, 1e-16, 0.35, 0.25, 0.0], True),
            ([0.25, 0.25, 0.5, LAMBDA_FLOOR], False),
        ],
    )
    def test_unordered_operator_sorts_and_masks(self, diag, scattered):
        diag = np.array(diag)
        assert not descends(diag)
        levels = np.flatnonzero(diag > _FIT_FLOOR)
        assert bool((levels != np.arange(levels.size)).any()) == scattered
        rho = reduced(B, np.sort(diag)[::-1])
        assert (np.flatnonzero(rho.diag > _FIT_FLOOR) == np.arange(levels.size)).all()
        want_s, want_t = entropy_oracle(diag), fit_oracle(rho, 0.5)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(np, "sort", no_sort)
            assert same_bits(von_neumann_entropy(rho), want_s)
            assert same_bits(temperature_ratio_fit(rho, 0.5), want_t)


# The order every builder vouches for, over every admitted input.  No boson
# mode below x ~ 6.256e-4 fits under the cap, even at EPS_TAIL_MAX; below
# ~1.032e-3 at the default eps_tail, and a smaller eps_tail refuses more.
@given(
    x=st.floats(6.25e-4, 700.0),
    eps_tail=st.floats(sys.float_info.min, EPS_TAIL_MAX),
)
@example(x=6.256037095649462e-4, eps_tail=EPS_TAIL_MAX)
@example(x=1.032e-3, eps_tail=1e-12)
@example(x=700.0, eps_tail=sys.float_info.min)
@example(x=0.0216, eps_tail=sys.float_info.min)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_built_boson_reductions_descend(x, eps_tail):
    try:
        state = build_boson_state(SqueezingParams.from_x(B, x), eps_tail)
    except SqueezingOverflowError:
        return
    for keep in ("out", "hor"):
        assert descends(partial_trace(state, keep).diag), (x, eps_tail, keep)


@given(x=st.floats(X_MIN, 700.0))
@example(x=X_MIN)
@example(x=700.0)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_built_fermion_reductions_descend(x):
    state = build_fermion_state(SqueezingParams.from_x(F, x))
    for keep in ("out", "hor"):
        assert descends(partial_trace(state, keep).diag), (x, keep)


def no_sort(*args, **kwargs):
    raise AssertionError("np.sort ran on a non-increasing diagonal")


class TestEntropyReport:
    def test_boson_report_fields(self):
        p = BlackHoleParams(mass=1.0)
        c = ModeChannel(omega=1.0 / (4.0 * math.pi), statistics=B)
        r = entropy_report(p, c)
        assert r.statistics is B
        assert r.mass == 1.0
        assert r.omega == c.omega
        assert r.x == pytest.approx(1.0, rel=1e-15)
        assert r.gap < 1e-9
        assert r.gap == abs(r.S_closed - r.S_numeric)
        assert r.T_ratio == pytest.approx(1.0, abs=1e-6)
        assert r.mean_occ == pytest.approx(1.0 / math.expm1(2.0 * r.x), rel=1e-9)
        assert r.error is None

    # A fermion mode needs no truncation, but refuses what a boson one
    # refuses; it used to accept any eps_tail.
    @pytest.mark.parametrize("statistics", [B, F])
    @pytest.mark.parametrize("eps_tail", [5.0, -1.0, 0.0, math.nan, 1e-320])
    def test_report_refuses_bad_eps_tail(self, statistics, eps_tail):
        channel = ModeChannel(omega=1.0 / FOUR_PI, statistics=statistics)
        with pytest.raises(ValueError, match="eps_tail must"):
            entropy_report(BlackHoleParams(mass=1.0), channel, eps_tail=eps_tail)

    def test_fermion_report_fields(self):
        p = BlackHoleParams(mass=1.0)
        c = ModeChannel(omega=1.0 / (4.0 * math.pi), statistics=F)
        r = entropy_report(p, c)
        assert r.gap < 1e-12
        assert r.T_ratio == pytest.approx(1.0, abs=1e-12)
        assert r.mean_occ == pytest.approx(
            1.0 / (math.exp(2.0 * r.x) + 1.0), rel=1e-9
        )

    def test_largest_admitted_dimension_in_bounded_memory(self):
        # x = 1.032e-3 truncates at exactly N_CAP levels, where a dense
        # complex d x d operator would take 4.3 GB.
        x = 1.032e-3
        assert partial_trace(build_boson_state(SqueezingParams.from_x(B, x))).dim == N_CAP
        tracemalloc.start()
        try:
            r = entropy_report(BlackHoleParams(mass=1.0), ModeChannel(x / FOUR_PI, B))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        assert r.gap < 1e-9

    def test_report_at_cap_peaks_at_three_level_vectors(self):
        # The state holds its amplitudes and their squares, which become the
        # operator's diagonal, and is dropped once reduced.  The entropy's
        # terms, the occupation's numbers and the fit's two vectors then
        # come and go beside the diagonal: at most three float64 vectors of
        # N_CAP entries (384 KiB) at any one time.
        p, c = BlackHoleParams(mass=1.0), ModeChannel(1.032e-3 / FOUR_PI, B)
        entropy_report(p, c)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            entropy_report(p, c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * N_CAP

    # Built from x, the amplitudes are a geometric ladder to within a few
    # ulp, and the fit over all N_CAP levels reads the Hawking temperature
    # to 2 ulp.  Amplitudes built as w^n carry the rounding of w n-fold and
    # read it 5.4e-14 off.
    def test_report_at_cap_fits_the_hawking_temperature(self):
        x = 1.032e-3
        r = entropy_report(BlackHoleParams(mass=1.0), ModeChannel(x / FOUR_PI, B))
        assert partial_trace(build_boson_state(SqueezingParams.from_x(B, r.x))).dim == N_CAP
        assert abs(r.T_ratio - 1.0) <= 2 * sys.float_info.epsilon

    def test_overflow_propagates(self):
        from collapsar import SqueezingOverflowError

        p = BlackHoleParams(mass=1.0)
        c = ModeChannel(omega=1e-9, statistics=B)
        with pytest.raises(SqueezingOverflowError):
            entropy_report(p, c)


class TestCrossover:
    def test_root_matches_frozen_value(self):
        res = crossover()
        assert abs(res.x_star - X_STAR) <= X_STAR_TOL
        assert abs(res.residual) <= 1e-14
        assert res.iterations > 0
        assert res.x_star in res.bracket

    def test_bracket_endpoints_straddle(self):
        def f(x):
            return fermion_entropy(SqueezingParams.from_x(F, x)) - boson_entropy(
                SqueezingParams.from_x(B, x)
            )

        res = crossover()
        lo, hi = res.bracket
        assert math.nextafter(lo, math.inf) == hi
        assert f(lo) * f(hi) < 0.0

    def test_sign_structure_around_root(self):
        # Fermions win above the root, bosons below.
        def f(x):
            return fermion_entropy(SqueezingParams.from_x(F, x)) - boson_entropy(
                SqueezingParams.from_x(B, x)
            )

        assert f(0.1) < 0.0
        assert f(0.3) < 0.0
        assert f(0.5) > 0.0
        assert f(1.0) > 0.0

    def test_single_sign_change_lies_in_fixed_bracket(self):
        # crossover() bisects CROSSOVER_BRACKET without a check of its own:
        # on a log grid over [1e-3, 100], S_f - S_b is never 0, changes
        # sign exactly once, and does so strictly inside the bracket.
        xs = np.geomspace(1e-3, 100.0, 200)
        diff = np.array([
            fermion_entropy(SqueezingParams.from_x(F, float(x)))
            - boson_entropy(SqueezingParams.from_x(B, float(x)))
            for x in xs
        ])
        assert np.all(diff != 0.0)
        (flips,) = np.nonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))
        assert len(flips) == 1
        lo, hi = CROSSOVER_BRACKET
        assert lo < xs[flips[0]] and xs[flips[0] + 1] < hi


class TestSweep:
    def test_interleaves_statistics_per_frequency(self):
        p = BlackHoleParams(mass=1.0)
        reports = sweep(p, [0.01, 0.02])
        assert [(r.omega, r.statistics) for r in reports] == [
            (0.01, B),
            (0.01, F),
            (0.02, B),
            (0.02, F),
        ]

    def test_single_statistics_selection(self):
        p = BlackHoleParams(mass=1.0)
        reports = sweep(p, [0.01, 0.02], statistics="fermion")
        assert all(r.statistics is F for r in reports)

    def test_error_rows_carry_closed_form(self):
        p = BlackHoleParams(mass=1.0)
        reports = sweep(p, [1e-9, 0.05], statistics=B)
        bad, good = reports
        assert bad.error is not None
        assert math.isfinite(bad.S_closed)
        assert math.isnan(bad.S_numeric) and math.isnan(bad.gap)
        assert math.isnan(bad.mean_occ) and math.isnan(bad.T_ratio)
        assert good.error is None
        assert good.gap < 1e-9

    @pytest.mark.parametrize(
        "omegas", [[], [0.2, 0.1], [0.1, 0.1], [-0.1, 0.2], [math.nan]]
    )
    def test_grid_validation(self, omegas):
        with pytest.raises(ValueError):
            sweep(BlackHoleParams(mass=1.0), omegas)

    # Each omega is checked as it came, as ModeChannel checks it, before
    # float() could turn a string, a bool or a numpy integer into a number.
    @pytest.mark.parametrize(
        "omegas",
        [["0.1", True, np.int64(2)], ["0.1"], [True], [np.int64(2)], [np.float32(0.5)]],
        ids=["mixed", "str", "bool", "int64", "float32"],
    )
    def test_raw_omegas_are_checked_before_conversion(self, omegas):
        with pytest.raises(ValueError, match="^omega must be a finite positive real, got "):
            ModeChannel(omega=omegas[0], statistics=F)
        with pytest.raises(ValueError, match="^omega must be a finite positive real, got "):
            sweep(BlackHoleParams(mass=1.0), omegas, statistics="fermion")

    def test_float64_and_int_grids_are_accepted(self):
        p = BlackHoleParams(mass=1.0)
        omegas = np.geomspace(0.01, 0.1, 3)
        reports = sweep(p, omegas, statistics="fermion")
        assert [r.omega for r in reports] == omegas.tolist()
        assert all(type(r.omega) is float for r in reports)
        assert [r.omega for r in sweep(p, [1, 2], statistics="fermion")] == [1.0, 2.0]

    # eps_tail is refused before the loop, for every statistics: with every
    # point below the floor, no row is made to carry it.
    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    def test_eps_tail_refused_before_any_point(self, statistics):
        p = BlackHoleParams(mass=1.0)
        assert all(r.error for r in sweep(p, [1e-9, 1e-8], statistics=statistics))
        with pytest.raises(ValueError, match=r"eps_tail must lie in \(0, 1e-06\], got 5.0"):
            sweep(p, [1e-9, 1e-8], statistics=statistics, eps_tail=5.0)

    def test_statistics_validation(self):
        p = BlackHoleParams(mass=1.0)
        with pytest.raises(ValueError):
            sweep(p, [0.1], statistics="both")
        with pytest.raises(ValueError):
            sweep(p, [0.1], statistics=())
        with pytest.raises(ValueError):
            sweep(p, [0.1], statistics=("boson", "boson"))

    def test_closed_form_sign_change_once_on_span(self):
        # Sweep across x in [0.1, 3]: the fermion-minus-boson gap flips
        # sign exactly once.
        p = BlackHoleParams(mass=1.0)
        omegas = [float(x) / (4.0 * math.pi) for x in np.geomspace(0.1, 3.0, 40)]
        reports = sweep(p, omegas)
        diff = [
            f.S_closed - b.S_closed
            for b, f in zip(reports[::2], reports[1::2])
        ]
        signs = [math.copysign(1.0, d) for d in diff if d != 0.0]
        changes = sum(1 for a, b_ in zip(signs, signs[1:]) if a != b_)
        assert changes == 1


class TestSerialisation:
    def test_csv_header_contract(self):
        assert CSV_HEADER == (
            "x",
            "omega",
            "mass",
            "statistics",
            "S_closed",
            "S_numeric",
            "gap",
            "mean_occ",
            "T_ratio",
            "error",
        )

    def test_format_float_17_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(math.nan) == "nan"
        assert format_float(1.0 / 3.0) == "0.33333333333333331"

    def test_csv_row_shape_and_rendering(self):
        p = BlackHoleParams(mass=1.0)
        r = entropy_report(p, ModeChannel(omega=0.05, statistics=B))
        row = report_csv_row(r)
        assert len(row) == len(CSV_HEADER)
        assert row[3] == "boson"
        assert row[9] == ""
        assert row[0] == format_float(r.x)

    def test_error_row_rendering(self):
        p = BlackHoleParams(mass=1.0)
        bad = sweep(p, [1e-9], statistics=B)[0]
        row = report_csv_row(bad)
        assert row[5] == "nan"
        assert "below floor" in row[9]
        doc = report_json_dict(bad)
        assert doc["S_numeric"] is None
        assert doc["error"] == bad.error

    def test_json_dict_keys_match_csv_header(self):
        p = BlackHoleParams(mass=1.0)
        r = entropy_report(p, ModeChannel(omega=0.05, statistics=F))
        doc = report_json_dict(r)
        assert tuple(doc) == CSV_HEADER
        assert doc["statistics"] == "fermion"
        assert doc["error"] is None
