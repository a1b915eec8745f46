"""Closed-form entropies, thermality fits, crossover, sweeps and report records.

Both closed forms have one oracle, ``TestClosedForms::test_against_live_mpmath``:
the entropy of the squeezing angle's cos^2/sin^2 (or cosh^2/sinh^2) pair
in 50-digit mpmath, which shares no algebra with the library's form in the
Boltzmann weight.  The frozen crossover root comes from mpmath root finding
at 30 digits.  What the acceptance criteria state (the thermal fits and
occupations, the report's gap, the fermion ceiling, the crossover's shape)
is asserted there, and here only where a test is stricter.

Of the numeric route's four home tests (see ``tests/test_fock.py``), two
are here: the oracle bits of the entropy and the fit
(``assert_oracle_bits``, over drawn diagonals in
``TestSpectrumPath::test_entropy_and_fit_keep_the_oracle_bits`` and fixed
ones, each its own case, in ``test_fixed_spectra_keep_the_oracle_bits``)
and the report's memory gate,
``TestEntropyReport::test_report_at_cap_peaks_at_three_level_vectors``.
"""

import dataclasses
import math
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapsar import (
    BlackHoleParams,
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
    sweep,
    von_neumann_entropy,
)
from collapsar.entanglement import (
    CROSSOVER_BRACKET,
    _FIT_BLOCK,
    _FIT_FLOOR,
    EntropyReport,
    _reduction,
    temperature_ratio_fit,
)
from collapsar.fock import LAMBDA_FLOOR, DensityOperator, PureBipartiteState
from collapsar.geometry import FOUR_PI, X_MIN
from collapsar.states import EPS_TAIL_DEFAULT, EPS_TAIL_MAX, EPS_TAIL_MIN

B = Statistics.BOSON
F = Statistics.FERMION

# (statistics, x) at which each closed form meets its mpmath oracle.
CLOSED_FORM_CASES = [
    *((B, x) for x in sorted({
        1e-3, 0.01, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 8.0, *np.geomspace(0.05, 5.0, 30).tolist()
    })),
    *((F, x) for x in (1e-6, 0.05, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 8.0)),
]
# Root of S_fermion - S_boson, frozen from mpmath.findroot at 30 digits.
X_STAR = 0.40671361302244355
X_STAR_TOL = 4.0 * math.ulp(X_STAR)
# Ladder length of the fit and spectrum tests: the 16,384 levels that
# x = 1.032e-3 keeps at the default eps_tail.
LEVELS = 16384


def mp_entropy(stats, x):
    """The closed form at 50 digits, from the squeezing angle r.

    Bosons: cosh^2 r log2 cosh^2 r - sinh^2 r log2 sinh^2 r, tanh r = e^-x.
    Fermions: -2 (cos^2 r log2 cos^2 r + sin^2 r log2 sin^2 r), tan r = e^-x.
    """
    with mpmath.workdps(50):
        w = mpmath.exp(-mpmath.mpf(x))
        if stats is B:
            r = mpmath.atanh(w)
            ch2, sh2 = mpmath.cosh(r) ** 2, mpmath.sinh(r) ** 2
            return float(ch2 * mpmath.log(ch2, 2) - sh2 * mpmath.log(sh2, 2))
        r = mpmath.atan(w)
        c2, s2 = mpmath.cos(r) ** 2, mpmath.sin(r) ** 2
        return float(-2 * (c2 * mpmath.log(c2, 2) + s2 * mpmath.log(s2, 2)))


class TestClosedForms:
    # Worst error at the cases: 1.07e-14 (boson, x = 1e-3), 3.4e-16 (fermion).
    @pytest.mark.parametrize(("stats", "x"), CLOSED_FORM_CASES)
    def test_against_live_mpmath(self, stats, x):
        assert _closed_form(stats, x) == pytest.approx(mp_entropy(stats, x), abs=1e-13)

    def test_boson_edges(self):
        assert boson_entropy(SqueezingParams.from_x(B, 800.0)) == 0.0
        assert boson_entropy(SqueezingParams.from_x(B, 1e-17)) == math.inf

    def test_fermion_edges(self):
        assert fermion_entropy(SqueezingParams.from_x(F, 800.0)) == 0.0
        assert fermion_entropy(SqueezingParams.from_x(F, 1e-17)) == 2.0

    @pytest.mark.parametrize("stats", [B, F])
    @given(x=st.floats(min_value=1e-6, max_value=745.0, allow_nan=False))
    @settings(max_examples=200)
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
    def test_fermion_fit_reads_p00_and_p01(self):
        # A built state has p(0,1) == p(1,0); this operator does not, so the
        # fit must take p(0,1) from its place in FERMION_BASIS.
        rho = reduced(F, [0.5, 0.25, 0.2, 0.05])
        assert temperature_ratio_fit(rho, 1.5) == -3.0 / math.log(0.25 / 0.5)

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
    @settings(max_examples=200)
    def test_fermion_report_fit_exact_wherever_finite(self, x):
        r = entropy_report(BlackHoleParams(mass=1.0), ModeChannel(x / FOUR_PI, F))
        tol = max(1e-12, 4.0 * sys.float_info.epsilon / r.x)
        assert math.isnan(r.T_ratio) or abs(r.T_ratio - 1.0) <= tol

    @given(x=st.floats(min_value=0.01, max_value=745.0, allow_nan=False))
    @settings(max_examples=100)
    def test_boson_report_fit_thermal_wherever_finite(self, x):
        r = entropy_report(BlackHoleParams(mass=1.0), ModeChannel(x / FOUR_PI, B))
        assert math.isnan(r.T_ratio) or abs(r.T_ratio - 1.0) <= 1e-6

    # The fit's slope against a 40-digit least-squares slope of the same
    # points, over the boson-deep range and beyond, and at d = LEVELS.
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

    # The prefix path takes sum(dn^2) in closed form.  With log p exactly 1
    # below the middle level and 0 from it on, every other step of the fit
    # is exact, so the fitted ratio carries the bits of the pairwise sum.
    # That holds for every k below 3e5, LEVELS included; above it the
    # closed form is the correctly rounded exact sum, which a pairwise sum
    # need not be (see test_fit_past_the_int64_cube).
    def test_prefix_fit_sxx_is_the_pairwise_sum(self):
        assert np.log(math.e) == 1.0
        n = np.arange(LEVELS, dtype=np.float64)
        steps = np.repeat([math.e, 1.0], LEVELS)
        for k in range(2, LEVELS + 1):
            mid = k // 2
            dn = n[:k] - (k - 1) / 2
            diag = steps[LEVELS - mid : LEVELS - mid + k]
            rho = DensityOperator._reduced(B, diag)
            slope = dn[:mid].sum() / (dn * dn).sum()
            assert temperature_ratio_fit(rho, 0.5) == -1.0 / slope, k

    # Past k = 2,097,151, k^3 no longer fits an int64: a numpy count made
    # k (k k - 1) wrap, with an overflow warning and a nan or wrong ratio.
    # The fit takes k as a Python int, so the closed form stays exact.  A
    # geometric ladder at x = 4e-6 keeps 2,850,338 of 3,000,000 levels.
    def test_fit_past_the_int64_cube(self):
        x = 4e-6
        amps = np.arange(3_000_000, dtype=np.float64)
        amps *= -x
        np.exp(amps, out=amps)
        amps *= math.sqrt(-math.expm1(-2.0 * x))
        diag = amps * amps
        diag.setflags(write=False)
        k = int(np.count_nonzero(diag > _FIT_FLOOR))
        assert 2_097_151 < k < diag.size
        rho = DensityOperator._reduced(B, diag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_ratio = temperature_ratio_fit(rho, x)
        assert abs(t_ratio - 1.0) <= 1e-12

    # The product is elementwise, so a fit in blocks keeps the bits of one
    # full centred-level vector, at and across the block edges.
    @pytest.mark.parametrize(
        "k", [_FIT_BLOCK - 1, _FIT_BLOCK, _FIT_BLOCK + 1, 3 * _FIT_BLOCK + 7]
    )
    def test_blocked_fit_keeps_the_one_vector_bits(self, k):
        x = 2e-5
        diag = -math.expm1(-2.0 * x) * np.exp(-2.0 * x * np.arange(k))
        assert diag[-1] > _FIT_FLOOR
        dn = np.arange(-(k - 1) / 2, (k + 1) / 2)
        y = np.log(diag)
        y -= y[k // 2]
        want = -2.0 * x / float(np.add.reduce(y * dn) / (k * (k * k - 1) / 12))
        assert same_bits(temperature_ratio_fit(reduced(B, diag), x), want)

    # The fit holds log y over its k levels and one block of centred levels,
    # not a second k-vector: at eps_tail = 1e-6, x = 6e-6 keeps 1,934,014 of
    # 2,095,511 levels above the floor, and a full centred-level vector
    # beside log y would peak 7.7 MiB over this bound.
    def test_fit_holds_one_level_vector_and_a_block(self, traced_memory):
        x = 6e-6
        rho = partial_trace(build_boson_state(SqueezingParams.from_x(B, x), eps_tail=1e-6))
        k = int(np.count_nonzero(rho.diag > _FIT_FLOOR))
        assert rho.dim == 2_095_511 and k == 1_934_014
        t_ratio, _, peak = traced_memory(lambda: temperature_ratio_fit(rho, x))
        assert peak <= 8 * k + 2**20
        assert abs(t_ratio - 1.0) <= 1e-12

    # A flat spectrum has no temperature: a flat fermion spectrum has
    # p(0,1) == p(0,0).  The flat boson ladder is FIXED_SPECTRA's "flat-8".
    def test_uniform_spectrum_returns_nan(self):
        rho = reduced(F, np.full(4, 0.25))
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
    and LEVELS; the tail takes entries across LAMBDA_FLOOR and the fit floor.
    """
    d = draw(st.sampled_from([2, 4, 8191, 8192, 8193, LEVELS]))
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


def assert_oracle_bits(x, diag):
    """The entropy of ``diag`` and its fit at ``x`` have the bits of their oracles, with no sort."""
    want_s = entropy_oracle(diag)
    rho = reduced(B, diag)
    want_t = fit_oracle(rho, x)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "sort", no_sort)
        assert same_bits(von_neumann_entropy(rho), want_s)
        assert same_bits(temperature_ratio_fit(rho, x), want_t)


# Fixed non-increasing diagonals, each fitted at x = 0.5: spectra a mask or
# a sort once had to handle.  Levels at and below each floor, exact and
# signed zeros, negative rounding residue, and unordered diagonals in the
# order a builder gives them, where the fit's levels above its floor were
# scattered before the sort.  "log2-contiguous" catches a log2 over a strided
# view: with AVX-512, numpy's contiguous loop rounds log2(0.533...) one ulp
# away from the strided (libm) value, and the oracle, like the entropy, runs
# contiguous.  On the flat ladder polyfit, which the fit replaced, read a
# rounding-level slope and reported T_ratio = 1.1e17; it has no temperature.
FIXED_SPECTRA = {
    "pure": (1.0, 0.0),
    "pure-floor-zeros": (1.0, LAMBDA_FLOOR, 0.0, 0.0),
    "builder-order-0": (0.5, 0.3, 0.2),
    "builder-order-1": (0.5, 0.3, 0.2, 0.0),
    "builder-order-2": (0.4, 0.35, 0.25, 1e-16, 0.0),
    "builder-order-3": (0.5, 0.25, 0.25, LAMBDA_FLOOR),
    "fermion-x50": tuple(build_fermion(50.0).weights.tolist()),
    "boson-zero-tail": (0.5, 0.25, 0.125, 0.125, 0.0, 0.0),
    "at-floor": (0.5, 0.5 - 2 * LAMBDA_FLOOR, LAMBDA_FLOOR, LAMBDA_FLOOR),
    "pure-at-floor": (1.0, LAMBDA_FLOOR),
    "negative": (0.75, 0.25, 2 * LAMBDA_FLOOR, -0.0, -5e-11),
    "fit-below-floor": (0.6, 0.3, 0.1, 1e-16),
    "fit-zero-tail": (0.6, 0.3, 0.1, 0.0, 0.0),
    "log2-contiguous": (0.5330292937984743, 0.46697070620152575),
    "flat-8": (0.125,) * 8,
}


class TestSpectrumPath:
    """The non-increasing diagonal is read in place; its bits are those of the sorted route."""

    @pytest.mark.parametrize("diag", FIXED_SPECTRA.values(), ids=FIXED_SPECTRA)
    def test_fixed_spectra_keep_the_oracle_bits(self, diag):
        assert_oracle_bits(0.5, np.array(diag, dtype=np.float64))

    # A drawn diagonal, fitted at x = 0.5, or a thermal ladder at its own x.
    @given(case=st.one_of(st.tuples(st.just(0.5), descending_diagonals()), ladders()))
    @settings(max_examples=300)
    def test_entropy_and_fit_keep_the_oracle_bits(self, case):
        assert_oracle_bits(*case)

    # The fit and the entropy count the levels above their floors by a binary
    # search of the reversed diagonal.  That count is np.count_nonzero's: it
    # is the length of the one log each takes, and each result keeps the bits
    # of the same function over that prefix.  The floor falls inside each
    # built diagonal: the boson fit keeps 1,934,014 of 2,095,511 levels; the
    # fermion s^4 is 9e-31 at x = 17.3, and s^2 c^2 is 4e-44 at x = 50.
    @pytest.mark.parametrize(
        ("call", "log", "statistics", "x", "floor"),
        [
            (temperature_ratio_fit, "log", B, 6e-6, _FIT_FLOOR),
            (von_neumann_entropy, "log2", F, 17.3, LAMBDA_FLOOR),
            (von_neumann_entropy, "log2", F, 50.0, LAMBDA_FLOOR),
        ],
        ids=["boson-fit", "fermion-entropy-17.3", "fermion-entropy-50"],
    )
    def test_floor_counts_are_count_nonzero(self, call, log, statistics, x, floor):
        rho = _reduction(SqueezingParams.from_x(statistics, x), 1e-6)
        k = int(np.count_nonzero(rho.diag > floor))
        assert 0 < k < rho.dim
        args = (x,) if call is temperature_ratio_fit else ()
        got, sizes = logged_sizes(log, call, rho, *args)
        assert sizes == [k]
        assert same_bits(got, call(DensityOperator._reduced(statistics, rho.diag[:k]), *args))

    # A level exactly at a floor is not above it.  Here each level the count
    # could take in error would move the result's bits.
    def test_level_at_each_floor_is_not_counted(self):
        q = math.exp(-32.0)
        diag = [1.0 - q, (1.0 - q) * q, _FIT_FLOOR, 1e-20, LAMBDA_FLOOR, 0.0]
        rho = reduced(B, diag)
        for call, log, args, k in (
            (temperature_ratio_fit, "log", (16.0,), 2),
            (von_neumann_entropy, "log2", (), 4),
        ):
            got, sizes = logged_sizes(log, call, rho, *args)
            assert sizes == [k]
            assert same_bits(got, call(reduced(B, diag[:k]), *args))


def logged_sizes(name, call, *args):
    """``call(*args)``, and the size of each array it passed to ``np.<name>``."""
    real, sizes = getattr(np, name), []

    def spy(a, *rest, **kwargs):
        sizes.append(a.size)
        return real(a, *rest, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, name, spy)
        return call(*args), sizes


def assert_built_order(state, *where):
    """Both reductions of ``state`` descend: reversed, each is np.sort's spectrum, bit for bit.

    The bits are compared as integers, so a -0.0 and a 0.0 differ.  Both
    sides carry one diagonal, so one sort, of the outgoing side, serves both.
    """
    out, hor = (partial_trace(state, keep).diag for keep in ("out", "hor"))
    spectrum = np.sort(out).view(np.uint64)
    for keep, diag in (("out", out), ("hor", hor)):
        assert descends(diag), (*where, keep)
        assert np.array_equal(diag[::-1].view(np.uint64), spectrum), (*where, keep)


# The order every builder vouches for, over every admitted input: X_MIN
# bounds x and EPS_TAIL_MIN bounds eps_tail, so every draw is built, down
# to the largest state at X_MIN (the x range stops at 6.25e-4 for time).
@given(
    x=st.floats(6.25e-4, 700.0),
    eps_tail=st.floats(EPS_TAIL_MIN, EPS_TAIL_MAX),
)
@example(x=6.256037095649462e-4, eps_tail=EPS_TAIL_MAX)
@example(x=1.032e-3, eps_tail=1e-12)
@example(x=700.0, eps_tail=EPS_TAIL_MIN)
@example(x=0.0216, eps_tail=EPS_TAIL_MIN)
@example(x=X_MIN, eps_tail=EPS_TAIL_MIN)
@example(x=X_MIN, eps_tail=EPS_TAIL_DEFAULT)
@settings(max_examples=300)
def test_built_boson_reductions_descend(x, eps_tail):
    assert_built_order(build_boson_state(SqueezingParams.from_x(B, x), eps_tail), x, eps_tail)


@given(x=st.floats(X_MIN, 700.0))
@example(x=X_MIN)
@example(x=700.0)
@settings(max_examples=300)
def test_built_fermion_reductions_descend(x):
    assert_built_order(build_fermion_state(SqueezingParams.from_x(F, x)), x)


def no_sort(*args, **kwargs):
    raise AssertionError("np.sort ran on a non-increasing diagonal")


class TestEntropyReport:
    # x = 1e-4 keeps 180,742 levels.  The state's weights become the
    # diagonal; the entropy's terms, the occupation's numbers and the fit's
    # log levels (and one block of centred levels) come and go beside it:
    # three level vectors at most.
    # The fit over the 130,000 levels above its floor reads the Hawking
    # temperature to 2 ulp; amplitudes built as w^n, not from x, carry the
    # rounding of w n-fold and read it 5.4e-14 off at 16,384 levels.
    def test_report_at_cap_peaks_at_three_level_vectors(self, traced_memory):
        p, c = BlackHoleParams(mass=1.0), ModeChannel(1e-4 / FOUR_PI, B)
        entropy_report(p, c)
        r, _, peak = traced_memory(lambda: entropy_report(p, c))
        d = _reduction(SqueezingParams.from_x(B, r.x), EPS_TAIL_DEFAULT).dim
        assert d == 180_742
        assert peak <= 3 * 8 * d
        assert r.gap < 1e-9
        assert abs(r.T_ratio - 1.0) <= 2 * sys.float_info.epsilon

    # The infrared floor, at the default eps_tail: 20,376,693 levels.  The
    # peak is 16 d: the diagonal beside the entropy's log terms or the
    # occupation's level numbers; the fit holds 8 d + 8 k and one 512 KiB
    # block, with k ~ 0.53 d levels above its floor.
    # S_closed carries the error of 1 - q formed from a rounded q, 3.8e-13
    # (relative) here, and the gap shows it; S_numeric is held to the exact
    # entropy of the truncated state, -sum (1-q) q^n log2((1-q) q^n) over
    # n < d, which differs from the untruncated one by under 1e-17 (relative).
    def test_boson_report_at_the_infrared_floor(self, traced_memory):
        p, c = BlackHoleParams(mass=1.0), ModeChannel(X_MIN / FOUR_PI, B)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            r, _, peak = traced_memory(lambda: entropy_report(p, c))
            elapsed = time.perf_counter() - start
        assert r.error is None and r.x == X_MIN
        d = partial_trace(build_boson_state(SqueezingParams.from_x(B, r.x))).dim
        assert d == 20_376_693
        assert elapsed <= 5.0
        assert peak <= 16 * d + 8 * 2**20
        assert abs(r.T_ratio - 1.0) <= 1e-12
        with mpmath.workdps(50):
            two_x = 2 * mpmath.mpf(r.x)
            q, one_q = mpmath.exp(-two_x), -mpmath.expm1(-two_x)
            n = d - 1
            # sum p_n and sum n p_n over n < d, with p_n = (1 - q) q^n.
            mass = 1 - q**d
            occ = q * (1 - d * q**n + n * q**d) / one_q
            s_exact = -(mass * mpmath.log(one_q) + occ * mpmath.log(q)) / mpmath.log(2)
            assert abs(r.S_numeric - s_exact) <= 1e-14 * s_exact
            assert abs(r.mean_occ - occ) <= 1e-12 * occ
        assert r.gap <= 1e-12 * r.S_closed


class TestCrossover:
    # The root is one of two adjacent floats that S_f - S_b straddles.
    def test_root_matches_frozen_value(self):
        res = crossover()
        assert abs(res.x_star - X_STAR) <= X_STAR_TOL
        assert abs(res.residual) <= 1e-14
        assert res.iterations > 0
        assert res.x_star in res.bracket
        lo, hi = res.bracket
        assert math.nextafter(lo, math.inf) == hi
        assert (_closed_form(F, lo) - _closed_form(B, lo)) * (
            _closed_form(F, hi) - _closed_form(B, hi)
        ) < 0.0

    def test_single_sign_change_lies_in_fixed_bracket(self):
        # crossover() bisects CROSSOVER_BRACKET without a check of its own:
        # on a log grid over [1e-3, 100], S_f - S_b is never 0, changes
        # sign exactly once, and does so strictly inside the bracket.
        # Bosons win below the root, fermions above.
        xs = np.geomspace(1e-3, 100.0, 200)
        diff = np.array([
            fermion_entropy(SqueezingParams.from_x(F, float(x)))
            - boson_entropy(SqueezingParams.from_x(B, float(x)))
            for x in xs
        ])
        assert np.all(diff != 0.0)
        assert diff[0] < 0.0 < diff[-1]
        (flips,) = np.nonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))
        assert len(flips) == 1
        lo, hi = CROSSOVER_BRACKET
        assert lo < xs[flips[0]] and xs[flips[0] + 1] < hi

    # The crossover by the numeric route alone: each S is the entropy of the
    # built and traced pair state, and no closed form enters.  The bisection
    # runs on the same bracket with crossover()'s stopping rule.  The boson
    # truncation moves the root, so the bound follows eps_tail: measured
    # 1.93e-11, 1.71e-13 and 1.50e-15 (11 ulp) relative, in 53-54 steps.
    @pytest.mark.parametrize(
        ("eps_tail", "bound"),
        [(1e-12, 2.5e-11), (1e-14, 2.5e-13), (EPS_TAIL_MIN, 16 * math.ulp(X_STAR) / X_STAR)],
        ids=["1e-12", "1e-14", "EPS_TAIL_MIN"],
    )
    def test_numeric_route_finds_the_same_root(self, eps_tail, bound):
        def f(x):
            s_f, s_b = (
                von_neumann_entropy(_reduction(SqueezingParams(st, x), eps_tail)) for st in (F, B)
            )
            return s_f - s_b

        a, b = CROSSOVER_BRACKET
        fa, fb = f(a), f(b)
        while (mid := 0.5 * (a + b)) not in (a, b):
            fm = f(mid)
            if fa * fm <= 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        root = a if abs(fa) <= abs(fb) else b
        x_star = crossover().x_star
        assert abs(root - x_star) <= bound * x_star


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

    def test_float64_and_int_grids_are_accepted(self):
        p = BlackHoleParams(mass=1.0)
        omegas = np.geomspace(0.01, 0.1, 3)
        reports = sweep(p, omegas, statistics="fermion")
        assert [r.omega for r in reports] == omegas.tolist()
        assert all(type(r.omega) is float for r in reports)
        assert [r.omega for r in sweep(p, [1, 2], statistics="fermion")] == [1.0, 2.0]

    def test_statistics_validation(self):
        p = BlackHoleParams(mass=1.0)
        with pytest.raises(ValueError):
            sweep(p, [0.1], statistics=())
        with pytest.raises(ValueError):
            sweep(p, [0.1], statistics=("boson", "boson"))


def per_field(cls, **values):
    """An instance filled one object.__setattr__ at a time, as a frozen __init__ fills it."""
    record = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(record, name, value)
    return record


def assert_frozen(record):
    for name in vars(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)


class TestOneStepRecords:
    """A state and its operator, built by a one-step fill, are the records
    a field-by-field fill makes.

    The report is the exception: callers keep reports, so entropy_report
    builds one through the public constructor, and it must cost no more
    memory than a plain record.
    """

    # The state and its operator compare by identity (eq=False), so the
    # check is on the instance dict: the same names, in order, holding the
    # same objects.
    @pytest.mark.parametrize("statistics", [B, F])
    def test_state_and_operator(self, statistics):
        sq = SqueezingParams(statistics, 0.7)
        state = build_boson_state(sq) if statistics is B else build_fermion_state(sq)
        rho = partial_trace(state)
        for got, want in (
            (state, per_field(PureBipartiteState, statistics=statistics,
                              weights=state.weights, tail_bound=state.tail_bound)),
            (rho, per_field(DensityOperator, statistics=statistics, diag=rho.diag)),
        ):
            assert repr(got) == repr(want)
            assert list(vars(got)) == list(vars(want))
            assert all(vars(got)[k] is v for k, v in vars(want).items())
            assert_frozen(got)

    # A sweep's reports are kept, up to 40,000 of them for the CLI, so each
    # costs what a plain frozen record of the same fields costs.  Filling
    # the instance dict in one update would materialise a dict per report:
    # on Python 3.11, 481 B per report in place of 318 B, with the control
    # record near 360 B.
    def test_kept_reports_cost_what_plain_records_cost(self, traced_memory):
        control = dataclasses.make_dataclass(
            "Control",
            [(f.name, f.type, f) for f in dataclasses.fields(EntropyReport)],
            frozen=True,
        )
        params = BlackHoleParams(mass=1.0)
        omegas = [x / FOUR_PI for x in np.geomspace(0.1, 50.0, 500)]
        sweep(params, omegas)
        reports, swept, _ = traced_memory(lambda: sweep(params, omegas))
        # The same fields, each a fresh float, in a fresh frozen class.
        fields = [[repr(v) for v in dataclasses.astuple(r)] for r in reports]
        plain, built, _ = traced_memory(lambda: [
            control(*map(float, f[:3]), r.statistics, *map(float, f[4:9]))
            for f, r in zip(fields, reports)
        ])
        assert len(plain) == len(reports) == 1000
        assert swept <= 1.1 * built, (swept / len(reports), built / len(plain))

    # The last mode is a criterion-9 grid point whose omega does not survive
    # the trip through x: 4 pi omega / (4 pi) != omega.
    @pytest.mark.parametrize("statistics", [B, F])
    @pytest.mark.parametrize(
        ("mass", "omega"),
        [*((0.7, x / (FOUR_PI * 0.7)) for x in (1.5e-3, 0.3, 40.0)), (1.0, 0.049999999999999996)],
        ids=["0.0015", "0.3", "40.0", "omega-echo"],
    )
    def test_report(self, statistics, mass, omega):
        got = entropy_report(BlackHoleParams(mass=mass), ModeChannel(omega, statistics))
        public = {f.name: getattr(got, f.name) for f in dataclasses.fields(EntropyReport)}
        want = EntropyReport(**public)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert list(vars(got)) == list(vars(want))
        assert got.error is None and got.gap == abs(got.S_closed - got.S_numeric)
        assert (got.omega, got.mass, got.statistics) == (omega, mass, statistics)
        assert_frozen(got)

