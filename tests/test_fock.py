"""Fock layer tests: completeness, partial trace, entropy, occupation.

A pair state comes only from a builder and an operator only from
``partial_trace``.  Tests that need a chosen amplitude vector or diagonal go
through the same private entry points, ``PureBipartiteState._built`` and
``DensityOperator._reduced``; a chosen diagonal is non-increasing, and a
chosen fermion vector weighs its exchanged labels (0, 1) and (1, 0) alike,
as every builder's does.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collapsar import (
    SqueezingParams,
    Statistics,
    build_boson_state,
    build_fermion_state,
    partial_trace,
    von_neumann_entropy,
)
from collapsar.errors import SqueezingOverflowError
from collapsar.fock import (
    EPS_NORM,
    FERMION_BASIS,
    LAMBDA_FLOOR,
    DensityOperator,
    PureBipartiteState,
    mean_occupation,
)
from collapsar.geometry import X_MIN
from collapsar.states import EPS_TAIL_MAX

B = Statistics.BOSON
F = Statistics.FERMION
INV_SQRT2 = 1.0 / math.sqrt(2.0)
BELL = (INV_SQRT2, INV_SQRT2)
FERMION_AMPS = (0.5, -0.5, 0.5, -0.5)


def built(statistics, amps, tail_bound=0.0):
    """A pair state from a fresh float64 copy of ``amps``, taken in as a builder's."""
    return PureBipartiteState._built(statistics, np.array(amps, dtype=np.float64), tail_bound)


def reduced(statistics, diag):
    """An operator over a chosen non-increasing diagonal, adopted as partial_trace does."""
    diag = np.array(diag, dtype=np.float64)
    assert (diag[1:] <= diag[:-1]).all()
    diag.setflags(write=False)
    return DensityOperator._reduced(statistics, diag)


def bell_pair():
    return built(B, BELL)


# Both classes are made only by the builders and partial_trace: a caller's
# numbers have no way in.
@pytest.mark.parametrize(
    "make",
    [
        lambda: PureBipartiteState(B, [1.0]),
        lambda: PureBipartiteState(F, FERMION_AMPS, 0.0),
        lambda: DensityOperator(B, [1.0]),
        lambda: PureBipartiteState(),
        lambda: DensityOperator(),
    ],
    ids=["boson-state", "fermion-state", "operator", "empty-state", "empty-operator"],
)
def test_direct_construction_is_refused(make):
    # The message names the one way in, with or without arguments.
    with pytest.raises(TypeError, match="use (build_boson_state|partial_trace)"):
        make()


class TestPureBipartiteState:
    def test_norm_squared(self):
        assert bell_pair().norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_labels_sorted(self):
        # The fermion pairing is crossed, but each side lists its labels sorted.
        state = built(F, FERMION_AMPS)
        assert state.hor_labels() == state.out_labels() == FERMION_BASIS
        assert bell_pair().hor_labels() == bell_pair().out_labels() == (0, 1)

    def test_coefficients_frozen(self):
        state = bell_pair()
        with pytest.raises(TypeError):
            state.coefficients[(0, 0)] = 0.0
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_tail_bound_widens_completeness_window(self):
        # Retained norm 1 - 5e-9 with a tail bound of 1e-8 is acceptable.
        a = math.sqrt(1.0 - 5e-9)
        built(B, [a], tail_bound=1e-8)

    # The message gives the exact sum.
    def test_rejects_short_norm(self):
        for statistics, amps in ((B, [0.9]), (F, [0.5, -0.5, 0.5, -0.5 + 1e-6])):
            total = math.fsum(a * a for a in amps)
            with pytest.raises(ValueError) as info:
                built(statistics, amps)
            assert str(info.value) == (
                f"state not complete: |amplitudes|^2 + tail_bound = {total!r}"
            )

    def test_rejects_excess_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            built(B, [math.sqrt(1.0 + 1e-9)])
        with pytest.raises(ValueError, match="not complete"):
            built(B, [1.0, 1e-5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"not complete: .* = 0\.0$"):
            built(B, [])

    # Labels are no longer inputs; a caller hands one in only as a key of the
    # coefficient view, which holds none of these.
    @pytest.mark.parametrize(
        "coeffs",
        [
            ((0,), ((0, 1),)),
            ((-1,), (0,)),
            (((0, 2),), ((0, 0),)),
            (((0, 0, 0),), (0,)),
            (((0,),), (0,)),
            ((0.5,), (0,)),
            ((True,), (0,)),
            ((0,), (True,)),
            (((0, True),), ((0, 0),)),
            # Equal to a label, but not a label: each would match by equality.
            ((True,), (True,)),
            ((1.0,), (1.0,)),
            (((False, True),), ((True, False),)),
            (((0.0, 1.0),), ((1.0, 0.0),)),
        ],
    )
    def test_rejects_bad_labels(self, coeffs):
        (h,), (o,) = coeffs
        states = (built(B, [1.0]), bell_pair(), built(F, FERMION_AMPS))
        for state in states:
            assert (h, o) not in state.coefficients
            with pytest.raises(KeyError):
                state.coefficients[(h, o)]

    # A nan or inf amplitude makes the exact sum nan or inf: never complete.
    @pytest.mark.parametrize(
        "statistics, amps",
        [
            (B, [math.nan]),
            (B, [math.inf]),
            (B, [math.nan, 0.0]),
            (F, [1.0, 0.0, -math.inf, 0.0]),
        ],
        ids=["nan", "inf", "boson-nan", "fermion-inf"],
    )
    def test_rejects_bad_amplitudes(self, statistics, amps):
        with pytest.raises(ValueError, match=r"not complete: .* = (nan|inf)$"):
            built(statistics, amps)

    # A state's statistics is its squeezing's, which refuses anything else.
    @pytest.mark.parametrize("statistics", ["photon", None, True])
    def test_rejects_unknown_statistics(self, statistics):
        with pytest.raises(ValueError, match="not a valid Statistics"):
            SqueezingParams(statistics, 1.0)

    # A state's tail bound is the eps_tail its builder was given, and the
    # builder refuses a bad one.  A bool is not a number here, and neither is
    # a string.
    @pytest.mark.parametrize("tail", [-1e-3, 1.0, math.nan, False, True, "0", None])
    def test_rejects_bad_tail(self, tail):
        with pytest.raises(ValueError, match="eps_tail must lie"):
            build_boson_state(SqueezingParams(B, 1.0), tail)

    # The cap a public constructor once set at 0.5 is now EPS_TAIL_MAX.
    @pytest.mark.parametrize("tail", [0.5 + 2**-53, 0.75, 1.0 - 1e-13])
    def test_rejects_tail_above_half(self, tail):
        with pytest.raises(ValueError) as info:
            build_boson_state(SqueezingParams(B, 1.0), tail)
        assert str(info.value) == f"eps_tail must lie in (0, {EPS_TAIL_MAX!r}], got {tail!r}"

    def test_coefficients_view(self):
        view = built(F, FERMION_AMPS).coefficients
        assert len(view) == 4
        assert list(view) == [
            ((0, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 1)),
        ]
        assert view[((0, 1), (1, 0))] == -0.5
        assert ((0, 1), (0, 1)) not in view
        assert ((2, 0), (0, 0)) not in view
        assert 0 not in view


class TestCompleteness:
    """The pairwise sum of squares decides away from the window edges; fsum at them."""

    @given(
        statistics=st.sampled_from([B, F]),
        d=st.integers(1, 20_000),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["normal", "decaying", "spike"]),
        tail=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
        upper=st.booleans(),
        ulps=st.integers(-8, 8),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_decision_is_the_fsum_window_check(
        self, statistics, d, seed, shape, tail, upper, ulps
    ):
        rng = np.random.default_rng(seed)
        n = 4 if statistics is F else d
        if shape == "normal":
            amps = rng.standard_normal(n)
        elif shape == "decaying":
            amps = rng.uniform(0.5, 1.0) ** np.arange(n) * rng.choice([-1.0, 1.0], n)
        else:
            # Squares below half an ulp of the first: a running sum that
            # starts from the first square drops them, fsum does not.
            amps = np.full(n, math.sqrt(rng.uniform(1e-18, 6e-17)))
            amps[0] = 1.0
        assume(np.any(amps))
        # Rescale so that fsum(a^2) + tail lands within 8 ulp of an edge.
        edge = 1.0 + EPS_NORM + tail if upper else 1.0 - EPS_NORM
        target = edge + ulps * math.ulp(edge) - tail
        amps *= math.sqrt(target / math.fsum((amps * amps).tolist()))
        total = math.fsum((amps * amps).tolist()) + tail
        assume(abs(total - edge) <= 8 * math.ulp(edge))
        if 1.0 - EPS_NORM <= total <= 1.0 + EPS_NORM + tail:
            PureBipartiteState._built(statistics, amps, tail)
        else:
            with pytest.raises(ValueError, match="not complete") as exc:
                PureBipartiteState._built(statistics, amps, tail)
            assert str(exc.value).endswith(f"= {total!r}")

    # Every builder's total lies far inside the window, so no built state
    # takes the exact sum: the fsum decision guards the builders without
    # costing them a pass.  A scan of 99,456 built states (6,000 log-spaced
    # x over this range, 17 eps_tail values from the smallest normal to
    # EPS_TAIL_MAX) found none closer to an edge than 9.995e-13, about
    # EPS_NORM and ten times _EDGE_SLACK.
    @given(
        statistics=st.sampled_from([B, F]),
        x=st.floats(6.25e-4, 700.0),
        eps_tail=st.floats(sys.float_info.min, EPS_TAIL_MAX),
    )
    @example(statistics=B, x=0.002436606855595449, eps_tail=1e-20)
    @example(statistics=B, x=700.0, eps_tail=sys.float_info.min)
    @example(statistics=F, x=X_MIN, eps_tail=EPS_TAIL_MAX)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_inner_states_skip_the_exact_sum(self, statistics, x, eps_tail):
        def exact_sum(self):
            raise AssertionError("fsum reached away from the window edges")

        sq = SqueezingParams.from_x(statistics, x)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(PureBipartiteState, "norm_squared", exact_sum)
            try:
                build_boson_state(sq, eps_tail) if statistics is B else build_fermion_state(sq)
            except SqueezingOverflowError:
                pass


class TestBuiltState:
    """A builder's array is adopted, and checked once: for completeness.

    What the public constructor used to refuse still has no way in: wrong
    numbers fail ``_built``'s completeness check, and a wrong tail bound
    fails the builder's ``eps_tail`` rule before any amplitude is made.
    """

    @pytest.mark.parametrize(
        "statistics, amps, tail",
        [
            (B, [0.9], 0.0),
            (B, [1.0, 1e-5], 0.0),
            (F, [0.5, -0.5, 0.5, -0.5 + 1e-6], 0.0),
            (B, [math.nan, 0.0], 0.0),
            (F, [1.0, 0.0, -math.inf, 0.0], 0.0),
            (B, [1.0], -1e-3),
            (B, [1.0], 1.0),
            (B, [1.0], math.nan),
            (B, [1.0], True),
            (B, [0.0], 0.75),
        ],
        ids=[
            "short", "excess", "fermion-excess", "nan", "fermion-inf",
            "negative-tail", "unit-tail", "nan-tail", "bool-tail", "tail-above-half",
        ],
    )
    def test_refuses_as_the_constructor_does(self, statistics, amps, tail):
        if tail is True or tail != 0.0:
            with pytest.raises(ValueError, match="^eps_tail must lie in "):
                build_boson_state(SqueezingParams(statistics, 1.0), tail)
        else:
            with pytest.raises(ValueError, match="^state not complete: "):
                built(statistics, amps, tail)


# The fermion pairing, written out here rather than imported: each horizon
# pair label goes with its slot-exchanged partner.
PAIR_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))


def exchanged(label):
    n_particle, n_antiparticle = label
    return (n_antiparticle, n_particle)


def dict_reduction(pairing, keep):
    """Sorted labels and weights of one side, reduced through a dict keyed by label."""
    pos = 1 if keep == "out" else 0
    weights = {}
    for key, amp in pairing.items():
        weights[key[pos]] = amp * amp
    labels = tuple(sorted(weights))
    return labels, np.array([weights[lab] for lab in labels], dtype=np.float64)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp).filter(lambda x: lo <= x <= hi)


@st.composite
def real_states(draw):
    """A boson state of drawn normalised amplitudes, or a built fermion state.

    A fermion state comes only from its builder, which weighs the two
    exchanged labels alike; a drawn four-vector need not.
    """
    if draw(st.booleans()):
        return build_fermion_state(SqueezingParams.from_x(F, draw(log_uniform(X_MIN, 745.0))))
    d = draw(st.integers(1, 64))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array(draw(st.lists(part, min_size=d, max_size=d)))
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return built(B, amps / norm)


class TestPartialTrace:
    def test_bell_pair_both_sides(self):
        state = bell_pair()
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep=keep)
            assert tuple(rho.basis) == (0, 1)
            np.testing.assert_allclose(rho.diag, [0.5, 0.5], atol=1e-15)

    def test_crossed_pairing_keeps_each_weight_on_its_label(self):
        # |01>_hor|10>_out and |10>_hor|01>_out: the out side's (0, 1) carries
        # the weight of the horizon's (1, 0), which the builder gives the
        # same bits as the horizon's own (0, 1).
        for x in (X_MIN, 1e-3, 0.3, 1.0, 19.0, 300.0, 745.0):
            state = build_fermion_state(SqueezingParams.from_x(F, x))
            pairing = state.coefficients
            assert list(pairing) == [(h, exchanged(h)) for h in PAIR_LABELS]
            for keep, side in (("hor", 0), ("out", 1)):
                diag = partial_trace(state, keep).diag
                for key, amp in pairing.items():
                    assert diag[FERMION_BASIS.index(key[side])] == amp * amp, (x, keep, key)

    def test_pair_labels(self):
        state = built(F, [INV_SQRT2, 0.0, 0.0, -INV_SQRT2])
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep)
            assert rho.basis == FERMION_BASIS
            np.testing.assert_allclose(rho.diag, [0.5, 0.0, 0.0, 0.5], atol=1e-15)

    def test_schmidt_symmetry_generic(self):
        amps = np.array([0.5, -0.4, 0.3, 0.2, 0.1])
        amps = amps / np.linalg.norm(amps)
        state = built(B, amps)
        s_out = von_neumann_entropy(partial_trace(state, "out"), method="eigen")
        s_hor = von_neumann_entropy(partial_trace(state, "hor"), method="eigen")
        assert s_out == pytest.approx(s_hor, abs=1e-12)

    @given(drawn=real_states())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_dict_reduction(self, drawn):
        state = drawn
        amps = state.amplitudes
        if state.statistics is F:
            pairs = [(h, exchanged(h)) for h in PAIR_LABELS]
        else:
            pairs = [(n, n) for n in range(amps.size)]
        pairing = dict(state.coefficients)
        assert pairing == dict(zip(pairs, amps.tolist()))
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep)
            labels, weights = dict_reduction(pairing, keep)
            assert tuple(rho.basis) == labels
            np.testing.assert_array_equal(rho.diag, weights)

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), keep="in")

    # The reduction of a built state, either side: the state's squares in
    # basis order, read-only, non-increasing as the builder vouches.
    @pytest.mark.parametrize(
        "statistics, x",
        [(B, 1.032e-3), (B, 0.1), (B, 3.0), (B, 40.0), (F, 1e-6), (F, 1.0), (F, 50.0)],
    )
    def test_built_reduction_is_the_checked_squares(self, statistics, x):
        sq = SqueezingParams.from_x(statistics, x)
        state = build_boson_state(sq) if statistics is B else build_fermion_state(sq)
        squares = state.amplitudes**2
        for keep in ("hor", "out"):
            rho = partial_trace(state, keep)
            want = squares[[0, 2, 1, 3]] if statistics is F and keep == "out" else squares
            np.testing.assert_array_equal(rho.diag, want)
            assert rho.diag.dtype == np.float64
            assert not rho.diag.flags.writeable
            assert rho.statistics is statistics
            assert (rho.diag[1:] <= rho.diag[:-1]).all()

    # The squares a built state sums for completeness are the diagonal of
    # both its reductions: formed once, never squared or copied again.
    def test_reduction_is_the_array_the_state_summed(self, monkeypatch):
        summed = []
        array_sum = np.ndarray.sum

        class Spied(np.ndarray):
            def sum(self, *args, **kwargs):
                summed.append(self)
                return array_sum(self, *args, **kwargs)

        adopt = PureBipartiteState._built.__func__

        def spied(cls, statistics, amps, tail_bound):
            return adopt(cls, statistics, amps.view(Spied), tail_bound)

        monkeypatch.setattr(PureBipartiteState, "_built", classmethod(spied))
        states = [
            build_boson_state(SqueezingParams.from_x(B, 0.02)),
            build_fermion_state(SqueezingParams.from_x(F, 0.5)),
        ]
        assert len(summed) == len(states)
        for state, squares in zip(states, summed):
            assert state._squares is squares
            assert squares.tobytes() == (state.amplitudes * state.amplitudes).tobytes()
            for keep in ("out", "hor"):
                assert partial_trace(state, keep).diag is squares

    # The operator sets no flag of its own: a built state's squares are
    # read-only from the start.
    @pytest.mark.parametrize("statistics", [B, F])
    def test_every_reduction_is_read_only(self, statistics):
        build = build_boson_state if statistics is B else build_fermion_state
        states = [build(SqueezingParams.from_x(statistics, x)) for x in (0.02, 0.3, 5.0)]
        for state in states:
            for keep in ("out", "hor"):
                diag = partial_trace(state, keep).diag
                assert not diag.flags.writeable, (state, keep)
                with pytest.raises(ValueError):
                    diag[0] = 0.0

    # Over built states of both statistics, both eps_tail ends: the two
    # sides' diagonals are the same bytes, and each is the dict reduction
    # read through the pairing that ``coefficients`` shows.
    @given(
        statistics=st.sampled_from([B, F]),
        data=st.data(),
        eps_tail=st.sampled_from([sys.float_info.min, EPS_TAIL_MAX]),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_both_sides_are_one_array(self, statistics, data, eps_tail):
        if statistics is F:
            x = data.draw(log_uniform(X_MIN, 745.0))
            state = build_fermion_state(SqueezingParams.from_x(F, x))
        else:
            x = data.draw(log_uniform(1.032e-3, 700.0))
            sq = SqueezingParams.from_x(B, x)
            try:
                state = build_boson_state(sq, eps_tail)
            except SqueezingOverflowError:
                return
        pairing = dict(state.coefficients)
        diags = {}
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep)
            labels, weights = dict_reduction(pairing, keep)
            assert tuple(rho.basis) == labels
            assert rho.diag.tobytes() == weights.tobytes(), (x, eps_tail, keep)
            diags[keep] = rho.diag.tobytes()
        assert diags["out"] == diags["hor"]

    def test_state_at_the_upper_edge_reduces(self):
        # fsum(a^2) is exactly 1 + EPS_NORM, which the state accepts; the
        # pairwise sum lies 1 ulp above, and the reduction adopts it with no
        # second check to refuse it.
        amps = [-0.5636345654443332, 0.8255617528835841, -0.027638176733674816]
        state = built(B, amps)
        assert state.norm_squared() == 1.0 + EPS_NORM
        rho = partial_trace(state)
        assert float(rho.diag.sum()) > 1.0 + EPS_NORM


class TestDensityOperator:
    def test_matrix_read_only(self):
        rho = partial_trace(bell_pair())
        with pytest.raises(ValueError):
            rho.diag[0] = 0.0

    def test_basis_follows_statistics(self):
        assert reduced(B, [0.5, 0.3, 0.2]).basis == range(3)
        assert reduced(F, [0.4, 0.3, 0.2, 0.1]).basis == FERMION_BASIS

    # No operator sorts: a reduction's diagonal is non-increasing, so its
    # spectrum is the diagonal reversed.
    def test_eigenvalues_are_sorted_diagonal(self):
        state = built(B, [math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)])
        rho = partial_trace(state)
        assert rho.diag.dtype == np.float64 and rho.diag.shape == (3,)
        np.testing.assert_array_equal(rho.diag, state.amplitudes**2)
        np.testing.assert_array_equal(rho.diag[::-1], np.sort(rho.diag))

    # Over every admitted boson and fermion mode, both kept sides: the
    # reversed diagonal is np.sort's spectrum, bit for bit.
    @given(
        statistics=st.sampled_from([B, F]),
        x=st.floats(6.25e-4, 700.0),
        eps_tail=st.floats(sys.float_info.min, EPS_TAIL_MAX),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_eigenvalues_are_np_sort_bit_for_bit(self, statistics, x, eps_tail):
        if statistics is F:
            assume(x >= X_MIN)
            state = build_fermion_state(SqueezingParams.from_x(F, x))
        else:
            try:
                state = build_boson_state(SqueezingParams.from_x(B, x), eps_tail)
            except SqueezingOverflowError:
                return
        for keep in ("out", "hor"):
            diag = partial_trace(state, keep).diag
            assert diag[::-1].tobytes() == np.sort(diag).tobytes(), (x, eps_tail, keep)

    def test_json_round_trip(self):
        rho = reduced(F, [0.4, 0.3, 0.2, 0.1])
        doc = rho.to_json_dict()
        assert list(doc) == ["basis", "diag", "offdiag_norm"]
        assert doc["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert doc["diag"] == [0.4, 0.3, 0.2, 0.1]
        assert doc["offdiag_norm"] == 0.0
        assert reduced(B, [0.5, 0.5]).to_json_dict()["basis"] == [0, 1]


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = reduced(B, diag=[1.0, 0.0])
        assert von_neumann_entropy(rho) == 0.0

    def test_uniform_two_level_one_bit(self):
        rho = reduced(B, diag=[0.5, 0.5])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_exact_zeros_are_skipped(self):
        rho = reduced(B, diag=[0.5, 0.5, 0.0])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(partial_trace(bell_pair()), method="magic")

    def test_result_clamped_nonnegative(self):
        rho = reduced(B, diag=[1.0])
        assert von_neumann_entropy(rho) == 0.0

    # Eigenvalues at or below LAMBDA_FLOOR drop out; the sum runs over the
    # same ascending entries, in the same order, as a mask of the sorted
    # spectrum would leave.
    @pytest.mark.parametrize(
        "rho",
        [
            partial_trace(build_fermion_state(SqueezingParams.from_x(F, 50.0))),
            reduced(B, [0.5, 0.25, 0.125, 0.125, 0.0, 0.0]),
            reduced(B, [0.5, 0.5 - 2 * LAMBDA_FLOOR, LAMBDA_FLOOR, LAMBDA_FLOOR]),
            reduced(B, [1.0, LAMBDA_FLOOR]),
            reduced(B, [0.75, 0.25, 2 * LAMBDA_FLOOR, -0.0, -5e-11]),
        ],
        ids=["fermion-x50", "boson-zero-tail", "at-floor", "pure-at-floor", "negative"],
    )
    def test_floor_drops_the_same_entries_as_a_mask(self, rho):
        p = np.sort(rho.diag)
        assert p[0] <= LAMBDA_FLOOR
        p = p[p > LAMBDA_FLOOR]
        assert von_neumann_entropy(rho) == max(0.0, -float((p * np.log2(p)).sum()))


class TestPurityAndOccupation:
    def test_mean_occupation_number_labels(self):
        rho = reduced(B, diag=[0.5, 0.3, 0.2])
        assert mean_occupation(rho) == pytest.approx(0.7, abs=1e-15)
        assert mean_occupation(rho, "particle") == mean_occupation(rho)

    def test_mean_occupation_pair_labels(self):
        rho = reduced(F, diag=[0.4, 0.3, 0.2, 0.1])
        assert mean_occupation(rho) == pytest.approx(0.3, abs=1e-15)

    def test_mean_occupation_bad_sector(self):
        for which in ("holes", "total", "antiparticle"):
            with pytest.raises(ValueError, match="sector"):
                mean_occupation(partial_trace(bell_pair()), which)
