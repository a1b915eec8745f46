"""Fock layer tests: state validation, partial trace, entropy, occupation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collapsar import (
    SqueezingParams,
    Statistics,
    build_boson_state,
    build_fermion_state,
    partial_trace,
    von_neumann_entropy,
)
from collapsar import fock
from collapsar.fock import (
    EPS_NORM,
    FERMION_BASIS,
    LAMBDA_FLOOR,
    PSD_ATOL,
    TRACE_DEFICIT_DEFAULT,
    TRACE_EXCESS,
    DensityOperator,
    PureBipartiteState,
    mean_occupation,
)

B = Statistics.BOSON
F = Statistics.FERMION
INV_SQRT2 = 1.0 / math.sqrt(2.0)
BELL = (INV_SQRT2, INV_SQRT2)
FERMION_AMPS = (0.5, -0.5, 0.5, -0.5)


def bell_pair():
    return PureBipartiteState(B, BELL)


class TestPureBipartiteState:
    def test_norm_squared(self):
        assert bell_pair().norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_labels_sorted(self):
        # The fermion pairing is crossed, but each side lists its labels sorted.
        state = PureBipartiteState(F, FERMION_AMPS)
        assert state.hor_labels() == state.out_labels() == FERMION_BASIS
        assert bell_pair().hor_labels() == bell_pair().out_labels() == (0, 1)

    def test_coefficients_frozen(self):
        state = bell_pair()
        with pytest.raises(TypeError):
            state.coefficients[(0, 0)] = 0.0
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_source_buffer_mutation_does_not_leak(self):
        amps = np.array(BELL)
        state = PureBipartiteState(B, amps)
        amps[0] = 99.0
        assert state.coefficients[(0, 0)] == INV_SQRT2

    def test_tail_bound_widens_completeness_window(self):
        # Retained norm 1 - 5e-9 with a tail bound of 1e-8 is acceptable.
        a = math.sqrt(1.0 - 5e-9)
        PureBipartiteState(B, [a], tail_bound=1e-8)

    def test_rejects_short_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            PureBipartiteState(B, [0.9])

    def test_rejects_excess_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            PureBipartiteState(B, [math.sqrt(1.0 + 1e-9)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no amplitudes"):
            PureBipartiteState(B, [])

    @pytest.mark.parametrize("amps", [[1.0], [0.6, 0.8], [0.5] * 4 + [0.0]])
    def test_rejects_fermion_length_not_four(self, amps):
        with pytest.raises(ValueError, match="4 amplitudes"):
            PureBipartiteState(F, amps)

    @pytest.mark.parametrize("statistics", ["photon", None, True])
    def test_rejects_unknown_statistics(self, statistics):
        with pytest.raises(ValueError):
            PureBipartiteState(statistics, [1.0])

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
        states = (
            PureBipartiteState(B, [1.0]),
            bell_pair(),
            PureBipartiteState(F, FERMION_AMPS),
        )
        for state in states:
            assert (h, o) not in state.coefficients
            with pytest.raises(KeyError):
                state.coefficients[(h, o)]

    @pytest.mark.parametrize("amp", [math.nan, math.inf, "0.5", None])
    def test_rejects_bad_amplitudes(self, amp):
        with pytest.raises(ValueError):
            PureBipartiteState(B, [amp])

    def test_rejects_complex_amplitudes(self):
        with pytest.raises(ValueError, match="not real numbers"):
            PureBipartiteState(B, [INV_SQRT2, 1j * INV_SQRT2])

    def test_rejects_complex_non_finite_amplitude(self):
        with pytest.raises(ValueError, match="not real numbers"):
            PureBipartiteState(B, [complex(1.0, math.nan)])

    def test_rejects_bool_amplitudes(self):
        with pytest.raises(ValueError, match="not real numbers"):
            PureBipartiteState(B, np.array([True]))

    def test_rejects_2d_amplitudes(self):
        with pytest.raises(ValueError, match="1-D"):
            PureBipartiteState(B, [[1.0]])

    # A bool is not a number here, and neither is a string.
    @pytest.mark.parametrize("tail", [-1e-3, 1.0, math.nan, False, True, "0", None])
    def test_rejects_bad_tail(self, tail):
        with pytest.raises(ValueError, match="tail_bound must lie"):
            PureBipartiteState(B, [1.0], tail_bound=tail)

    # A state keeps at least what its cut discards, so it never reduces to
    # the zero diagonal.
    @pytest.mark.parametrize("tail", [0.5 + 2**-53, 0.75, 1.0 - 1e-13])
    def test_rejects_tail_above_half(self, tail):
        message = (
            "tail_bound must not exceed 0.5: a cut may not discard more than "
            f"it keeps, got {tail!r}"
        )
        with pytest.raises(ValueError) as info:
            PureBipartiteState(B, [0.0], tail_bound=tail)
        assert str(info.value) == message

    def test_takes_tail_of_half(self):
        state = PureBipartiteState(B, [math.sqrt(0.5)], tail_bound=0.5)
        assert partial_trace(state).max_trace_deficit == TRACE_DEFICIT_DEFAULT + 0.5

    def test_integer_amplitudes_become_float64(self):
        state = PureBipartiteState(B, [0, 1])
        assert state.amplitudes.dtype == np.float64

    def test_coefficients_view(self):
        view = PureBipartiteState(F, FERMION_AMPS).coefficients
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
        # A builder's adopted array takes the same decision as a caller's.
        for make in (PureBipartiteState, PureBipartiteState._built):
            if 1.0 - EPS_NORM <= total <= 1.0 + EPS_NORM + tail:
                make(statistics, amps.copy(), tail)
            else:
                with pytest.raises(ValueError, match="not complete") as exc:
                    make(statistics, amps.copy(), tail)
                assert str(exc.value).endswith(f"= {total!r}")

    def test_inner_states_skip_the_exact_sum(self, monkeypatch):
        def exact_sum(self):
            raise AssertionError("fsum reached away from the window edges")

        monkeypatch.setattr(PureBipartiteState, "norm_squared", exact_sum)
        PureBipartiteState(F, FERMION_AMPS)
        bell_pair()
        a = math.sqrt(1.0 - 5e-9)
        PureBipartiteState(B, [a], tail_bound=1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "amps",
        [[1e200], [1e154, 1e154], [1e200, 0.0, 0.0, 0.0]],
        ids=["square-overflows", "sum-overflows", "fermion-square-overflows"],
    )
    def test_overflow_is_incomplete_without_warning(self, amps):
        statistics = F if len(amps) == 4 else B
        with pytest.raises(ValueError, match=r"not complete: .* = inf$"):
            PureBipartiteState(statistics, amps)


class TestBuiltState:
    """A builder's array is adopted, and checked once: for completeness."""

    # Each would pass the constructor's intake; only the numbers are wrong.
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
        with pytest.raises(ValueError) as public:
            PureBipartiteState(statistics, amps, tail_bound=tail)
        with pytest.raises(ValueError) as built:
            PureBipartiteState._built(statistics, np.array(amps), tail)
        assert str(built.value) == str(public.value)


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


@st.composite
def real_states(draw):
    """A statistics and a normalised real amplitude vector of a length it allows."""
    statistics = draw(st.sampled_from([B, F]))
    d = 4 if statistics is F else draw(st.integers(1, 64))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array(draw(st.lists(part, min_size=d, max_size=d)))
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return statistics, amps / norm


class TestPartialTrace:
    def test_bell_pair_both_sides(self):
        state = bell_pair()
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep=keep)
            assert tuple(rho.basis) == (0, 1)
            np.testing.assert_allclose(rho.diag, [0.5, 0.5], atol=1e-15)

    def test_crossed_pairing_keeps_each_weight_on_its_label(self):
        # |01>_hor|10>_out and |10>_hor|01>_out: the out side's (0, 1) carries
        # the weight of the horizon's (1, 0).
        amps = np.array([0.1, 0.3, 0.5, 0.0])
        amps[3] = math.sqrt(1.0 - (amps * amps).sum())
        state = PureBipartiteState(F, amps)
        w = amps * amps
        np.testing.assert_array_equal(partial_trace(state, "hor").diag, w)
        np.testing.assert_array_equal(partial_trace(state, "out").diag, w[[0, 2, 1, 3]])

    def test_pair_labels(self):
        state = PureBipartiteState(F, [INV_SQRT2, 0.0, 0.0, -INV_SQRT2])
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep)
            assert rho.basis == FERMION_BASIS
            np.testing.assert_allclose(rho.diag, [0.5, 0.0, 0.0, 0.5], atol=1e-15)

    def test_schmidt_symmetry_generic(self):
        amps = np.array([0.5, -0.4, 0.3, 0.2, 0.1])
        amps = amps / np.linalg.norm(amps)
        state = PureBipartiteState(B, amps)
        s_out = von_neumann_entropy(partial_trace(state, "out"), method="eigen")
        s_hor = von_neumann_entropy(partial_trace(state, "hor"), method="eigen")
        assert s_out == pytest.approx(s_hor, abs=1e-12)

    @given(drawn=real_states())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_dict_reduction(self, drawn):
        statistics, amps = drawn
        state = PureBipartiteState(statistics, amps)
        if statistics is F:
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
    # basis order, read-only, and an operator the public constructor accepts.
    # Its spectrum is a reversal: np.sort never runs.
    @pytest.mark.parametrize(
        "statistics, x",
        [(B, 1.032e-3), (B, 0.1), (B, 3.0), (B, 40.0), (F, 1e-6), (F, 1.0), (F, 50.0)],
    )
    def test_built_reduction_is_the_checked_squares(self, monkeypatch, statistics, x):
        sq = SqueezingParams.from_x(statistics, x)
        state = build_boson_state(sq) if statistics is B else build_fermion_state(sq)
        squares = state.amplitudes**2
        deficit = min(1.0 - 1e-12, TRACE_DEFICIT_DEFAULT + state.tail_bound)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.sort ran on a non-increasing diagonal")

        for keep in ("hor", "out"):
            rho = partial_trace(state, keep)
            want = squares[[0, 2, 1, 3]] if statistics is F and keep == "out" else squares
            np.testing.assert_array_equal(rho.diag, want)
            assert rho.diag.dtype == np.float64
            assert not rho.diag.flags.writeable
            assert rho.statistics is statistics and rho.max_trace_deficit == deficit
            again = DensityOperator(rho.statistics, rho.diag, rho.max_trace_deficit)
            np.testing.assert_array_equal(again.diag, rho.diag)
            with monkeypatch.context() as m:
                m.setattr(np, "sort", no_sort)
                np.testing.assert_array_equal(rho.eigenvalues(), want[::-1])

    # The squares a state sums for completeness are its reduction's diagonal:
    # formed once, never squared again.  Only the fermion's outgoing side,
    # a slot exchange, takes a permuted copy.
    def test_reduction_is_the_array_the_state_summed(self, monkeypatch):
        summed = []
        adopt = PureBipartiteState._adopt

        def spy(self, amps, squares, total):
            summed.append(squares)
            return adopt(self, amps, squares, total)

        monkeypatch.setattr(PureBipartiteState, "_adopt", spy)
        states = [
            build_boson_state(SqueezingParams.from_x(B, 0.02)),
            build_fermion_state(SqueezingParams.from_x(F, 0.5)),
            bell_pair(),
            PureBipartiteState(F, FERMION_AMPS),
        ]
        assert len(summed) == len(states)
        for state, squares in zip(states, summed):
            assert state._squares is squares
            assert float(squares.sum()) == float((state.amplitudes**2).sum())
            for keep in ("out", "hor"):
                diag = partial_trace(state, keep).diag
                if state.statistics is F and keep == "out":
                    assert not np.shares_memory(diag, squares)
                    np.testing.assert_array_equal(diag, squares[[0, 2, 1, 3]])
                else:
                    assert diag is squares

    # The operator sets no flag of its own: a state's squares are read-only
    # from the start, and the fermion's exchanged copy is flagged as made.
    @pytest.mark.parametrize("statistics", [B, F])
    def test_every_reduction_is_read_only(self, statistics):
        built = (
            build_boson_state(SqueezingParams.from_x(B, 0.3))
            if statistics is B
            else build_fermion_state(SqueezingParams.from_x(F, 0.3))
        )
        public = PureBipartiteState(statistics, built.amplitudes, built.tail_bound)
        for state in (built, public):
            for keep in ("out", "hor"):
                diag = partial_trace(state, keep).diag
                assert not diag.flags.writeable, (state, keep)
                with pytest.raises(ValueError):
                    diag[0] = 0.0

    def test_reduction_skips_the_public_checks(self, monkeypatch):
        def public_checks(self):
            raise AssertionError("a reduction was checked a second time")

        monkeypatch.setattr(DensityOperator, "__post_init__", public_checks)
        for keep in ("hor", "out"):
            partial_trace(bell_pair(), keep)
            partial_trace(PureBipartiteState(F, FERMION_AMPS), keep)

    def test_state_at_the_upper_edge_reduces(self):
        # fsum(a^2) is exactly 1 + EPS_NORM, which the state accepts; the
        # pairwise sum lies 1 ulp above, which only a second check refuses.
        amps = [-0.5636345654443332, 0.8255617528835841, -0.027638176733674816]
        state = PureBipartiteState(B, amps)
        assert state.norm_squared() == 1.0 + EPS_NORM
        rho = partial_trace(state)
        assert float(rho.diag.sum()) > 1.0 + TRACE_EXCESS
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(B, rho.diag)


class TestDensityOperator:
    def test_matrix_read_only(self):
        rho = partial_trace(bell_pair())
        with pytest.raises(ValueError):
            rho.diag[0] = 0.0

    def test_basis_follows_statistics(self):
        assert DensityOperator(B, [0.2, 0.5, 0.3]).basis == range(3)
        assert DensityOperator(F, [0.4, 0.3, 0.2, 0.1]).basis == FERMION_BASIS

    def test_eigenvalues_are_sorted_diagonal(self):
        rho = DensityOperator(B, diag=[0.2, 0.5, 0.3])
        assert rho.diag.dtype == np.float64 and rho.diag.shape == (3,)
        np.testing.assert_array_equal(rho.eigenvalues(), [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(rho.diag, [0.2, 0.5, 0.3])

    # Non-increasing diagonals are reversed, others sorted; either way the
    # spectrum is np.sort's, bit for bit, in a fresh contiguous array.
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, -PSD_ATOL, 5e-324, LAMBDA_FLOOR, 0.25]),
                st.floats(-PSD_ATOL, 1.0),
            ),
            min_size=1,
            max_size=40,
        ),
        order=st.sampled_from(["non-increasing", "ascending", "drawn"]),
    )
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_eigenvalues_are_np_sort_bit_for_bit(self, values, order):
        diag = np.array(values)
        positive = diag > 0.0
        assume(positive.any())
        # Scaling the positive entries to unit sum keeps each tie and each
        # zero's sign.
        diag[positive] /= diag[positive].sum()
        if order == "non-increasing":
            diag = -np.sort(-diag, kind="stable")
        elif order == "ascending":
            diag = np.sort(diag, kind="stable")
        rho = DensityOperator(B, diag, max_trace_deficit=1e-6)
        got = rho.eigenvalues()
        assert got.tobytes() == np.sort(rho.diag).tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, rho.diag)

    @pytest.mark.parametrize("diag", [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]])
    def test_order_is_decided_once(self, monkeypatch, diag):
        decided = []
        descends = fock._descends
        monkeypatch.setattr(fock, "_descends", lambda d: decided.append(d) or descends(d))
        rho = DensityOperator(B, diag)
        first = rho.eigenvalues()
        np.testing.assert_array_equal(rho.eigenvalues(), first)
        von_neumann_entropy(rho)
        assert len(decided) == 1 and decided[0] is rho.diag

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValueError, match="negative diagonal"):
            DensityOperator(B, diag=[1.1, -0.1])

    def test_rejects_trace_deficit_beyond_allowance(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(B, diag=[0.5, 0.4])
        DensityOperator(B, diag=[0.5, 0.4], max_trace_deficit=0.2)

    def test_rejects_trace_excess(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(B, diag=[0.6, 0.5])

    def test_ulp_scale_trace_excess_tolerated(self):
        rho = DensityOperator(F, diag=[0.25000000000000006] * 4)
        assert rho.diag.sum() > 1.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="4 probabilities"):
            DensityOperator(F, diag=np.full(3, 1.0 / 3.0))
        with pytest.raises(ValueError, match="shape"):
            DensityOperator(B, diag=np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="no probabilities"):
            DensityOperator(B, diag=[])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DensityOperator(B, diag=[math.nan, 0.5])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "diag",
        [
            ["0.5", "0.5"],
            [True, False],
            np.array([0.5, 0.5], dtype=object),
            np.array([0.5 + 0.5j, 0.5]),
        ],
        ids=["strings", "bools", "object", "complex"],
    )
    def test_rejects_non_numbers(self, diag):
        with pytest.raises(ValueError, match="probabilities are not real numbers: dtype"):
            DensityOperator(B, diag)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trace_is_rejected_without_warning(self):
        with pytest.raises(ValueError, match="trace inf outside allowed window"):
            DensityOperator(B, diag=[1e308, 1e308])
        with pytest.raises(ValueError, match="non-finite diagonal entries"):
            DensityOperator(B, diag=[math.inf, -math.inf])

    # A bool is not a number here, and neither is a string.
    @pytest.mark.parametrize("deficit", [-1e-3, 1.0, math.nan, False, True, "x", None])
    def test_rejects_bad_max_trace_deficit(self, deficit):
        with pytest.raises(ValueError, match="max_trace_deficit must lie"):
            DensityOperator(B, diag=[1.0], max_trace_deficit=deficit)

    def test_json_round_trip(self):
        rho = DensityOperator(F, diag=[0.4, 0.3, 0.2, 0.1])
        doc = rho.to_json_dict()
        assert list(doc) == ["basis", "diag", "offdiag_norm"]
        assert doc["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert doc["diag"] == [0.4, 0.3, 0.2, 0.1]
        assert doc["offdiag_norm"] == 0.0
        assert DensityOperator(B, diag=[0.5, 0.5]).to_json_dict()["basis"] == [0, 1]


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = DensityOperator(B, diag=[1.0, 0.0])
        assert von_neumann_entropy(rho) == 0.0

    def test_uniform_two_level_one_bit(self):
        rho = DensityOperator(B, diag=[0.5, 0.5])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_exact_zeros_are_skipped(self):
        rho = DensityOperator(B, diag=[0.5, 0.5, 0.0])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(partial_trace(bell_pair()), method="magic")

    def test_result_clamped_nonnegative(self):
        rho = DensityOperator(B, diag=[1.0])
        assert von_neumann_entropy(rho) == 0.0

    # Eigenvalues at or below LAMBDA_FLOOR drop out; the sum runs over the
    # same ascending entries, in the same order, as a mask of the sorted
    # spectrum would leave.
    @pytest.mark.parametrize(
        "rho",
        [
            partial_trace(build_fermion_state(SqueezingParams.from_x(F, 50.0))),
            DensityOperator(B, [0.5, 0.25, 0.125, 0.125, 0.0, 0.0]),
            DensityOperator(B, [0.5, 0.5 - 2 * LAMBDA_FLOOR, LAMBDA_FLOOR, LAMBDA_FLOOR]),
            DensityOperator(B, [1.0, LAMBDA_FLOOR]),
            DensityOperator(B, [0.75, 0.25, 2 * LAMBDA_FLOOR, -0.0, -PSD_ATOL / 2]),
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
        rho = DensityOperator(B, diag=[0.5, 0.3, 0.2])
        assert mean_occupation(rho) == pytest.approx(0.7, abs=1e-15)
        assert mean_occupation(rho, "particle") == mean_occupation(rho)

    def test_mean_occupation_pair_labels(self):
        rho = DensityOperator(F, diag=[0.4, 0.3, 0.2, 0.1])
        assert mean_occupation(rho) == pytest.approx(0.3, abs=1e-15)

    def test_mean_occupation_bad_sector(self):
        for which in ("holes", "total", "antiparticle"):
            with pytest.raises(ValueError, match="sector"):
                mean_occupation(partial_trace(bell_pair()), which)
