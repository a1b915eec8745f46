"""Fock layer tests: state validation, partial trace, entropy, occupation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collapsar import partial_trace, von_neumann_entropy
from collapsar.fock import (
    FERMION_BASIS,
    DensityOperator,
    PureBipartiteState,
    mean_occupation,
    purity,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
BELL = (INV_SQRT2, INV_SQRT2)


def bell_pair():
    return PureBipartiteState(range(2), range(2), BELL)


class TestPureBipartiteState:
    def test_norm_squared(self):
        assert bell_pair().norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_labels_sorted(self):
        state = PureBipartiteState((1, 0), (0, 1), BELL)
        assert state.hor_labels() == (0, 1)
        assert state.out_labels() == (0, 1)

    def test_coefficients_frozen(self):
        state = bell_pair()
        with pytest.raises(TypeError):
            state.coefficients[(0, 0)] = 0.0
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_source_buffer_mutation_does_not_leak(self):
        hor, out = [0, 1], [0, 1]
        amps = np.array(BELL)
        state = PureBipartiteState(hor, out, amps)
        amps[0] = 99.0
        hor[0] = out[0] = 7
        assert state.coefficients[(0, 0)] == INV_SQRT2
        assert state.hor == state.out == (0, 1)

    def test_tail_bound_widens_completeness_window(self):
        # Retained norm 1 - 5e-9 with a tail bound of 1e-8 is acceptable.
        a = math.sqrt(1.0 - 5e-9)
        PureBipartiteState(range(1), range(1), [a], tail_bound=1e-8)

    def test_rejects_short_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            PureBipartiteState(range(1), range(1), [0.9])

    def test_rejects_excess_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            PureBipartiteState(range(1), range(1), [math.sqrt(1.0 + 1e-9)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no amplitudes"):
            PureBipartiteState((), (), [])

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
        ],
    )
    def test_rejects_bad_labels(self, coeffs):
        hor, out = coeffs
        with pytest.raises(ValueError):
            PureBipartiteState(hor, out, [1.0])

    @pytest.mark.parametrize("hor", [range(-1, 2), range(1, -2, -1)])
    def test_rejects_range_reaching_below_zero(self, hor):
        with pytest.raises(ValueError, match="nonnegative"):
            PureBipartiteState(hor, range(3), [3.0**-0.5] * 3)

    @pytest.mark.parametrize(
        "coeffs",
        [
            ((0, 0), (0, 1), (0.6, 0.8)),
            ((0, 1), (0, 0), (0.6, 0.8)),
            (((0, 0), (0, 0)), ((0, 0), (1, 1)), BELL),
        ],
    )
    def test_rejects_non_schmidt_form(self, coeffs):
        # A product state |0>_hor (a|0> + b|1>)_out repeats the horizon label;
        # its out reduction would carry coherences.
        with pytest.raises(ValueError, match="Schmidt form"):
            PureBipartiteState(*coeffs)

    def test_rejects_mixed_label_kinds(self):
        with pytest.raises(ValueError, match="mixed"):
            PureBipartiteState((0, (0, 1)), (0, (1, 0)), BELL)
        with pytest.raises(ValueError, match="mixed"):
            PureBipartiteState(range(4), FERMION_BASIS, [0.5] * 4)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, "0.5", None])
    def test_rejects_bad_amplitudes(self, amp):
        with pytest.raises(ValueError):
            PureBipartiteState(range(1), range(1), [amp])

    def test_rejects_complex_non_finite_amplitude(self):
        with pytest.raises(ValueError, match="non-finite"):
            PureBipartiteState(range(1), range(1), [complex(1.0, math.nan)])

    def test_rejects_bool_amplitudes(self):
        with pytest.raises(ValueError, match="not numbers"):
            PureBipartiteState(range(1), range(1), np.array([True]))

    @pytest.mark.parametrize(
        "hor, out, amps",
        [
            (range(2), range(2), [1.0]),
            (range(1), range(2), [1.0]),
            (range(2), range(1), [1.0]),
        ],
    )
    def test_rejects_count_mismatch(self, hor, out, amps):
        with pytest.raises(ValueError, match="amplitudes"):
            PureBipartiteState(hor, out, amps)

    def test_rejects_2d_amplitudes(self):
        with pytest.raises(ValueError, match="1-D"):
            PureBipartiteState(range(1), range(1), [[1.0]])

    @pytest.mark.parametrize("tail", [-1e-3, 1.0, math.nan])
    def test_rejects_bad_tail(self, tail):
        with pytest.raises(ValueError):
            PureBipartiteState(range(1), range(1), [1.0], tail_bound=tail)

    def test_coefficients_view(self):
        state = PureBipartiteState(FERMION_BASIS, FERMION_BASIS[::-1], [0.5, -0.5, 0.5, -0.5])
        view = state.coefficients
        assert len(view) == 4
        assert list(view) == list(zip(FERMION_BASIS, FERMION_BASIS[::-1]))
        assert view[((0, 1), (1, 0))] == -0.5
        assert ((0, 1), (0, 1)) not in view
        assert ((2, 0), (0, 0)) not in view
        assert 0 not in view


def dict_reduction(pairing, keep):
    """Sorted labels and weights of one side, reduced through a dict keyed by label pair."""
    pos = 1 if keep == "out" else 0
    weights = {}
    for key, amp in pairing.items():
        a = complex(amp)
        weights[key[pos]] = (a.conjugate() * a).real
    labels = tuple(sorted(weights))
    return labels, np.array([weights[lab] for lab in labels], dtype=np.float64)


@st.composite
def schmidt_pairings(draw):
    """Distinct number labels on each side, paired by a random permutation,
    with normalised real or complex amplitudes."""
    d = draw(st.integers(1, 64))
    labels = st.lists(st.integers(0, 200), min_size=d, max_size=d, unique=True)
    hor = draw(labels)
    out = draw(st.permutations(draw(labels)))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array(draw(st.lists(part, min_size=d, max_size=d)))
    if draw(st.booleans()):
        amps = amps + 1j * np.array(draw(st.lists(part, min_size=d, max_size=d)))
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return hor, out, amps / norm


class TestPartialTrace:
    def test_bell_pair_both_sides(self):
        state = bell_pair()
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep=keep)
            assert rho.basis == (0, 1)
            np.testing.assert_allclose(rho.diagonal(), [0.5, 0.5], atol=1e-15)

    def test_crossed_pairing_keeps_each_weight_on_its_label(self):
        # |1>_hor|0>_out and |0>_hor|1>_out: the out side's label 0 carries a^2.
        a, b = 0.6, 0.8
        state = PureBipartiteState((1, 0), (0, 1), (a, b))
        np.testing.assert_array_equal(partial_trace(state, "out").diagonal(), [a * a, b * b])
        np.testing.assert_array_equal(partial_trace(state, "hor").diagonal(), [b * b, a * a])

    def test_complex_amplitudes(self):
        state = PureBipartiteState(range(2), range(2), [INV_SQRT2, 1j * INV_SQRT2])
        rho = partial_trace(state)
        np.testing.assert_allclose(rho.diagonal(), [0.5, 0.5], atol=1e-15)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_pair_labels(self):
        state = PureBipartiteState(((0, 0), (1, 1)), ((0, 0), (1, 1)), [INV_SQRT2, -INV_SQRT2])
        rho = partial_trace(state)
        assert rho.basis == ((0, 0), (1, 1))
        np.testing.assert_allclose(rho.diagonal(), [0.5, 0.5], atol=1e-15)

    def test_schmidt_symmetry_generic(self):
        amps = np.array([0.5, -0.4, 0.3, 0.2, 0.1])
        amps = amps / np.linalg.norm(amps)
        state = PureBipartiteState(range(5), range(5), amps)
        s_out = von_neumann_entropy(partial_trace(state, "out"), method="eigen")
        s_hor = von_neumann_entropy(partial_trace(state, "hor"), method="eigen")
        assert s_out == pytest.approx(s_hor, abs=1e-12)

    def test_descending_range_comes_out_sorted(self):
        state = PureBipartiteState(range(2), range(1, -1, -1), (0.6, 0.8))
        rho = partial_trace(state, "out")
        assert rho.basis == (0, 1)
        np.testing.assert_array_equal(rho.diagonal(), [0.8 * 0.8, 0.6 * 0.6])

    @given(pairing=schmidt_pairings())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_dict_reduction(self, pairing):
        hor, out, amps = pairing
        oracle = dict(zip(zip(hor, out), amps.tolist()))
        state = PureBipartiteState(hor, out, amps)
        assert dict(state.coefficients) == oracle
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep)
            labels, weights = dict_reduction(oracle, keep)
            assert rho.basis == labels
            np.testing.assert_array_equal(rho.diagonal(), weights)

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), keep="in")


class TestDensityOperator:
    def test_matrix_read_only(self):
        rho = partial_trace(bell_pair())
        with pytest.raises(ValueError):
            rho.diag[0] = 0.0

    def test_eigenvalues_are_sorted_diagonal(self):
        rho = DensityOperator(basis=(0, 1, 2), diag=[0.2, 0.5, 0.3])
        assert rho.diag.dtype == np.float64 and rho.diag.shape == (3,)
        np.testing.assert_array_equal(rho.eigenvalues(), [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(rho.diagonal(), [0.2, 0.5, 0.3])

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValueError, match="negative diagonal"):
            DensityOperator(basis=(0, 1), diag=[1.1, -0.1])

    def test_rejects_trace_deficit_beyond_allowance(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(basis=(0, 1), diag=[0.5, 0.4])
        DensityOperator(basis=(0, 1), diag=[0.5, 0.4], max_trace_deficit=0.2)

    def test_rejects_trace_excess(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(basis=(0, 1), diag=[0.6, 0.5])

    def test_ulp_scale_trace_excess_tolerated(self):
        rho = DensityOperator(basis=(0, 1, 2, 3), diag=[0.25000000000000006] * 4)
        assert rho.trace() > 1.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DensityOperator(basis=(0, 1), diag=np.full(3, 1.0 / 3.0))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            DensityOperator(basis=(0, 0), diag=[0.5, 0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DensityOperator(basis=(0, 1), diag=[math.nan, 0.5])

    def test_json_round_trip(self):
        rho = DensityOperator(basis=FERMION_BASIS, diag=[0.4, 0.3, 0.2, 0.1])
        doc = rho.to_json_dict()
        assert list(doc) == ["basis", "diag", "offdiag_norm"]
        assert doc["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert doc["diag"] == [0.4, 0.3, 0.2, 0.1]
        assert doc["offdiag_norm"] == 0.0


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = DensityOperator(basis=(0, 1), diag=[1.0, 0.0])
        assert von_neumann_entropy(rho) == 0.0

    def test_uniform_two_level_one_bit(self):
        rho = DensityOperator(basis=(0, 1), diag=[0.5, 0.5])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_and_eigen_paths_agree(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            p = rng.dirichlet(np.ones(8))
            rho = DensityOperator(basis=tuple(range(8)), diag=p)
            s_diag = von_neumann_entropy(rho, method="diagonal")
            s_eig = von_neumann_entropy(rho, method="eigen")
            assert abs(s_diag - s_eig) < 1e-12

    def test_exact_zeros_are_skipped(self):
        rho = DensityOperator(basis=(0, 1, 2), diag=[0.5, 0.5, 0.0])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(partial_trace(bell_pair()), method="magic")

    def test_result_clamped_nonnegative(self):
        rho = DensityOperator(basis=(0,), diag=[1.0])
        assert von_neumann_entropy(rho) == 0.0


class TestPurityAndOccupation:
    def test_purity_uniform(self):
        rho = DensityOperator(basis=(0, 1), diag=[0.5, 0.5])
        assert purity(rho) == pytest.approx(0.5, abs=1e-15)

    def test_mean_occupation_number_labels(self):
        rho = DensityOperator(basis=(0, 1, 2), diag=[0.5, 0.3, 0.2])
        assert mean_occupation(rho) == pytest.approx(0.7, abs=1e-15)
        assert mean_occupation(rho, "particle") == mean_occupation(rho)

    def test_mean_occupation_pair_labels(self):
        rho = DensityOperator(basis=FERMION_BASIS, diag=[0.4, 0.3, 0.2, 0.1])
        assert mean_occupation(rho) == pytest.approx(0.3, abs=1e-15)

    def test_mean_occupation_bad_sector(self):
        for which in ("holes", "total", "antiparticle"):
            with pytest.raises(ValueError, match="sector"):
                mean_occupation(partial_trace(bell_pair()), which)
