"""Fock layer tests: state validation, partial trace, entropy, occupation."""

import math

import numpy as np
import pytest

from collapsar import partial_trace, von_neumann_entropy
from collapsar.fock import (
    FERMION_BASIS,
    DensityOperator,
    PureBipartiteState,
    mean_occupation,
    purity,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bell_pair():
    return PureBipartiteState({(0, 0): INV_SQRT2, (1, 1): INV_SQRT2})


class TestPureBipartiteState:
    def test_norm_squared(self):
        assert bell_pair().norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_labels_sorted(self):
        st = PureBipartiteState({(1, 0): INV_SQRT2, (0, 1): INV_SQRT2})
        assert st.hor_labels() == (0, 1)
        assert st.out_labels() == (0, 1)

    def test_coefficients_frozen(self):
        st = bell_pair()
        with pytest.raises(TypeError):
            st.coefficients[(0, 0)] = 0.0

    def test_source_dict_mutation_does_not_leak(self):
        coeffs = {(0, 0): INV_SQRT2, (1, 1): INV_SQRT2}
        st = PureBipartiteState(coeffs)
        coeffs[(0, 0)] = 99.0
        assert st.coefficients[(0, 0)] == INV_SQRT2

    def test_tail_bound_widens_completeness_window(self):
        # Retained norm 1 - 5e-9 with a tail bound of 1e-8 is acceptable.
        a = math.sqrt(1.0 - 5e-9)
        PureBipartiteState({(0, 0): a}, tail_bound=1e-8)

    def test_rejects_short_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            PureBipartiteState({(0, 0): 0.9})

    def test_rejects_excess_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            PureBipartiteState({(0, 0): math.sqrt(1.0 + 1e-9)})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PureBipartiteState({})

    @pytest.mark.parametrize(
        "coeffs",
        [
            {(0, (0, 1)): 1.0},
            {(-1, 0): 1.0},
            {((0, 2), (0, 0)): 1.0},
            {(0, 0, 0): 1.0},
            {0: 1.0},
            {(0.5, 0): 1.0},
            {(True, 0): 1.0},
            {(0, True): 1.0},
            {((0, True), (0, 0)): 1.0},
        ],
    )
    def test_rejects_bad_labels(self, coeffs):
        with pytest.raises(ValueError):
            PureBipartiteState(coeffs)

    @pytest.mark.parametrize(
        "coeffs",
        [
            {(0, 0): 0.6, (0, 1): 0.8},
            {(0, 0): 0.6, (1, 0): 0.8},
            {((0, 0), (0, 0)): INV_SQRT2, ((0, 0), (1, 1)): INV_SQRT2},
        ],
    )
    def test_rejects_non_schmidt_form(self, coeffs):
        # A product state |0>_hor (a|0> + b|1>)_out repeats the horizon label;
        # its out reduction would carry coherences.
        with pytest.raises(ValueError, match="Schmidt form"):
            PureBipartiteState(coeffs)

    def test_rejects_mixed_label_kinds(self):
        with pytest.raises(ValueError, match="mixed"):
            PureBipartiteState({(0, 0): INV_SQRT2, ((0, 1), (1, 0)): INV_SQRT2})

    @pytest.mark.parametrize("amp", [math.nan, math.inf, "0.5", None])
    def test_rejects_bad_amplitudes(self, amp):
        with pytest.raises(ValueError):
            PureBipartiteState({(0, 0): amp})

    @pytest.mark.parametrize("tail", [-1e-3, 1.0, math.nan])
    def test_rejects_bad_tail(self, tail):
        with pytest.raises(ValueError):
            PureBipartiteState({(0, 0): 1.0}, tail_bound=tail)


class TestPartialTrace:
    def test_bell_pair_both_sides(self):
        st = bell_pair()
        for keep in ("out", "hor"):
            rho = partial_trace(st, keep=keep)
            assert rho.basis == (0, 1)
            np.testing.assert_allclose(rho.diagonal(), [0.5, 0.5], atol=1e-15)

    def test_crossed_pairing_keeps_each_weight_on_its_label(self):
        # |1>_hor|0>_out and |0>_hor|1>_out: the out side's label 0 carries a^2.
        a, b = 0.6, 0.8
        st = PureBipartiteState({(1, 0): a, (0, 1): b})
        np.testing.assert_array_equal(partial_trace(st, "out").diagonal(), [a * a, b * b])
        np.testing.assert_array_equal(partial_trace(st, "hor").diagonal(), [b * b, a * a])

    def test_complex_amplitudes(self):
        st = PureBipartiteState({(0, 0): INV_SQRT2, (1, 1): 1j * INV_SQRT2})
        rho = partial_trace(st)
        np.testing.assert_allclose(rho.diagonal(), [0.5, 0.5], atol=1e-15)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_pair_labels(self):
        st = PureBipartiteState(
            {((0, 0), (0, 0)): INV_SQRT2, ((1, 1), (1, 1)): -INV_SQRT2}
        )
        rho = partial_trace(st)
        assert rho.basis == ((0, 0), (1, 1))
        np.testing.assert_allclose(rho.diagonal(), [0.5, 0.5], atol=1e-15)

    def test_schmidt_symmetry_generic(self):
        amps = np.array([0.5, -0.4, 0.3, 0.2, 0.1])
        amps = amps / np.linalg.norm(amps)
        st = PureBipartiteState({(n, n): float(a) for n, a in enumerate(amps)})
        s_out = von_neumann_entropy(partial_trace(st, "out"), method="eigen")
        s_hor = von_neumann_entropy(partial_trace(st, "hor"), method="eigen")
        assert s_out == pytest.approx(s_hor, abs=1e-12)

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
        assert mean_occupation(rho, "total") == pytest.approx(0.7, abs=1e-15)
        assert mean_occupation(rho, "particle") == pytest.approx(0.7, abs=1e-15)
        with pytest.raises(ValueError, match="antiparticle"):
            mean_occupation(rho, "antiparticle")

    def test_mean_occupation_pair_labels(self):
        rho = DensityOperator(basis=FERMION_BASIS, diag=[0.4, 0.3, 0.2, 0.1])
        assert mean_occupation(rho, "particle") == pytest.approx(0.3, abs=1e-15)
        assert mean_occupation(rho, "antiparticle") == pytest.approx(0.4, abs=1e-15)
        assert mean_occupation(rho, "total") == pytest.approx(0.7, abs=1e-15)

    def test_mean_occupation_bad_sector(self):
        with pytest.raises(ValueError):
            mean_occupation(partial_trace(bell_pair()), "holes")
