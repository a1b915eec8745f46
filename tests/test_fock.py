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
        ],
    )
    def test_rejects_bad_labels(self, coeffs):
        with pytest.raises(ValueError):
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
            assert rho.offdiag_norm() == 0.0

    def test_product_state_is_pure_on_both_sides(self):
        # |0>_hor (a|0> + b|1>)_out: the out reduction keeps coherences,
        # the hor reduction is the trivial one-level projector.
        a, b = 0.6, 0.8
        st = PureBipartiteState({(0, 0): a, (0, 1): b})
        rho_out = partial_trace(st, keep="out")
        assert rho_out.dim == 2
        assert rho_out.offdiag_norm() > 0.0
        np.testing.assert_allclose(
            rho_out.matrix, [[a * a, a * b], [a * b, b * b]], atol=1e-15
        )
        assert purity(rho_out) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(rho_out) == pytest.approx(0.0, abs=1e-12)
        rho_hor = partial_trace(st, keep="hor")
        assert rho_hor.dim == 1
        assert von_neumann_entropy(rho_hor) == pytest.approx(0.0, abs=1e-15)

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
            rho.matrix[0, 0] = 0.0

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(basis=(0, 1), matrix=m)

    def test_rejects_negative_eigenvalue(self):
        m = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="positive"):
            DensityOperator(basis=(0, 1), matrix=m)

    def test_rejects_negative_diagonal(self):
        m = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative diagonal"):
            DensityOperator(basis=(0, 1), matrix=m)

    def test_rejects_trace_deficit_beyond_allowance(self):
        m = np.diag([0.5, 0.4]).astype(complex)
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(basis=(0, 1), matrix=m)
        DensityOperator(basis=(0, 1), matrix=m, max_trace_deficit=0.2)

    def test_rejects_trace_excess(self):
        m = np.diag([0.6, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(basis=(0, 1), matrix=m)

    def test_ulp_scale_trace_excess_tolerated(self):
        m = np.diag([0.25000000000000006] * 4).astype(complex)
        rho = DensityOperator(basis=(0, 1, 2, 3), matrix=m)
        assert rho.trace() > 1.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DensityOperator(basis=(0, 1), matrix=np.eye(3, dtype=complex) / 3.0)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            DensityOperator(basis=(0, 0), matrix=np.eye(2, dtype=complex) / 2.0)

    def test_rejects_non_finite(self):
        m = np.diag([math.nan, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityOperator(basis=(0, 1), matrix=m)

    def test_offdiag_norm_exact_zero_for_diagonal(self):
        rho = DensityOperator(basis=(0, 1), matrix=np.diag([0.7, 0.3]).astype(complex))
        assert rho.offdiag_norm() == 0.0

    def test_offdiag_norm_value(self):
        m = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        rho = DensityOperator(basis=(0, 1), matrix=m)
        assert rho.offdiag_norm() == pytest.approx(math.sqrt(2.0) * 0.2, rel=1e-12)

    def test_json_round_trip(self):
        rho = DensityOperator(
            basis=FERMION_BASIS,
            matrix=np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex),
        )
        doc = rho.to_json_dict()
        assert list(doc) == ["basis", "diag", "offdiag_norm"]
        assert doc["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert doc["diag"] == [0.4, 0.3, 0.2, 0.1]
        assert doc["offdiag_norm"] == 0.0


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = DensityOperator(basis=(0, 1), matrix=np.diag([1.0, 0.0]).astype(complex))
        assert von_neumann_entropy(rho) == 0.0

    def test_uniform_two_level_one_bit(self):
        rho = DensityOperator(basis=(0, 1), matrix=np.diag([0.5, 0.5]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_and_eigen_paths_agree(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            p = rng.dirichlet(np.ones(8))
            rho = DensityOperator(basis=tuple(range(8)), matrix=np.diag(p).astype(complex))
            s_diag = von_neumann_entropy(rho, method="diagonal")
            s_eig = von_neumann_entropy(rho, method="eigen")
            assert abs(s_diag - s_eig) < 1e-12

    def test_eigen_path_is_basis_independent(self):
        # Conjugating by a random unitary must not change the spectrum.
        rng = np.random.default_rng(99)
        p = np.array([0.4, 0.3, 0.2, 0.1])
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m = q @ np.diag(p).astype(complex) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        rho = DensityOperator(basis=(0, 1, 2, 3), matrix=m)
        reference = -float(np.sum(p * np.log2(p)))
        assert von_neumann_entropy(rho, method="eigen") == pytest.approx(
            reference, abs=1e-10
        )
        assert von_neumann_entropy(rho, method="auto") == pytest.approx(
            reference, abs=1e-10
        )

    def test_diagonal_path_refuses_offdiagonal_matrix(self):
        m = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        rho = DensityOperator(basis=(0, 1), matrix=m)
        with pytest.raises(ValueError, match="diagonal"):
            von_neumann_entropy(rho, method="diagonal")

    def test_exact_zeros_are_skipped(self):
        rho = DensityOperator(
            basis=(0, 1, 2), matrix=np.diag([0.5, 0.5, 0.0]).astype(complex)
        )
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(partial_trace(bell_pair()), method="magic")

    def test_result_clamped_nonnegative(self):
        rho = DensityOperator(basis=(0,), matrix=np.array([[1.0]], dtype=complex))
        assert von_neumann_entropy(rho) == 0.0


class TestPurityAndOccupation:
    def test_purity_uniform(self):
        rho = DensityOperator(basis=(0, 1), matrix=np.diag([0.5, 0.5]).astype(complex))
        assert purity(rho) == pytest.approx(0.5, abs=1e-15)

    def test_purity_counts_offdiagonals(self):
        m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        rho = DensityOperator(basis=(0, 1), matrix=m)
        assert purity(rho) == pytest.approx(1.0, abs=1e-15)

    def test_mean_occupation_number_labels(self):
        rho = DensityOperator(
            basis=(0, 1, 2), matrix=np.diag([0.5, 0.3, 0.2]).astype(complex)
        )
        assert mean_occupation(rho, "total") == pytest.approx(0.7, abs=1e-15)
        assert mean_occupation(rho, "particle") == pytest.approx(0.7, abs=1e-15)
        with pytest.raises(ValueError, match="antiparticle"):
            mean_occupation(rho, "antiparticle")

    def test_mean_occupation_pair_labels(self):
        rho = DensityOperator(
            basis=FERMION_BASIS,
            matrix=np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex),
        )
        assert mean_occupation(rho, "particle") == pytest.approx(0.3, abs=1e-15)
        assert mean_occupation(rho, "antiparticle") == pytest.approx(0.4, abs=1e-15)
        assert mean_occupation(rho, "total") == pytest.approx(0.7, abs=1e-15)

    def test_mean_occupation_bad_sector(self):
        with pytest.raises(ValueError):
            mean_occupation(partial_trace(bell_pair()), "holes")
