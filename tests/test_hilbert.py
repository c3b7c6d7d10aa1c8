import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeco.decoherence import reduce_to_apparatus
from qdeco.hilbert import (
    DensityMatrix,
    StateVector,
    TensorLayout,
    basis_state,
    coherence_norm,
    density_spectrum,
    purity,
    tensor_product,
    von_neumann_entropy,
)

from oracles import brute_reduced_state, direct_entropy, random_density, random_state

# Frozen expected values, computed directly from the defining formulas.
ENTROPY_03_07 = 0.6108643020548935       # -(0.3 ln 0.3 + 0.7 ln 0.7)
LN2 = math.log(2.0)
SQRT_021 = math.sqrt(0.21)


def plus_state() -> StateVector:
    return StateVector(TensorLayout((2,)), np.array([1.0, 1.0]) / math.sqrt(2.0))


def dm(entries, dims) -> DensityMatrix:
    return DensityMatrix(TensorLayout(tuple(dims)), np.asarray(entries, dtype=np.complex128))


def pure(amplitudes, dims) -> DensityMatrix:
    """Reduced (system, apparatus) state of a pure three-factor state."""
    return reduce_to_apparatus(StateVector(TensorLayout(tuple(dims)), amplitudes))


def projector(psi: StateVector) -> DensityMatrix:
    """|psi><psi|, as the reduction of psi (x) |0>_A (x) |0>_E over a trivial environment."""
    return pure(psi.amplitudes, (psi.dim, 1, 1))


class TestTensorLayout:
    def test_flat_dim(self):
        assert TensorLayout((2, 3, 4)).flat_dim == 24

    def test_leftmost_slowest(self):
        amplitudes = tensor_product(basis_state(2, 1), basis_state(3, 0)).amplitudes
        assert np.flatnonzero(amplitudes).tolist() == [3]

    @pytest.mark.parametrize("dims", [(), (0,), (2, -1)])
    def test_invalid_dims(self, dims):
        with pytest.raises(ValueError):
            TensorLayout(dims)


class TestStateRefusals:
    def test_overlap_across_dimensions(self):
        with pytest.raises(ValueError, match=r"^states live in different dimensions$"):
            basis_state(2, 0).overlap(basis_state(3, 0))

    def test_basis_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"^basis index 2 out of range for dimension 2$"):
            basis_state(2, 2)


class TestTensorProduct:
    def test_basis_states(self):
        out = tensor_product(basis_state(2, 0), basis_state(2, 1))
        assert out.layout.dims == (2, 2)
        expected = np.array([0, 1, 0, 0], dtype=complex)
        np.testing.assert_array_equal(out.amplitudes, expected)

    def test_distributes_over_superposition(self):
        alpha, beta = 0.6, 0.8j
        a = StateVector(TensorLayout((2,)), np.array([alpha, beta]))
        out = tensor_product(a, basis_state(2, 0))
        np.testing.assert_allclose(out.amplitudes, [alpha, 0, beta, 0], atol=1e-15)

    def test_norm_multiplies(self):
        rng = np.random.default_rng(11)
        a = StateVector(TensorLayout((2,)), random_state(rng, 2))
        b = StateVector(TensorLayout((3,)), random_state(rng, 3))
        assert abs(tensor_product(a, b).norm() - 1.0) <= 1e-12

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_multiplicative_property(self, da, db, seed):
        rng = np.random.default_rng(seed)
        va = rng.normal(size=da) + 1j * rng.normal(size=da)
        vb = rng.normal(size=db) + 1j * rng.normal(size=db)
        a = StateVector(TensorLayout((da,)), va)
        b = StateVector(TensorLayout((db,)), vb)
        assert abs(tensor_product(a, b).norm() - a.norm() * b.norm()) <= 1e-9 * max(
            1.0, a.norm() * b.norm()
        )


class TestOuterProduct:
    """The projector |psi><psi|, reduced over a one-dimensional environment."""

    def test_basis_state(self):
        rho = projector(basis_state(2, 0))
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_plus_state(self):
        rho = projector(plus_state())
        np.testing.assert_allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_unequal_weights(self):
        psi = StateVector(TensorLayout((2,)), np.array([math.sqrt(0.3), math.sqrt(0.7)]))
        rho = projector(psi)
        np.testing.assert_allclose(np.diag(rho.entries).real, [0.3, 0.7], atol=1e-15)
        assert abs(rho.entries[0, 1] - SQRT_021) <= 1e-15

    def test_requires_unit_norm(self):
        psi = StateVector(TensorLayout((2,)), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="density matrix trace"):
            projector(psi)


class TestPartialTrace:
    """Pure three-factor states traced over the environment (the last factor)."""

    def test_bell_state(self):
        reduced = pure(np.array([1, 0, 0, 1]) / math.sqrt(2.0), (2, 1, 2))
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2.0, atol=1e-15)

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(5)
        a, b = random_state(rng, 2), random_state(rng, 3)
        reduced = pure(np.kron(a, b), (2, 1, 3))
        np.testing.assert_allclose(reduced.entries, np.outer(a, a.conj()), atol=1e-12)

    def test_entangled_diagonal(self):
        reduced = pure(np.array([math.sqrt(0.3), 0, 0, math.sqrt(0.7)]), (2, 1, 2))
        np.testing.assert_allclose(reduced.entries, np.diag([0.3, 0.7]), atol=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(17)
        for dims in [(2, 3, 2), (3, 2, 5), (1, 4, 3), (2, 2, 1)]:
            psi = random_state(rng, int(np.prod(dims)))
            np.testing.assert_allclose(pure(psi, dims).entries, brute_reduced_state(psi, dims),
                                       atol=1e-13)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(23)
        reduced = pure(random_state(rng, 8), (2, 2, 2))
        assert abs(np.trace(reduced.entries) - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(reduced.entries)) >= -1e-9


class TestEigendecomposition:
    """The validated spectrum: ``DensityMatrix.spectrum`` and ``density_spectrum``."""

    def test_diagonal(self):
        np.testing.assert_allclose(dm(np.diag([0.3, 0.7]), (2,)).spectrum, [0.3, 0.7], atol=1e-14)

    def test_spectrum_sums(self):
        rng = np.random.default_rng(31)
        for dim in (2, 5, 8):
            m = random_density(rng, dim)
            w = dm(m, (dim,)).spectrum
            assert abs(np.sum(w) - np.trace(m).real) <= 1e-10
            assert abs(np.sum(w**2) - np.linalg.norm(m, "fro") ** 2) <= 1e-9

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(37)
        stack = np.stack([random_density(rng, 6) for _ in range(4)])
        assert np.all(np.diff(dm(stack[0], (6,)).spectrum) >= 0)
        assert np.all(np.diff(density_spectrum(stack), axis=-1) >= 0)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            dm(m, (2,))
        with pytest.raises(ValueError, match="not Hermitian"):
            density_spectrum(np.stack([np.eye(2) / 2.0, m]))

    @pytest.mark.parametrize("j,k", [(250, 10), (10, 250), (299, 0), (299, 298)])
    def test_rejects_non_hermitian_across_row_blocks(self, j, k):
        # one entry below or above the diagonal, far from it or in the last row
        m = np.eye(300, dtype=complex) / 300.0
        m[j, k] = 1e-3j
        with pytest.raises(ValueError) as exc:
            dm(m, (300,))
        assert str(exc.value) == "density matrix not Hermitian: deviation 1.000e-03"

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(59)
        for dim in (2, 3, 6):
            stack = np.stack([random_density(rng, dim) for _ in range(5)])
            spectra = density_spectrum(stack)
            assert spectra.shape == (5, dim)
            for m, w in zip(stack, spectra):
                np.testing.assert_array_equal(w, dm(m, (dim,)).spectrum)

    @pytest.mark.parametrize(
        "bad,prefix",
        [
            (np.array([[0.5, 0.2], [0.0, 0.5]]), "density matrix not Hermitian"),
            (np.diag([0.5, 0.4]), "density matrix trace"),
            (np.diag([1.2, -0.2]), "density matrix not positive"),
        ],
        ids=["non-hermitian", "trace-0.9", "negative"],
    )
    def test_one_bad_matrix_in_a_stack(self, bad, prefix):
        rng = np.random.default_rng(61)
        good = [random_density(rng, 2) for _ in range(4)]
        stack = np.stack(good[:2] + [bad.astype(complex)] + good[2:])
        with pytest.raises(ValueError) as single:
            dm(bad, (2,))
        with pytest.raises(ValueError) as stacked:
            density_spectrum(stack)
        assert str(single.value).startswith(prefix)
        assert str(stacked.value).startswith(prefix)

    def test_spectrum_is_read_only(self):
        rho = dm(np.diag([0.3, 0.7]), (2,))
        assert not rho.spectrum.flags.writeable
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.5

    def test_one_eigvalsh_per_density_matrix(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rho = dm(np.diag([0.3, 0.7]), (2,))
        assert calls == [(2, 2)]
        # The entropy reads the stored spectrum: no further eigensolver call.
        assert abs(von_neumann_entropy(rho) - ENTROPY_03_07) <= 1e-12
        assert calls == [(2, 2)]


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(projector(plus_state())) <= 1e-9

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(dm(np.eye(2) / 2.0, (2,))) - LN2) <= 1e-12

    def test_unequal_mixture(self):
        s = von_neumann_entropy(dm(np.diag([0.3, 0.7]), (2,)))
        assert abs(s - ENTROPY_03_07) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 5):
            s = von_neumann_entropy(dm(random_density(rng, dim), (dim,)))
            assert -1e-12 <= s <= math.log(dim) + 1e-9

    def test_additive_over_tensor_factors(self):
        rng = np.random.default_rng(43)
        sigma = random_density(rng, 2)
        tau = random_density(rng, 3)
        joint = dm(np.kron(sigma, tau), (2, 3))
        s_joint = von_neumann_entropy(joint)
        s_parts = direct_entropy(np.linalg.eigvalsh(sigma)) + direct_entropy(
            np.linalg.eigvalsh(tau)
        )
        assert abs(s_joint - s_parts) <= 1e-9

    def test_pure_state_entropy_is_positive_zero(self):
        for rho in (projector(basis_state(2, 0)), dm(np.diag([1.0, 0.0]), (2,))):
            s = von_neumann_entropy(rho)
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_product_pure_state_has_zero_local_entropy(self):
        rng = np.random.default_rng(47)
        a = StateVector(TensorLayout((2,)), random_state(rng, 2))
        b = StateVector(TensorLayout((3,)), random_state(rng, 3))
        reduced = pure(tensor_product(a, b).amplitudes, (2, 1, 3))
        assert von_neumann_entropy(reduced) <= 1e-9


class TestCoherenceNorm:
    def test_diagonal(self):
        assert coherence_norm(dm(np.diag([0.3, 0.7]), (2,))) == 0.0

    def test_pure_superposition(self):
        assert abs(coherence_norm(projector(plus_state())) - 1.0) <= 1e-12

    def test_partial_overlap(self):
        rho = dm([[0.5, 0.1], [0.1, 0.5]], (2,))
        assert abs(coherence_norm(rho) - 0.2) <= 1e-12

    def test_skips_empty_branches(self):
        rho = dm(np.diag([0.5, 0.0, 0.5]), (3,))
        assert coherence_norm(rho) == 0.0


class TestPurity:
    def test_pure(self):
        assert abs(purity(projector(plus_state())) - 1.0) <= 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(dm(np.eye(2) / 2.0, (2,))) - 0.5) <= 1e-12

    def test_unequal_mixture(self):
        assert abs(purity(dm(np.diag([0.3, 0.7]), (2,))) - 0.58) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(53)
        for dim in (2, 4):
            p = purity(dm(random_density(rng, dim), (dim,)))
            assert 1.0 / dim - 1e-12 <= p <= 1.0 + 1e-10

    def test_matches_trace_of_square(self):
        rng = np.random.default_rng(307)
        for dim in (2, 8, 64):
            rho = random_density(rng, dim)
            ref = float(np.trace(rho @ rho).real)
            assert abs(purity(dm(rho, (dim,))) - ref) <= 1e-12


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            dm([[0.5, 0.5], [0.0, 0.5]], (2,))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            dm(np.eye(2), (2,))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dm(np.diag([1.5, -0.5]), (2,))

    @pytest.mark.parametrize(
        "entries",
        [
            [[math.nan, 0.0], [0.0, 1.0]],
            [[0.5, math.nan], [math.nan, 0.5]],
            [[math.inf, 0.0], [0.0, 1.0]],
        ],
        ids=["nan-diagonal", "nan-coherence", "inf-diagonal"],
    )
    def test_rejects_non_finite(self, entries):
        with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
            dm(entries, (2,))

    def test_rejects_non_finite_in_a_stack(self):
        stack = np.stack([np.eye(2) / 2.0, [[0.5, math.nan], [math.nan, 0.5]]]).astype(complex)
        with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
            density_spectrum(stack)

    def test_rejects_a_non_finite_amplitude_in_a_reduction(self):
        amplitudes = random_state(np.random.default_rng(97), 8)
        amplitudes[5] = math.nan
        with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
            pure(amplitudes, (2, 2, 2))

    @pytest.mark.parametrize(
        "support,message",
        [
            (None, "matrix dimension 2 does not match support size 3"),
            ([0, 1, 2], "matrix dimension 2 does not match support size 3"),
            ([1, 0], "support must ascend strictly within layout dimension 3"),
            ([1, 1], "support must ascend strictly within layout dimension 3"),
            ([-1, 2], "support must ascend strictly within layout dimension 3"),
            ([1, 3], "support must ascend strictly within layout dimension 3"),
        ],
        ids=["dense-wrong-size", "too-long", "descending", "repeated", "negative", "beyond"],
    )
    def test_rejects_a_support_that_does_not_fit(self, support, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix(TensorLayout((3,)), np.eye(2) / 2.0, support)

    def test_block_on_a_support(self):
        rho = DensityMatrix(TensorLayout((2, 2)), np.full((2, 2), 0.5), [0, 3])
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        np.testing.assert_array_equal(rho.entries, expected)
        np.testing.assert_allclose(rho.spectrum, [0.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-15)
        assert rho.support.tolist() == [0, 3]
        # each access scatters into a fresh matrix
        rho.entries[0, 0] = 7.0
        assert rho.entries[0, 0] == 0.5
