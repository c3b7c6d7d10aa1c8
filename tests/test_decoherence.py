import math
import tracemalloc

import numpy as np
import pytest

import qdeco.decoherence as decoherence
from qdeco.decoherence import (
    CorrelatedStateSpec,
    DephasingCurve,
    SpinBathModel,
    binary_entropy,
    build_correlated_state,
    entropy_curve,
    environment_overlap,
    equal_overlap_spec,
    reduce_to_apparatus,
    spin_bath_coherence,
    spin_bath_evolve,
)
from qdeco.hilbert import (
    DensityMatrix,
    NormalizationError,
    StateVector,
    TensorLayout,
    basis_state,
    coherence_norm,
    purity,
    tensor_product,
    von_neumann_entropy,
)

from oracles import (
    brute_bath_overlap,
    brute_correlated_state,
    brute_reduced_state,
    direct_entropy,
    evolve_dephasing,
    random_state,
    reduced_qubit,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
OVERLAP_09_POW20 = 0.9**20  # 0.1215766545905...


def qubit(a, b) -> StateVector:
    return StateVector(TensorLayout((2,)), np.array([a, b], dtype=complex))


def orthonormal_spec(coeffs, env_states) -> CorrelatedStateSpec:
    n = len(coeffs)
    return CorrelatedStateSpec(
        coefficients=np.asarray(coeffs, dtype=complex),
        system_states=[basis_state(n, i) for i in range(n)],
        apparatus_states=[basis_state(n, i) for i in range(n)],
        environment_states=env_states,
    )


def env_pair_with_overlap(r: float) -> list[StateVector]:
    return [qubit(1.0, 0.0), qubit(r, math.sqrt(1.0 - r**2))]


def _vec(*amplitudes) -> np.ndarray:
    return np.array(amplitudes, dtype=complex)


def _random_branches():
    # unequal weights and non-orthogonal branches in every factor
    rng = np.random.default_rng(61)
    factors = [[random_state(rng, d) for _ in range(3)] for d in (2, 3, 4)]
    return [0.5, 0.3 + 0.4j, 0.9], factors


def _basis_and_two_term():
    rng = np.random.default_rng(67)
    h = INV_SQRT2
    system = [_vec(1, 0, 0), _vec(0, h, h), _vec(0, 0, 1)]
    apparatus = [_vec(h, 0, -1j * h), _vec(0, 1, 0), _vec(0, 1, 0)]
    return [0.6, 0.5j, 0.4], [system, apparatus, [random_state(rng, 2) for _ in range(3)]]


def _zero_coefficient():
    # the zero branch's rows are computed but hold no amplitude
    rng = np.random.default_rng(71)
    system = [_vec(1, 0), _vec(0, 1), _vec(INV_SQRT2, INV_SQRT2)]
    apparatus = [_vec(1, 0), _vec(0, 1), _vec(0, 1)]
    return [0.8, 0.6, 0.0], [system, apparatus, [random_state(rng, 3) for _ in range(3)]]


def _unequal_system_and_apparatus():
    rng = np.random.default_rng(73)
    system = [_vec(1, 0), _vec(0, 1)]
    apparatus = [_vec(0, 0, 1, 0, 0), _vec(0, INV_SQRT2, 0, 0, INV_SQRT2)]
    return [0.6, 0.8j], [system, apparatus, [random_state(rng, 3) for _ in range(2)]]


def _cancelling_row():
    # branches 0 and 1 cancel exactly on row (0, 0) and leave -0.5 on row (0, 1)
    system = [_vec(1, 0), _vec(1, 0), _vec(0, 1)]
    apparatus = [_vec(1, 0), _vec(1, 1), _vec(0, 1)]
    environment = [_vec(1, 0), _vec(1, 0), _vec(0, 1)]
    return [0.5, -0.5, math.sqrt(0.75)], [system, apparatus, environment]


SPARSE_KRON_CASES = {
    "basis-and-two-term": _basis_and_two_term,
    "zero-coefficient": _zero_coefficient,
    "unequal-system-and-apparatus": _unequal_system_and_apparatus,
    "cancelling-row": _cancelling_row,
}


def assert_matches_kron_oracle(coeffs, factors):
    """The built state equals the kron sum, and its reduction's support is the nonzero rows."""
    dims = tuple(len(factor[0]) for factor in factors)
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs /= np.linalg.norm(brute_correlated_state(coeffs, *factors))
    spec = CorrelatedStateSpec(
        coeffs,
        *[[StateVector(TensorLayout((d,)), a) for a in factor]
          for d, factor in zip(dims, factors)],
    )
    psi = build_correlated_state(spec)
    brute = brute_correlated_state(coeffs, *factors)
    assert psi.layout.dims == dims
    np.testing.assert_allclose(psi.amplitudes, brute, rtol=0, atol=1e-13)
    rows = brute.reshape(dims[0] * dims[1], dims[2])
    np.testing.assert_array_equal(
        reduce_to_apparatus(psi).support, np.flatnonzero(np.any(rows != 0, axis=1))
    )


class TestBuildCorrelatedState:
    def test_single_branch_is_product(self):
        spec = CorrelatedStateSpec(
            coefficients=np.array([1.0]),
            system_states=[basis_state(2, 0)],
            apparatus_states=[basis_state(2, 1)],
            environment_states=[qubit(INV_SQRT2, INV_SQRT2)],
        )
        psi = build_correlated_state(spec)
        expected = tensor_product(
            tensor_product(basis_state(2, 0), basis_state(2, 1)),
            qubit(INV_SQRT2, INV_SQRT2),
        )
        np.testing.assert_allclose(psi.amplitudes, expected.amplitudes, atol=1e-15)
        assert psi.layout.dims == (2, 2, 2)

    def test_ghz_type_state(self):
        spec = orthonormal_spec(
            [INV_SQRT2, INV_SQRT2], [basis_state(2, 0), basis_state(2, 1)]
        )
        psi = build_correlated_state(spec)
        assert abs(psi.norm() - 1.0) <= 1e-9
        # nonzero only on the two fully correlated branches
        nonzero = np.nonzero(np.abs(psi.amplitudes) > 1e-14)[0]
        np.testing.assert_array_equal(nonzero, [0, 7])

    def test_overlapping_environments_still_normalized(self):
        # Orthonormal system/apparatus branches make the cross term vanish,
        # so any environment overlap is compatible with a unit total state.
        spec = orthonormal_spec([INV_SQRT2, INV_SQRT2], env_pair_with_overlap(0.5))
        psi = build_correlated_state(spec)
        assert abs(psi.norm() - 1.0) <= 1e-9

    def test_rejects_unnormalized_total_state(self):
        # Identical system and apparatus branches leave the environment
        # overlap in the norm: |Psi|^2 = 1 + 0.25, i.e. norm 1.118.
        spec = CorrelatedStateSpec(
            coefficients=np.array([INV_SQRT2, INV_SQRT2]),
            system_states=[basis_state(2, 0), basis_state(2, 0)],
            apparatus_states=[basis_state(2, 0), basis_state(2, 0)],
            environment_states=env_pair_with_overlap(0.25),
        )
        with pytest.raises(NormalizationError, match="1.118"):
            build_correlated_state(spec)
        with pytest.raises(NormalizationError, match="norm nan, expected 1"):
            build_correlated_state(equal_overlap_spec([math.nan, 0.5], 0.0))

    def test_overflowing_norm_refused_without_a_warning(self):
        # |c|^2 summed over the branches overflows; under filterwarnings = error
        # a numpy overflow warning would surface here instead of the refusal
        with pytest.raises(NormalizationError, match="norm inf, expected 1"):
            build_correlated_state(equal_overlap_spec([1e200, 1e200], 0.0))

    def test_matches_kron_oracle(self):
        assert_matches_kron_oracle(*_random_branches())

    @pytest.mark.parametrize("case", sorted(SPARSE_KRON_CASES))
    def test_matches_kron_oracle_on_sparse_specs(self, case):
        assert_matches_kron_oracle(*SPARSE_KRON_CASES[case]())

    def test_refuses_a_reduction_over_the_dense_bound(self):
        # one branch, but a 46 x 46 (system, apparatus) state would exceed 2048
        big = [basis_state(46, 0)]
        spec = CorrelatedStateSpec(np.array([1.0]), big, big, [basis_state(1, 0)])
        message = "^reduced state dimension 2116 exceeds dense bound 2048$"
        with pytest.raises(ValueError, match=message):
            build_correlated_state(spec)

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ValueError):
            CorrelatedStateSpec(
                coefficients=np.array([1.0, 0.0]),
                system_states=[basis_state(2, 0)],
                apparatus_states=[basis_state(2, 0), basis_state(2, 1)],
                environment_states=[basis_state(2, 0), basis_state(2, 1)],
            )


# Each case builds (psi, shape of the one eigvalsh call that reducing psi makes).
SMALL_SIDE_CASES = {
    "28-branches": lambda: (
        build_correlated_state(equal_overlap_spec(np.full(28, 28**-0.5), 0.4)), (28, 28)
    ),
    # rank one: the 5x5 Gram spectrum holds rounding values of either sign
    "5-branches-rank-one": lambda: (
        build_correlated_state(equal_overlap_spec(np.full(5, 5**-0.5), 1.0)), (5, 5)
    ),
    # the environment is the larger side, so rho itself is diagonalised
    "2x2x16": lambda: (
        StateVector(TensorLayout((2, 2, 16)), random_state(np.random.default_rng(79), 64)), (4, 4)
    ),
    "projector-6x1x1": lambda: (
        StateVector(TensorLayout((6, 1, 1)), random_state(np.random.default_rng(89), 6)), (1, 1)
    ),
}


class TestReduceToApparatus:
    def test_orthonormal_environment_kills_coherence(self):
        spec = orthonormal_spec(
            [INV_SQRT2, INV_SQRT2], [basis_state(2, 0), basis_state(2, 1)]
        )
        rho = reduce_to_apparatus(build_correlated_state(spec))
        assert coherence_norm(rho) <= 1e-12
        np.testing.assert_allclose(
            np.diag(rho.entries).real, [0.5, 0, 0, 0.5], atol=1e-12
        )

    def test_identical_environments_preserve_coherence(self):
        env = qubit(INV_SQRT2, INV_SQRT2)
        spec = orthonormal_spec([INV_SQRT2, INV_SQRT2], [env, env])
        rho = reduce_to_apparatus(build_correlated_state(spec))
        assert abs(coherence_norm(rho) - 1.0) <= 1e-12

    def test_offdiagonal_scales_with_overlap(self):
        spec = orthonormal_spec([INV_SQRT2, INV_SQRT2], env_pair_with_overlap(0.2))
        rho = reduce_to_apparatus(build_correlated_state(spec))
        # branch block (0,0) vs (1,1) sits at flat indices 0 and 3
        assert abs(abs(rho.entries[0, 3]) - 0.1) <= 1e-12
        assert abs(coherence_norm(rho) - 0.2) <= 1e-12

    def test_matches_outer_product_partial_trace(self):
        """Entries and spectrum against the dense projector traced by index loops.

        Unequal complex weights and non-orthogonal branches, on both sides of
        dim_E = dim_S dim_A: n branches of ``equal_overlap_spec`` (dim_E = n),
        and two branches with random apparatus and 16-dimensional environment
        states.
        """
        rng = np.random.default_rng(67)

        def weights(n):
            c = rng.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            return c / np.linalg.norm(c)

        specs = [equal_overlap_spec(weights(n), 0.35) for n in (3, 4, 5)]
        specs.append(CorrelatedStateSpec(
            coefficients=weights(2),
            system_states=[basis_state(2, 0), basis_state(2, 1)],
            apparatus_states=[StateVector(TensorLayout((2,)), random_state(rng, 2))
                              for _ in range(2)],
            environment_states=[StateVector(TensorLayout((16,)), random_state(rng, 16))
                                for _ in range(2)],
        ))
        for spec in specs:
            psi = build_correlated_state(spec)
            rho = reduce_to_apparatus(psi)
            dense = brute_reduced_state(psi.amplitudes, psi.layout.dims)
            np.testing.assert_allclose(rho.entries, dense, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rho.spectrum, np.linalg.eigvalsh(dense), rtol=0, atol=1e-12)

    def test_offdiagonal_bound_random_branches(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            c = random_state(rng, 3)
            envs = [StateVector(TensorLayout((4,)), random_state(rng, 4)) for _ in range(3)]
            spec = orthonormal_spec(c, envs)
            rho = reduce_to_apparatus(build_correlated_state(spec))
            for n in range(3):
                for m in range(3):
                    if n == m:
                        continue
                    block = rho.entries[n * 3 + n, m * 3 + m]
                    expected = abs(c[n]) * abs(c[m]) * abs(envs[n].overlap(envs[m]))
                    assert abs(abs(block) - expected) <= 1e-12

    def test_requires_three_factors(self):
        with pytest.raises(ValueError):
            reduce_to_apparatus(basis_state(4, 0))

    @pytest.mark.parametrize("case", sorted(SMALL_SIDE_CASES))
    def test_one_eigvalsh_on_the_smaller_gram_matrix(self, monkeypatch, case):
        psi, shape = SMALL_SIDE_CASES[case]()
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        reduce_to_apparatus(psi)
        assert calls == [shape]

    @pytest.mark.parametrize("case", sorted(SMALL_SIDE_CASES))
    def test_padded_spectrum_is_the_spectrum_of_the_entries(self, case):
        psi, _ = SMALL_SIDE_CASES[case]()
        rho = reduce_to_apparatus(psi)
        assert rho.spectrum.shape == (rho.dim,)
        assert np.all(np.diff(rho.spectrum) >= 0)
        assert not rho.spectrum.flags.writeable
        np.testing.assert_allclose(
            rho.spectrum, np.linalg.eigvalsh(rho.entries), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("dims", [(3, 3, 2), (2, 2, 16)])
    def test_norm_sqrt2_refused_on_either_side(self, dims):
        amplitudes = math.sqrt(2.0) * random_state(np.random.default_rng(83), math.prod(dims))
        with pytest.raises(ValueError, match="^density matrix trace"):
            reduce_to_apparatus(StateVector(TensorLayout(dims), amplitudes))

    def test_refuses_a_reduced_state_over_the_dense_bound(self):
        psi = StateVector(TensorLayout((2049, 1, 1)), np.ones(2049) / math.sqrt(2049))
        with pytest.raises(ValueError) as exc:
            reduce_to_apparatus(psi)
        assert str(exc.value) == "reduced state dimension 2049 exceeds dense bound 2048"


def _zero_rows(dims, rows, seed):
    """Random (dims) state whose (system, apparatus) rows ``rows`` are all zero."""
    dim, dim_e = dims[0] * dims[1], dims[2]
    m = random_state(np.random.default_rng(seed), dim * dim_e).reshape(dim, dim_e)
    m[rows] = 0.0
    return StateVector(TensorLayout(dims), (m / np.linalg.norm(m)).ravel())


SUPPORT_CASES = {
    **{
        f"equal-overlap-{n}": (lambda n=n: build_correlated_state(
            equal_overlap_spec(np.full(n, n**-0.5), 0.35)
        ))
        for n in (2, 3, 7)
    },
    # zero rows 0, 2, 3, 7 and 10 of 12: support [1, 4, 5, 6, 8, 9, 11]
    "non-contiguous-zero-rows": lambda: _zero_rows((3, 4, 5), [0, 2, 3, 7, 10], 101),
    "dense": lambda: _zero_rows((2, 3, 4), [], 103),
    "single-row": lambda: _zero_rows((3, 2, 4), [0, 1, 2, 3, 5], 107),
}


class TestSupportForm:
    """The block on its support against the dense reduction by index loops."""

    @pytest.mark.parametrize("case", sorted(SUPPORT_CASES))
    def test_block_matches_the_brute_force_reduction(self, case):
        psi = SUPPORT_CASES[case]()
        rho = reduce_to_apparatus(psi)
        dense = brute_reduced_state(psi.amplitudes, psi.layout.dims)
        full = rho.entries
        np.testing.assert_allclose(full, dense, rtol=0, atol=1e-12)
        outside = np.ones(full.shape, dtype=bool)
        outside[np.ix_(rho.support, rho.support)] = False
        assert np.all(full[outside] == 0)
        expected_support = np.flatnonzero(np.abs(np.diagonal(dense)) > 0)
        np.testing.assert_array_equal(rho.support, expected_support)

    @pytest.mark.parametrize("case", sorted(SUPPORT_CASES))
    def test_outputs_equal_those_of_the_dense_form(self, case):
        rho = reduce_to_apparatus(SUPPORT_CASES[case]())
        dense = DensityMatrix(rho.layout, rho.entries)
        assert dense.support.tolist() == list(range(rho.dim))
        for output in (coherence_norm, purity, von_neumann_entropy):
            assert abs(output(rho) - output(dense)) <= 1e-12

    @pytest.mark.parametrize("n", [28, 45])
    def test_reduction_and_outputs_stay_small(self, n):
        # the n^2 x n^2 matrix would take 9.4 MiB at 28 branches and 62.6 MiB at 45
        psi = build_correlated_state(equal_overlap_spec(np.full(n, n**-0.5), 0.3))

        def reduce_and_report():
            rho = reduce_to_apparatus(psi)
            return coherence_norm(rho), von_neumann_entropy(rho), purity(rho)

        reduce_and_report()  # warm
        tracemalloc.start()
        try:
            reduce_and_report()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", [28, 45])
    def test_build_allocates_little_beyond_the_state(self, n):
        # the state is n^3 amplitudes of 16 B; an n x n^2 branch array and a
        # product over all n^2 rows would take about 2.1 times that
        spec = equal_overlap_spec(np.full(n, n**-0.5), 0.3)
        build_correlated_state(spec)  # warm
        tracemalloc.start()
        try:
            build_correlated_state(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n**3 * 16


class TestEnvironmentOverlap:
    def test_self_overlap(self):
        spec = orthonormal_spec([1.0, 0.0], env_pair_with_overlap(0.3))
        assert abs(environment_overlap(spec, 0, 0) - 1.0) <= 1e-12

    def test_orthogonal_pair(self):
        spec = orthonormal_spec(
            [INV_SQRT2, INV_SQRT2], [basis_state(2, 0), basis_state(2, 1)]
        )
        assert abs(environment_overlap(spec, 0, 1)) <= 1e-15

    def test_twenty_factor_product(self):
        plus = qubit(INV_SQRT2, INV_SQRT2)
        theta = math.acos(0.9)
        rotated = qubit(
            (math.cos(theta) + math.sin(theta)) * INV_SQRT2,
            (math.cos(theta) - math.sin(theta)) * INV_SQRT2,
        )
        env0, env1 = plus, rotated
        for _ in range(19):
            env0 = tensor_product(env0, plus)
            env1 = tensor_product(env1, rotated)
        spec = orthonormal_spec([INV_SQRT2, INV_SQRT2], [env0, env1])
        got = environment_overlap(spec, 0, 1)
        assert abs(got - OVERLAP_09_POW20) <= 1e-12

    def test_product_overlap_law(self):
        rng = np.random.default_rng(73)
        factors_a = [random_state(rng, 2) for _ in range(6)]
        factors_b = [random_state(rng, 2) for _ in range(6)]
        env_a = StateVector(TensorLayout((2,)), factors_a[0])
        env_b = StateVector(TensorLayout((2,)), factors_b[0])
        for fa, fb in zip(factors_a[1:], factors_b[1:]):
            env_a = tensor_product(env_a, StateVector(TensorLayout((2,)), fa))
            env_b = tensor_product(env_b, StateVector(TensorLayout((2,)), fb))
        per_factor = np.prod([np.vdot(fa, fb) for fa, fb in zip(factors_a, factors_b)])
        assert abs(env_a.overlap(env_b) - per_factor) <= 1e-12

    def test_conjugation_on_first_argument(self):
        spec = orthonormal_spec(
            [INV_SQRT2, INV_SQRT2],
            [qubit(1.0, 0.0), qubit(INV_SQRT2, INV_SQRT2 * 1j)],
        )
        assert environment_overlap(spec, 0, 1) == pytest.approx(INV_SQRT2)
        assert environment_overlap(spec, 1, 0) == pytest.approx(INV_SQRT2)

    def test_index_errors(self):
        spec = orthonormal_spec([1.0, 0.0], env_pair_with_overlap(0.3))
        with pytest.raises(ValueError):
            environment_overlap(spec, 0, 2)


class TestEqualOverlapSpec:
    @staticmethod
    def gram(spec) -> np.ndarray:
        envs = np.stack([e.amplitudes for e in spec.environment_states])
        return envs.conj() @ envs.T

    @pytest.mark.parametrize("n", [2, 3, 20, 28])
    def test_gram_matrix_is_the_requested_family(self, n):
        for s in (-1.0 / (n - 1), -0.5 / (n - 1), 0.0, 0.37, 1.0):
            spec = equal_overlap_spec(np.full(n, n**-0.5), s)
            want = (1.0 - s) * np.eye(n) + s * np.ones((n, n))
            np.testing.assert_allclose(self.gram(spec), want, rtol=0, atol=1e-12)

    def test_branches_are_basis_states(self):
        spec = equal_overlap_spec([0.6, 0.8j, 0.0], 0.2)
        np.testing.assert_array_equal(spec.coefficients, [0.6, 0.8j, 0.0])
        for states in (spec.system_states, spec.apparatus_states):
            np.testing.assert_array_equal(np.stack([b.amplitudes for b in states]), np.eye(3))

    def test_coherence_is_the_overlap(self):
        rho = reduce_to_apparatus(build_correlated_state(equal_overlap_spec([0.6, 0.8], 0.3)))
        assert coherence_norm(rho) == pytest.approx(0.3, abs=1e-12)

    def test_needs_two_branches(self):
        with pytest.raises(ValueError) as exc:
            equal_overlap_spec([1.0], 0.2)
        assert str(exc.value) == "need at least two branches to discuss interference"

    @pytest.mark.parametrize("n,overlap", [(4, -0.9), (2, -1.001), (3, -0.5 - 1e-6), (5, 1.001)])
    def test_refuses_overlaps_outside_the_family(self, n, overlap):
        with pytest.raises(ValueError) as exc:
            equal_overlap_spec(np.full(n, n**-0.5), overlap)
        assert str(exc.value) == (
            f"overlap {overlap} does not define a valid environment family for {n} branches"
        )


class TestSpinBathCoherence:
    def test_no_evolution(self):
        model = SpinBathModel(bath_size=3, couplings=np.array([1.0, 2.0, 3.0]))
        assert spin_bath_coherence(model, 0.0) == 1.0

    def test_single_spin_zero(self):
        model = SpinBathModel(bath_size=1, couplings=np.array([1.0]))
        assert abs(spin_bath_coherence(model, math.pi / 2.0)) <= 1e-15

    def test_twenty_spins_match_power(self):
        model = SpinBathModel(bath_size=20, couplings=np.ones(20))
        got = spin_bath_coherence(model, math.acos(0.9))
        assert abs(got - OVERLAP_09_POW20) <= 1e-12

    def test_negative_time_rejected(self):
        model = SpinBathModel(bath_size=1, couplings=np.array([1.0]))
        with pytest.raises(ValueError, match=r"^times must be nonnegative$"):
            spin_bath_coherence(model, -0.1)
        with pytest.raises(ValueError, match=r"^times must be nonnegative$"):
            spin_bath_coherence(model, np.array([0.0, 1.0, -0.1]))

    def test_array_of_times_matches_scalar_calls(self):
        rng = np.random.default_rng(17)
        model = SpinBathModel(bath_size=7, couplings=rng.uniform(0.1, 3.0, size=7))
        times = np.linspace(0.0, 9.0, 301)
        got = spin_bath_coherence(model, times)
        assert isinstance(got, np.ndarray) and got.shape == times.shape
        scalars = [spin_bath_coherence(model, float(t)) for t in times]
        assert all(type(r) is float for r in scalars)
        assert np.max(np.abs(got - scalars)) <= 1e-15


class TestSpinBathEvolve:
    def test_negative_time_refused(self):
        model = SpinBathModel(bath_size=2, couplings=np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match=r"^times must be nonnegative$"):
            spin_bath_evolve(model, [0.0, -1.0])

    def test_initial_point(self):
        model = SpinBathModel(bath_size=3, couplings=np.array([0.5, 1.0, 1.5]))
        curve = spin_bath_evolve(model, [0.0])
        assert abs(curve.coherence[0] - 1.0) <= 1e-12
        assert curve.entropy[0] <= 1e-9

    @pytest.mark.parametrize("kind", ["uniform", "random", "zero"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_initial_state_is_exactly_pure(self, n, kind):
        # at t = 0 the overlap sums the dyadic shares w_j = count_j / 2^N exactly to 1
        couplings = {
            "uniform": np.full(n, 0.759641),
            "random": np.random.default_rng(900 + n).uniform(0.2, 2.0, size=n),
            "zero": np.zeros(n),
        }[kind]
        curve = spin_bath_evolve(SpinBathModel(bath_size=n, couplings=couplings), [0.0])
        assert curve.coherence[0] == 1.0
        assert curve.entropy[0] == 0.0

    def test_full_revival_commensurate(self):
        model = SpinBathModel(bath_size=4, couplings=np.ones(4))
        curve = spin_bath_evolve(model, [math.pi])
        assert abs(curve.coherence[0] - 1.0) <= 1e-10

    def test_matches_closed_form_seeded(self):
        rng = np.random.default_rng(79)
        model = SpinBathModel(bath_size=8, couplings=rng.uniform(0.2, 2.0, size=8))
        curve = spin_bath_evolve(model, [2.0])
        assert abs(curve.coherence[0] - spin_bath_coherence(model, 2.0)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 10])
    def test_oracle_equivalence_many_sizes(self, n):
        rng = np.random.default_rng(100 + n)
        model = SpinBathModel(bath_size=n, couplings=rng.uniform(0.1, 3.0, size=n))
        times = np.linspace(0.0, 5.0, 25)
        curve = spin_bath_evolve(model, times)
        oracle = np.array([spin_bath_coherence(model, t) for t in times])
        assert np.max(np.abs(curve.coherence - oracle)) <= 1e-10

    def test_against_dense_kron_oracle(self):
        couplings = [0.7, 1.3, 2.1]
        times = [0.0, 0.3, 1.7, math.pi]
        curve = spin_bath_evolve(SpinBathModel(bath_size=3, couplings=couplings), times)
        for i, t in enumerate(times):
            psi = evolve_dephasing(couplings, (INV_SQRT2, INV_SQRT2), t)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
            rho = reduced_qubit(psi)
            got = abs(rho[0, 1]) / math.sqrt(rho[0, 0].real * rho[1, 1].real)
            assert abs(curve.coherence[i] - got) <= 1e-12, t
            entropy = direct_entropy(np.linalg.eigvalsh(rho))
            assert abs(curve.entropy[i] - entropy) <= 1e-12, t

    def test_empty_times(self):
        model = SpinBathModel(bath_size=3, couplings=np.array([0.7, 1.3, 2.1]))
        curve = spin_bath_evolve(model, [])
        assert curve.times.shape == curve.coherence.shape == curve.entropy.shape == (0,)

    def test_one_eigvalsh_and_no_eigh_per_call(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        model = SpinBathModel(bath_size=4, couplings=np.linspace(0.5, 1.4, 4))
        spin_bath_evolve(model, np.linspace(0.0, 3.0, 40))
        assert calls == [(40, 2, 2)]

    def test_bath_size_bound(self):
        with pytest.raises(ValueError, match=r"^bath_size 13 exceeds the 2\^N bath-energy table"):
            spin_bath_evolve(SpinBathModel(bath_size=13, couplings=np.ones(13)), [0.0])

    def test_phase_table_bound(self, monkeypatch):
        # three distinct couplings give K = 8 bath energies; 5 times make 40 entries
        model = SpinBathModel(bath_size=3, couplings=np.array([0.3, 0.7, 1.9]))
        times = np.linspace(0.0, 2.0, 5)
        monkeypatch.setattr(decoherence, "_PHASE_ENTRY_BOUND", 40)
        assert len(spin_bath_evolve(model, times).times) == 5
        monkeypatch.setattr(decoherence, "_PHASE_ENTRY_BOUND", 39)
        message = "^8 distinct bath energies x 5 times exceeds bound 39$"
        with pytest.raises(ValueError, match=message):
            spin_bath_evolve(model, times)

    def test_reduced_entropy_from_library_path(self):
        model = SpinBathModel(bath_size=5, couplings=np.linspace(0.3, 1.5, 5))
        t = 1.1
        curve = spin_bath_evolve(model, [t])
        r = spin_bath_coherence(model, t)
        assert abs(curve.entropy[0] - binary_entropy((1.0 - r) / 2.0)) <= 1e-9


def _bath_cases():
    """Three coupling sets for every bath size the evolution admits.

    The ``weighted`` sets are random draws left unsorted.
    """
    rng = np.random.default_rng(2005)
    for n in range(1, 13):
        yield pytest.param(np.full(n, 0.759641), id=f"uniform-{n}")
        yield pytest.param(np.sort(rng.uniform(0.2, 2.0, size=n)), id=f"distinct-{n}")
        yield pytest.param(rng.uniform(0.2, 2.0, size=n), id=f"weighted-{n}")


class TestBathSpectrumSum:
    """The sum over distinct bath energies against the per-step mean over all 2^N states."""

    @pytest.mark.parametrize("couplings", list(_bath_cases()))
    def test_matches_brute_force_mean(self, couplings):
        model = SpinBathModel(bath_size=len(couplings), couplings=couplings)
        times = np.linspace(0.0, 6.0, 61)
        brute = brute_bath_overlap(couplings, times)
        assert np.max(np.abs(decoherence._bath_overlap(model, times) - brute)) <= 1e-13
        curve = spin_bath_evolve(model, times)
        assert np.max(np.abs(curve.coherence - np.abs(brute))) <= 1e-13

    @pytest.mark.parametrize("kind", ["uniform", "distinct", "random"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_distinct_spectrum_is_bitwise_symmetric(self, n, kind):
        # flipping every bath spin negates each energy exactly, which is why
        # the sine sum vanishes and _bath_overlap keeps only the cosines
        couplings = {
            "uniform": np.full(n, 0.759641),
            "distinct": np.linspace(0.2, 2.0, n),
            "random": np.random.default_rng(800 + n).uniform(0.2, 2.0, size=n),
        }[kind]
        model = SpinBathModel(bath_size=n, couplings=couplings)
        energies, counts = np.unique(decoherence._bath_energies(model), return_counts=True)
        np.testing.assert_array_equal(energies, -energies[::-1])
        np.testing.assert_array_equal(counts, counts[::-1])

    def test_evolution_sums_distinct_energies_in_blocks(self, monkeypatch):
        sizes = []
        cos = np.cos

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return cos(x, *args, **kwargs)

        model = SpinBathModel(bath_size=12, couplings=np.full(12, 0.759641))
        distinct = len(np.unique(decoherence._bath_energies(model)))
        monkeypatch.setattr(np, "cos", counted)
        spin_bath_evolve(model, np.linspace(0.0, 6.0, 2000))
        assert distinct < 2**12 // 100  # 13 in exact arithmetic; rounding splits a few
        assert sum(sizes) == 2000 * distinct
        assert len(sizes) > 1 and max(sizes) <= decoherence._PHASE_BLOCK

    @pytest.mark.parametrize("couplings", [
        np.array([1.3]),
        np.full(4, 0.9),
        np.linspace(0.2, 2.0, 10),
    ])
    def test_block_size_changes_nothing(self, couplings, monkeypatch):
        model = SpinBathModel(bath_size=len(couplings), couplings=couplings)
        times = np.linspace(0.0, 6.0, 2000)  # 125 blocks of 16 times at N = 10
        ref = decoherence._bath_overlap(model, times)
        ref_coherence = spin_bath_evolve(model, times).coherence
        for block in (1, 7, decoherence._PHASE_BLOCK):
            monkeypatch.setattr(decoherence, "_PHASE_BLOCK", block)
            assert np.max(np.abs(decoherence._bath_overlap(model, times) - ref)) <= 1e-15
            coherence = spin_bath_evolve(model, times).coherence
            assert np.max(np.abs(coherence - ref_coherence)) <= 1e-15

    @pytest.mark.parametrize("n", range(1, 13))
    def test_short_time_gaussian_law(self, n):
        """-ln|r| = t^2 sum g^2 / 2 + t^4 sum g^4 / 12 + O(t^6) (Cucchietti, Paz & Zurek 2005).

        For x = g t <= 0.1, -ln cos x - x^2/2 - x^4/12 = x^6/45 + O(x^8) lies in
        [0, x^6/40], which brackets the fourth-order remainder from both sides.
        """
        rng = np.random.default_rng(500 + n)
        g = rng.uniform(0.2, 2.0, size=n)
        times = np.linspace(0.02, 0.1, 9) / g.max()
        curve = spin_bath_evolve(SpinBathModel(bath_size=n, couplings=g), times)
        remainder = -np.log(curve.coherence) - times**2 * np.sum(g**2) / 2.0
        fourth = times**4 * np.sum(g**4) / 12.0
        assert np.all(fourth <= remainder)
        assert np.all(remainder <= fourth + times**6 * np.sum(g**6) / 40.0)


class TestEntropyCurve:
    def test_extremes(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0))
        assert binary_entropy(0.0) == 0.0
        # |r| = 1 -> S = 0; |r| = 0 -> S = ln 2
        curve = DephasingCurve(
            times=np.array([0.0, 1.0]),
            coherence=np.array([1.0, 0.0]),
            entropy=np.array([0.0, math.log(2.0)]),
        )
        check = entropy_curve(curve)
        assert check.monotone_in_coherence and check.max_deviation <= 1e-12

    def test_array_equals_scalar_calls(self):
        grid = np.concatenate([
            [-0.5, -1e-300, 0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5],
            np.linspace(-0.1, 1.1, 241),
        ])
        scalars = [binary_entropy(float(p)) for p in grid]
        assert all(type(h) is float for h in scalars)
        np.testing.assert_array_equal(binary_entropy(grid), scalars)
        np.testing.assert_array_equal(binary_entropy(grid.reshape(-1, 1)), np.c_[scalars])
        assert binary_entropy(-0.5) == binary_entropy(1.5) == binary_entropy(1.0) == 0.0

    def test_two_path_agreement_at_frozen_value(self):
        # coherence is cos^8 = 0.9^8 at t = arccos(0.9)
        model = SpinBathModel(bath_size=8, couplings=np.ones(8))
        t = math.acos(0.9)
        curve = spin_bath_evolve(model, [t])
        check = entropy_curve(curve)
        assert check.max_deviation <= 1e-9
        expected = binary_entropy((1.0 - 0.9**8) / 2.0)
        assert abs(curve.entropy[0] - expected) <= 1e-9

    def test_monotone_and_deviation_on_real_curve(self):
        model = SpinBathModel(bath_size=6, couplings=np.linspace(0.5, 1.4, 6))
        curve = spin_bath_evolve(model, np.linspace(0.0, 4.0, 60))
        check = entropy_curve(curve)
        assert check.max_deviation <= 1e-9
        assert check.monotone_in_coherence

    def test_curve_invariants_enforced(self):
        with pytest.raises(ValueError):
            DephasingCurve(
                times=np.array([0.0, 1.0]),
                coherence=np.array([1.0]),
                entropy=np.array([0.0]),
            )
        with pytest.raises(ValueError):
            DephasingCurve(
                times=np.array([0.0]),
                coherence=np.array([1.5]),
                entropy=np.array([0.0]),
            )

    def test_empty_curve_rejected(self):
        curve = DephasingCurve(
            times=np.array([]), coherence=np.array([]), entropy=np.array([])
        )
        with pytest.raises(ValueError):
            entropy_curve(curve)


class TestSpinBathModelValidation:
    def test_rejects_wrong_coupling_count(self):
        with pytest.raises(ValueError):
            SpinBathModel(bath_size=2, couplings=np.array([1.0]))

    def test_rejects_nonfinite_couplings(self):
        with pytest.raises(ValueError):
            SpinBathModel(bath_size=1, couplings=np.array([np.inf]))


class TestPhaseRange:
    """Times and couplings whose phases overflow are refused before any phase is formed."""

    @pytest.mark.parametrize(
        "couplings,t_max",
        [([1e300, 1e300], 1e10), ([1.0], 1e308), ([1e308] * 4, 1.0), ([0.0], 1e308)],
    )
    def test_overflowing_phases_are_refused(self, couplings, t_max):
        model = SpinBathModel(bath_size=len(couplings), couplings=np.array(couplings))
        for compute in (spin_bath_evolve, spin_bath_coherence):
            with pytest.raises(ValueError, match="bath phase overflows"):
                compute(model, np.array([0.0, t_max]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_are_refused_as_such(self, bad):
        # NaN < 0 is false, so a NaN time must not reach the sign or phase tests
        model = SpinBathModel(bath_size=1, couplings=np.array([1.0]))
        for compute in (spin_bath_evolve, spin_bath_coherence):
            for t in (bad, np.array([0.0, bad, 1.0])):
                with pytest.raises(ValueError, match=r"^times must be finite$"):
                    compute(model, t)

    @pytest.mark.parametrize("couplings,t_max", [([1e150, 1e150], 1e150), ([1e308] * 3, 1e-300)])
    def test_finite_phases_are_accepted(self, couplings, t_max):
        model = SpinBathModel(bath_size=len(couplings), couplings=np.array(couplings))
        curve = spin_bath_evolve(model, [0.0, t_max])
        assert np.all(np.isfinite(curve.coherence))
        assert np.all(np.isfinite(spin_bath_coherence(model, curve.times)))
