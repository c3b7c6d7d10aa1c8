import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from qdeco.cli import run
from qdeco.hilbert import StateVector, basis_state
from qdeco.lattice_qed import (
    ENUMERATION_LIMIT,
    GaugeFunction,
    LatticeSpec,
    SectorDecomposition,
    boundary_decomposition_diagonals,
    charge_phase_action,
    charge_sectors,
    gauge_generator_diagonal,
    gauge_invariant_local_basis,
    gauss_diagonal,
    maximal_interior,
    physical_subspace,
    sector_state,
    string_contrast,
    superselection_report,
    total_charge_diagonal,
    wilson_line,
)
from qdeco.lattice_qed import (
    _basis_elements,
    _commutant_basis,
    _config_table,
    _factor_of,
    _support_table,
    _wilson_map,
)


from oracles import (
    brute_commutant_basis,
    brute_kept_pairs,
    brute_operator_count,
    brute_force_gauss_kernel,
    brute_gauss_eigenvalues,
    brute_generator_value,
    brute_wilson_line,
    lattice_configurations,
)


def random_gauge(rng, sites) -> GaugeFunction:
    return GaugeFunction(
        values=rng.uniform(-1.0, 1.0, size=sites),
        left_value=float(rng.uniform(-1.0, 1.0)),
        asymptotic_value=float(rng.uniform(-1.0, 1.0)),
    )


def sector_basis_state(spec, subspace, decomp, charge, which=0) -> StateVector:
    flat = decomp.sectors[charge][which]
    coords = np.zeros(subspace.dim, dtype=complex)
    coords[np.searchsorted(subspace.basis, flat)] = 1.0
    return subspace.embed(coords)


class TestEnumerateBasis:
    @pytest.mark.parametrize("sites,expected", [(1, 9), (2, 81), (3, 729)])
    def test_sizes(self, sites, expected):
        assert _config_table(LatticeSpec(sites=sites, e_max=1)).fields.shape[0] == expected

    def test_lexicographic_order(self):
        charges, fields, _ = _config_table(LatticeSpec(sites=1, e_max=1))
        table = np.concatenate([charges, fields], axis=1)
        # columns are (q_1, E_1); q varies slowest, both ascending
        np.testing.assert_array_equal(table[0], [-1, -1])
        np.testing.assert_array_equal(table[1], [-1, 0])
        np.testing.assert_array_equal(table[3], [0, -1])
        np.testing.assert_array_equal(table[-1], [1, 1])

    def test_dimension_overflow(self):
        with pytest.raises(ValueError):
            _config_table(LatticeSpec(sites=4, e_max=2))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(sites=0, e_max=1)
        with pytest.raises(ValueError):
            LatticeSpec(sites=1, e_max=1, left_field=2)


class TestGaussOperator:
    def test_satisfied_constraint(self):
        spec = LatticeSpec(sites=1, e_max=1)
        table = np.array(lattice_configurations(1, 1))
        diag = gauss_diagonal(spec, 1)
        i = np.nonzero((table == [1, 1]).all(axis=1))[0][0]
        assert diag[i] == 0.0

    def test_violated_constraint(self):
        spec = LatticeSpec(sites=1, e_max=1)
        table = np.array(lattice_configurations(1, 1))
        diag = gauss_diagonal(spec, 1)
        i = np.nonzero((table == [0, 1]).all(axis=1))[0][0]  # q=0, E=1
        assert diag[i] == 1.0

    def test_operators_commute(self):
        spec = LatticeSpec(sites=2, e_max=1)
        g1 = np.diag(gauss_diagonal(spec, 1))
        g2 = np.diag(gauss_diagonal(spec, 2))
        assert np.max(np.abs(g1 @ g2 - g2 @ g1)) == 0.0

    def test_diagonal_and_integer(self):
        spec = LatticeSpec(sites=2, e_max=1)
        for x in (1, 2):
            diag = gauss_diagonal(spec, x)
            assert diag.dtype == np.float64
            assert diag.shape == (spec.flat_dim,)
            np.testing.assert_array_equal(diag, np.round(diag))
            # |E_x - E_{x-1} - q_x| <= 2 e_max + 1
            assert np.max(np.abs(diag)) <= 2 * spec.e_max + 1

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_diagonal(LatticeSpec(sites=2, e_max=1), 3)
        with pytest.raises(ValueError):
            gauss_diagonal(LatticeSpec(sites=2, e_max=1), 0)

    @pytest.mark.parametrize("left", [-1, 0, 1])
    @pytest.mark.parametrize("sites,e_max", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_matches_brute_eigenvalues(self, sites, e_max, left):
        spec = LatticeSpec(sites=sites, e_max=e_max, left_field=left)
        configs = lattice_configurations(sites, e_max)
        ref = np.array([brute_gauss_eigenvalues(config, sites, left) for config in configs])
        for x in range(1, sites + 1):
            np.testing.assert_array_equal(gauss_diagonal(spec, x), ref[:, x - 1])

        rng = np.random.default_rng(31 * sites + 7 * e_max + left)
        for _ in range(5):
            xi = random_gauge(rng, sites)
            _, bulk = boundary_decomposition_diagonals(spec, xi)
            np.testing.assert_allclose(bulk, -(ref @ xi.values), rtol=0, atol=1e-12)
            stencil = [brute_generator_value(config, sites, left, xi) for config in configs]
            np.testing.assert_allclose(
                gauge_generator_diagonal(spec, xi), stencil, rtol=0, atol=1e-12
            )


class TestPhysicalSubspace:
    def test_three_states_at_zero_boundary(self):
        sub = physical_subspace(LatticeSpec(sites=1, e_max=1, left_field=0))
        assert sub.dim == 3
        got = {tuple(row) for row in sub.configurations}
        assert got == {(-1, -1), (0, 0), (1, 1)}

    def test_seven_states_two_sites(self):
        sub = physical_subspace(LatticeSpec(sites=2, e_max=1, left_field=0))
        assert sub.dim == 7

    def test_boundary_value_shifts_kernel(self):
        sub = physical_subspace(LatticeSpec(sites=1, e_max=1, left_field=1))
        got = {tuple(row) for row in sub.configurations}
        assert got == {(-1, 0), (0, 1)}

    @pytest.mark.parametrize(
        "sites,e_max,left", [(1, 1, 0), (2, 1, 0), (2, 2, -1), (3, 1, 1)]
    )
    def test_matches_brute_force(self, sites, e_max, left):
        spec = LatticeSpec(sites=sites, e_max=e_max, left_field=left)
        sub = physical_subspace(spec)
        got = {tuple(row) for row in sub.configurations}
        assert got == brute_force_gauss_kernel(spec.sites, spec.e_max, spec.left_field)

    def test_embed_project_round_trip(self):
        spec = LatticeSpec(sites=2, e_max=1)
        sub = physical_subspace(spec)
        rng = np.random.default_rng(83)
        coords = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
        coords /= np.linalg.norm(coords)
        state = sub.embed(coords)
        np.testing.assert_allclose(state.amplitudes[sub.basis], coords, atol=1e-15)
        assert sub.support_violation(state) == 0.0
        # embedding is an isometry: distinct basis indices, norm preserved
        assert np.all(np.diff(sub.basis) > 0)
        assert abs(state.norm() - 1.0) <= 1e-15


class TestGaugeGenerator:
    def test_zero_gauge_function(self):
        spec = LatticeSpec(sites=2, e_max=1)
        xi = GaugeFunction(np.zeros(2))
        assert np.max(np.abs(gauge_generator_diagonal(spec, xi))) == 0.0

    def test_constant_gauge_function_counts_charge(self):
        spec = LatticeSpec(sites=2, e_max=1)
        xi = GaugeFunction(np.ones(2), left_value=1.0, asymptotic_value=1.0)
        diag = gauge_generator_diagonal(spec, xi)
        table = np.array(lattice_configurations(2, 1))
        total_site_charge = table[:, :2].sum(axis=1)
        np.testing.assert_allclose(diag, total_site_charge, atol=1e-14)
        # on physical states this equals the boundary flux
        sub = physical_subspace(spec)
        np.testing.assert_allclose(
            diag[sub.basis], total_charge_diagonal(spec)[sub.basis], atol=1e-14
        )

    def test_kernel_restriction_matches_boundary_flux(self):
        rng = np.random.default_rng(89)
        spec = LatticeSpec(sites=2, e_max=1, left_field=0)
        sub = physical_subspace(spec)
        q_phys = total_charge_diagonal(spec)[sub.basis]
        for _ in range(20):
            xi = random_gauge(rng, 2)
            diag = gauge_generator_diagonal(spec, xi)[sub.basis]
            expected = xi.asymptotic_value * q_phys + (
                xi.asymptotic_value - xi.left_value
            ) * spec.left_field
            assert np.max(np.abs(diag - expected)) <= 1e-12

    def test_kernel_restriction_with_boundary_offset(self):
        rng = np.random.default_rng(97)
        spec = LatticeSpec(sites=2, e_max=1, left_field=1)
        sub = physical_subspace(spec)
        q_phys = total_charge_diagonal(spec)[sub.basis]
        for _ in range(20):
            xi = random_gauge(rng, 2)
            diag = gauge_generator_diagonal(spec, xi)[sub.basis]
            expected = xi.asymptotic_value * q_phys + (
                xi.asymptotic_value - xi.left_value
            ) * spec.left_field
            assert np.max(np.abs(diag - expected)) <= 1e-12

    def test_dense_operator_is_diagonal_hermitian(self):
        spec = LatticeSpec(sites=1, e_max=1)
        xi = GaugeFunction(values=np.array([0.37]), left_value=-0.2, asymptotic_value=0.9)
        diag = gauge_generator_diagonal(spec, xi)
        assert diag.dtype == np.float64
        dense = np.diag(diag.astype(complex))
        np.testing.assert_array_equal(dense, dense.conj().T)
        # stencil form per configuration: E_1 (xi_inf - xi_1) + q_1 xi_1
        expected = [e * (0.9 - 0.37) + q * 0.37 for q, e in lattice_configurations(1, 1)]
        np.testing.assert_allclose(diag, expected, atol=1e-15)


class TestBoundaryDecomposition:
    def test_zero_gauge_function(self):
        spec = LatticeSpec(sites=2, e_max=1)
        xi = GaugeFunction(np.zeros(2))
        surface, bulk = boundary_decomposition_diagonals(spec, xi)
        assert np.max(np.abs(surface)) == 0.0
        assert np.max(np.abs(bulk)) == 0.0

    @pytest.mark.parametrize("sites", [1, 2, 3])
    @pytest.mark.parametrize("e_max", [1, 2])
    def test_identity_fifty_random_gauges(self, sites, e_max):
        spec = LatticeSpec(sites=sites, e_max=e_max)
        rng = np.random.default_rng(1000 + 10 * sites + e_max)
        worst = 0.0
        for _ in range(50):
            xi = random_gauge(rng, sites)
            direct = gauge_generator_diagonal(spec, xi)
            surface, bulk = boundary_decomposition_diagonals(spec, xi)
            worst = max(worst, float(np.max(np.abs(direct - surface - bulk))))
        assert worst <= 1e-12

    def test_dense_identity_small_lattice(self):
        spec = LatticeSpec(sites=2, e_max=1, left_field=-1)
        rng = np.random.default_rng(101)
        xi = random_gauge(rng, 2)
        total = np.diag(gauge_generator_diagonal(spec, xi))
        surface, bulk = (np.diag(d) for d in boundary_decomposition_diagonals(spec, xi))
        residual = np.max(np.abs(total - surface - bulk))
        assert residual <= 1e-12

    def test_bulk_annihilates_physical_states(self):
        spec = LatticeSpec(sites=2, e_max=1)
        sub = physical_subspace(spec)
        rng = np.random.default_rng(103)
        xi = random_gauge(rng, 2)
        _, bulk = boundary_decomposition_diagonals(spec, xi)
        assert np.max(np.abs(bulk[sub.basis])) == 0.0


class TestTotalCharge:
    def test_examples(self):
        spec = LatticeSpec(sites=1, e_max=1, left_field=0)
        table = np.array(lattice_configurations(1, 1))
        diag = total_charge_diagonal(spec)
        i = np.nonzero((table == [1, 1]).all(axis=1))[0][0]
        assert diag[i] == 1.0

        spec = LatticeSpec(sites=1, e_max=1, left_field=1)
        table = np.array(lattice_configurations(1, 1))
        diag = total_charge_diagonal(spec)
        i = np.nonzero((table == [0, 1]).all(axis=1))[0][0]
        assert diag[i] == 0.0

    def test_sector_sizes_two_sites(self):
        sub = physical_subspace(LatticeSpec(sites=2, e_max=1))
        decomp = charge_sectors(sub)
        assert decomp.sector_sizes() == {-1: 2, 0: 3, 1: 2}

    @pytest.mark.parametrize("sites,e_max,left", [(1, 1, 0), (1, 3, 0), (2, 2, -1), (3, 1, 1)])
    def test_sectors_match_grouping_by_distinct_charge(self, sites, e_max, left):
        sub = physical_subspace(LatticeSpec(sites, e_max, left))
        charge_of = total_charge_diagonal(sub.spec)[sub.basis]
        want = {int(q): sub.basis[charge_of == q] for q in np.unique(charge_of)}
        got = charge_sectors(sub).sectors
        assert list(got) == list(want)
        for q in want:
            np.testing.assert_array_equal(got[q], want[q], strict=True)

    def test_telescoping_on_kernel(self):
        for spec in (
            LatticeSpec(sites=2, e_max=1),
            LatticeSpec(sites=3, e_max=1, left_field=1),
        ):
            sub = physical_subspace(spec)
            n = spec.sites
            site_sum = sub.configurations[:, :n].sum(axis=1)
            flux = sub.configurations[:, -1] - spec.left_field
            np.testing.assert_array_equal(site_sum, flux)

    def test_integer_spectrum(self):
        spec = LatticeSpec(sites=2, e_max=1, left_field=1)
        diag = total_charge_diagonal(spec)
        assert diag.dtype == np.float64
        np.testing.assert_array_equal(diag, np.round(diag))
        np.testing.assert_array_equal(np.unique(diag), [-2.0, -1.0, 0.0])


class TestWilsonLine:
    def test_maps_between_sectors(self):
        spec = LatticeSpec(sites=1, e_max=1, left_field=0)
        table = np.array(lattice_configurations(1, 1))
        w = wilson_line(spec, 1).entries
        src = np.nonzero((table == [0, 0]).all(axis=1))[0][0]
        dst = np.nonzero((table == [1, 1]).all(axis=1))[0][0]
        out = w[:, src]
        assert out[dst] == 1.0
        assert np.sum(np.abs(out)) == 1.0

    def test_clipping_at_truncation_edge(self):
        spec = LatticeSpec(sites=1, e_max=1, left_field=0)
        table = np.array(lattice_configurations(1, 1))
        w = wilson_line(spec, 1).entries
        edge = np.nonzero((table == [0, 1]).all(axis=1))[0][0]  # E at the cap
        assert np.max(np.abs(w[:, edge])) == 0.0
        charge_edge = np.nonzero((table == [1, 0]).all(axis=1))[0][0]  # q at the cap
        assert np.max(np.abs(w[:, charge_edge])) == 0.0

    def test_commutes_with_constraints(self):
        spec = LatticeSpec(sites=2, e_max=1)
        for x in (1, 2):
            w = wilson_line(spec, x).entries
            for y in (1, 2):
                g = np.diag(gauss_diagonal(spec, y))
                assert np.max(np.abs(w @ g - g @ w)) <= 1e-12

    def test_raises_charge_by_one(self):
        spec = LatticeSpec(sites=2, e_max=1)
        w = wilson_line(spec, 1).entries
        q = np.diag(total_charge_diagonal(spec))
        # [Q, W] = W on the non-clipped subspace (clipped columns are zero anyway)
        assert np.max(np.abs(q @ w - w @ q - w)) <= 1e-12

    @pytest.mark.parametrize("x", [0, 3])
    def test_site_out_of_range(self, x):
        with pytest.raises(ValueError, match=rf"^site/link index {x} out of range 1\.\.2$"):
            wilson_line(LatticeSpec(sites=2, e_max=1), x)

    def test_cross_sector_matrix_element(self):
        spec = LatticeSpec(sites=2, e_max=1)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        psi0 = sector_basis_state(spec, sub, decomp, 0, which=0)
        w = wilson_line(spec, 1).entries
        image = StateVector(spec.layout, w @ psi0.amplitudes)
        overlaps = [
            abs(np.vdot(sector_basis_state(spec, sub, decomp, 1, which=k).amplitudes,
                        image.amplitudes))
            for k in range(len(decomp.sectors[1]))
        ]
        assert max(overlaps) > 0.1


def brute_sector_amplitudes(sites, e_max, left, charge) -> np.ndarray:
    """Equal weights on the physical configurations whose boundary flux E_N - left is charge."""
    configs = lattice_configurations(sites, e_max)
    kernel = brute_force_gauss_kernel(sites, e_max, left)
    members = [i for i, c in enumerate(configs) if c in kernel and c[-1] - left == charge]
    amps = np.zeros(len(configs), dtype=complex)
    amps[members] = 1.0 / math.sqrt(len(members))
    return amps


class TestSectorStates:
    SPECS = [(1, 1, 0), (2, 1, 0), (2, 2, 1), (2, 2, -1)]

    @pytest.mark.parametrize("sites,e_max,left", SPECS)
    def test_sector_state_matches_brute_force(self, sites, e_max, left):
        decomp = charge_sectors(physical_subspace(LatticeSpec(sites, e_max, left)))
        for q in decomp.charges():
            state = sector_state(decomp, q)
            want = brute_sector_amplitudes(sites, e_max, left, q)
            np.testing.assert_allclose(state.amplitudes, want, rtol=0, atol=1e-15)
            assert abs(state.norm() - 1.0) <= 1e-14

    def test_missing_sector_is_refused(self):
        decomp = charge_sectors(physical_subspace(LatticeSpec(1, 1, 0)))
        with pytest.raises(ValueError, match="no charge-2 sector"):
            sector_state(decomp, 2)

    @pytest.mark.parametrize("sites,e_max,left", SPECS)
    def test_string_contrast_matches_dense_strings(self, sites, e_max, left):
        kernel = brute_force_gauss_kernel(sites, e_max, left)
        charges = {c[-1] - left for c in kernel}
        q = min(c for c in charges if c + 1 in charges)
        lo = brute_sector_amplitudes(sites, e_max, left, q)
        hi = brute_sector_amplitudes(sites, e_max, left, q + 1)
        want = max(
            abs(np.vdot(hi, brute_wilson_line(sites, e_max, x) @ lo)) for x in range(1, sites + 1)
        )
        decomp = charge_sectors(physical_subspace(LatticeSpec(sites, e_max, left)))
        assert want > 0.1
        assert abs(string_contrast(decomp) - want) <= 1e-14

    def test_charges_form_an_interval_of_at_least_two(self):
        # E_N moves by -1, 0 or +1 per link inside [-e, e], starting from the left field
        specs = [
            LatticeSpec(n, e, left)
            for n in range(1, 5) for e in range(1, 7) for left in range(-e, e + 1)
            if LatticeSpec(n, e).flat_dim <= ENUMERATION_LIMIT
        ]
        assert len(specs) == 123
        for spec in specs:
            n, e, left = spec
            lo, hi = max(-e, left - n) - left, min(e, left + n) - left
            assert charge_sectors(physical_subspace(spec)).charges() == list(range(lo, hi + 1))
            assert hi - lo >= 1

    def test_string_contrast_of_a_hand_built_gap_is_refused(self):
        decomp = charge_sectors(physical_subspace(LatticeSpec(1, 1, 0)))
        gapped = SectorDecomposition(decomp.subspace, {q: decomp.sectors[q] for q in (-1, 1)})
        with pytest.raises(ValueError, match=r"^no charge-0 sector; the charges are \[-1, 1\]$"):
            string_contrast(gapped)


class TestGaugeInvariantLocalBasis:
    def test_single_site_interior_is_diagonal(self):
        spec = LatticeSpec(sites=1, e_max=1)
        ops = gauge_invariant_local_basis(spec, {("site", 1)})
        assert len(ops) >= 2
        for op in ops:
            assert np.max(np.abs(op.entries - np.diag(np.diag(op.entries)))) <= 1e-14

    def test_identity_in_list(self):
        # the first d_int operators are the interior projectors over sqrt(d_ext)
        spec = LatticeSpec(sites=1, e_max=1)
        ops = gauge_invariant_local_basis(spec, {("site", 1)})
        d_int, d_ext = 3, spec.link_dim
        total = math.sqrt(d_ext) * sum(op.entries for op in ops[:d_int])
        np.testing.assert_allclose(total, np.eye(spec.flat_dim), atol=1e-14)

    def test_all_commute_with_constraints(self):
        spec = LatticeSpec(sites=2, e_max=1)
        ops = gauge_invariant_local_basis(spec, maximal_interior(spec))
        gs = [np.diag(gauss_diagonal(spec, x)) for x in (1, 2)]
        for op in ops:
            assert np.max(np.abs(op.entries - op.entries.conj().T)) <= 1e-12
            for g in gs:
                assert np.max(np.abs(op.entries @ g - g @ op.entries)) <= 1e-12

    def test_all_commute_with_total_charge(self):
        spec = LatticeSpec(sites=2, e_max=1)
        q = np.diag(total_charge_diagonal(spec))
        for op in gauge_invariant_local_basis(spec, maximal_interior(spec)):
            assert np.max(np.abs(op.entries @ q - q @ op.entries)) <= 1e-12

    def test_orthonormal_output(self):
        spec = LatticeSpec(sites=2, e_max=1)
        ops = gauge_invariant_local_basis(spec, maximal_interior(spec))
        mats = np.stack([op.entries.ravel() for op in ops])
        gram = mats.conj() @ mats.T
        np.testing.assert_allclose(gram, np.eye(len(ops)), atol=1e-10)

    def test_boundary_link_rejected(self):
        spec = LatticeSpec(sites=2, e_max=1)
        with pytest.raises(ValueError):
            gauge_invariant_local_basis(spec, {("site", 1), ("link", 2)})


    @pytest.mark.parametrize(
        "interior,message",
        [
            (set(), "interior must not be empty"),
            ({("site", 1), ("plaquette", 1)}, "unknown factor label ('plaquette', 1)"),
            ({("site", 1), ("link", 2)}, "interior must not contain the boundary link"),
            ({("site", 3)}, "unknown factor label ('site', 3)"),
            ({("link", 0)}, "unknown factor label ('link', 0)"),
            ([["site", 1]], "unknown factor label ['site', 1]"),
            ({("link", 2), ("plaquette", 1)}, "interior must not contain the boundary link"),
        ],
        ids=["empty", "unknown-label", "boundary-link", "site-out-of-range", "link-zero",
             "list-label", "boundary-link-before-unknown"],
    )
    def test_refusal_messages(self, interior, message):
        spec = LatticeSpec(sites=2, e_max=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            gauge_invariant_local_basis(spec, interior)

    @pytest.mark.parametrize("sites,e_max", [(1, 1), (2, 1), (3, 2), (4, 1)])
    def test_factor_of_covers_the_layout_once(self, sites, e_max):
        spec = LatticeSpec(sites, e_max)
        factor_of = _factor_of(spec)
        assert sorted(factor_of.values()) == list(range(2 * sites))
        for (kind, x), f in factor_of.items():
            assert 1 <= x <= sites
            assert spec.layout.dims[f] == {"site": 3, "link": 2 * e_max + 1}[kind]


class TestSuperselectionReport:
    def test_clean_report_two_sites(self):
        spec = LatticeSpec(sites=2, e_max=1)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        psi_plus = sector_basis_state(spec, sub, decomp, 1)
        psi_minus = sector_basis_state(spec, sub, decomp, -1)
        report = superselection_report(spec, psi_plus, psi_minus)
        assert report.physical_dim == 7
        assert report.max_cross <= 1e-12
        assert report.max_expectation_diff <= 1e-12
        assert (report.sector_plus, report.sector_minus) == (1, -1)

    def test_orthogonal_sectors(self):
        spec = LatticeSpec(sites=2, e_max=1)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        psi_plus = sector_basis_state(spec, sub, decomp, 1)
        psi_minus = sector_basis_state(spec, sub, decomp, -1)
        assert abs(psi_plus.overlap(psi_minus)) == 0.0

    def test_same_sector_flagged(self):
        spec = LatticeSpec(sites=2, e_max=1)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        a = sector_basis_state(spec, sub, decomp, 0, which=0)
        b = sector_basis_state(spec, sub, decomp, 0, which=1)
        report = superselection_report(spec, a, b)
        assert report.sector_plus == report.sector_minus == 0

    def test_boundary_contrast_has_large_cross_element(self):
        spec = LatticeSpec(sites=1, e_max=1)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        psi_plus = sector_basis_state(spec, sub, decomp, 1)
        psi_minus = sector_basis_state(spec, sub, decomp, -1)
        clean = superselection_report(spec, psi_plus, psi_minus)
        contrast = superselection_report(
            spec, psi_plus, psi_minus, include_boundary_link=True
        )
        assert clean.max_cross <= 1e-12
        assert contrast.max_cross > 0.1

    def test_rejects_unphysical_state(self):
        spec = LatticeSpec(sites=1, e_max=1)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        good = sector_basis_state(spec, sub, decomp, 1)
        amps = np.zeros(spec.flat_dim, dtype=complex)
        amps[1] = 1.0  # (q=-1, E=0) violates the constraint
        bad = StateVector(spec.layout, amps)
        with pytest.raises(ValueError):
            superselection_report(spec, good, bad)

    # the sectors `lattice superselect` picks: +-1 when both exist, else the extremes
    @pytest.mark.parametrize("sites,e_max,left_field,q_plus,q_minus", [
        (2, 2, 0, 1, -1), (2, 1, 0, 1, -1), (2, 1, 1, 0, -2), (1, 3, 0, 1, -1),
    ])
    def test_command_sectors_give_exact_zeros(self, sites, e_max, left_field, q_plus, q_minus):
        spec = LatticeSpec(sites, e_max, left_field)
        decomp = charge_sectors(physical_subspace(spec))
        plus, minus = sector_state(decomp, q_plus), sector_state(decomp, q_minus)
        report = superselection_report(spec, plus, minus)
        assert (report.sector_plus, report.sector_minus) == (q_plus, q_minus)
        assert report.max_cross == report.max_expectation_diff == 0.0

    def test_report_memory_stays_linear_in_the_pairs(self):
        # comparing all d_int^2 d_ext = 2187^2 x 3 triples peaks above 8 MiB here;
        # the sorted pair search holds about 2 MiB, linear in the kept pairs
        spec = LatticeSpec(sites=4, e_max=1)
        decomp = charge_sectors(physical_subspace(spec))
        psi_plus, psi_minus = sector_state(decomp, 1), sector_state(decomp, -1)
        superselection_report(spec, psi_plus, psi_minus)  # fills the table cache
        tracemalloc.start()
        try:
            report = superselection_report(spec, psi_plus, psi_minus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_cross <= 1e-12
        assert peak < 4 * 2**20


class TestRefusals:
    """Each refusal of a lattice function, with its message."""

    def setup_method(self):
        self.spec = LatticeSpec(sites=2, e_max=1)
        self.sub = physical_subspace(self.spec)
        self.decomp = charge_sectors(self.sub)
        self.plus = sector_basis_state(self.spec, self.sub, self.decomp, 1)
        self.minus = sector_basis_state(self.spec, self.sub, self.decomp, -1)

    def test_gauge_function_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"^gauge function has 3 values, lattice has 2 sites$"):
            gauge_generator_diagonal(self.spec, GaugeFunction([0.1, 0.2, 0.3]))

    def test_state_of_norm_two(self):
        double = StateVector(self.spec.layout, 2.0 * self.plus.amplitudes)
        with pytest.raises(ValueError, match=r"^expected a unit-norm state$"):
            superselection_report(self.spec, double, self.minus)

    def test_state_over_two_sectors(self):
        both = StateVector(
            self.spec.layout, (self.plus.amplitudes + self.minus.amplitudes) / math.sqrt(2.0)
        )
        with pytest.raises(ValueError, match=r"^state is spread over several charge sectors: "):
            superselection_report(self.spec, self.plus, both)

    def test_phase_action_on_a_state_of_another_dimension(self):
        with pytest.raises(ValueError, match=r"^state dimension does not match the lattice$"):
            charge_phase_action(self.decomp, basis_state(3, 0), 0.5)

    def test_embed_with_one_coordinate_too_many(self):
        assert self.sub.dim == 7
        with pytest.raises(ValueError, match=r"^expected 7 coordinates, got 8$"):
            self.sub.embed(np.ones(8))


class TestChargePhaseAction:
    def setup_method(self):
        self.spec = LatticeSpec(sites=2, e_max=1)
        self.sub = physical_subspace(self.spec)
        self.decomp = charge_sectors(self.sub)
        plus = sector_basis_state(self.spec, self.sub, self.decomp, 1)
        minus = sector_basis_state(self.spec, self.sub, self.decomp, -1)
        self.super_state = StateVector(
            self.spec.layout, (plus.amplitudes + minus.amplitudes) / math.sqrt(2.0)
        )
        self.plus = plus
        self.minus = minus

    def test_zero_angle_is_identity(self):
        out = charge_phase_action(self.decomp, self.super_state, 0.0)
        np.testing.assert_array_equal(out.amplitudes, self.super_state.amplitudes)

    def test_pi_gives_global_sign(self):
        out = charge_phase_action(self.decomp, self.super_state, math.pi)
        np.testing.assert_allclose(
            out.amplitudes, -self.super_state.amplitudes, atol=1e-12
        )

    def test_half_pi_gives_opposite_phases(self):
        out = charge_phase_action(self.decomp, self.super_state, math.pi / 2.0)
        expected = (1j * self.plus.amplitudes - 1j * self.minus.amplitudes) / math.sqrt(2.0)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_norm_preserved(self):
        out = charge_phase_action(self.decomp, self.super_state, 0.774)
        assert abs(out.norm() - self.super_state.norm()) <= 1e-12

    def test_report_unchanged_by_phases(self):
        base = superselection_report(self.spec, self.plus, self.minus)
        phased_plus = charge_phase_action(self.decomp, self.plus, math.pi / 2.0)
        phased = superselection_report(self.spec, phased_plus, self.minus)
        assert phased.max_cross <= 1e-12
        assert phased.max_expectation_diff <= 1e-12
        assert base.n_operators == phased.n_operators

    def test_rejects_unphysical_support(self):
        amps = np.ones(self.spec.flat_dim, dtype=complex)
        amps /= np.linalg.norm(amps)
        with pytest.raises(ValueError):
            charge_phase_action(self.decomp, StateVector(self.spec.layout, amps), 1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(ValueError, match=rf"^phase angle theta must be finite, got {theta}$"):
            charge_phase_action(self.decomp, self.super_state, theta)


class TestInteriorExpectations:
    def test_superposition_indistinguishable_from_mixture(self):
        spec = LatticeSpec(sites=2, e_max=1)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        plus = sector_basis_state(spec, sub, decomp, 1)
        minus = sector_basis_state(spec, sub, decomp, -1)
        superpos = (plus.amplitudes + minus.amplitudes) / math.sqrt(2.0)
        for op in gauge_invariant_local_basis(spec, maximal_interior(spec)):
            m = op.entries
            exp_sup = np.vdot(superpos, m @ superpos).real
            exp_mix = 0.5 * (
                np.vdot(plus.amplitudes, m @ plus.amplitudes).real
                + np.vdot(minus.amplitudes, m @ minus.amplitudes).real
            )
            assert abs(exp_sup - exp_mix) <= 1e-12

    def test_phases_change_no_interior_expectation(self):
        spec = LatticeSpec(sites=2, e_max=1)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        plus = sector_basis_state(spec, sub, decomp, 1)
        minus = sector_basis_state(spec, sub, decomp, -1)
        superpos = StateVector(
            spec.layout, (plus.amplitudes + minus.amplitudes) / math.sqrt(2.0)
        )
        ops = gauge_invariant_local_basis(spec, maximal_interior(spec))
        for theta in (0.3, 1.1, 2.9):
            phased = charge_phase_action(decomp, superpos, theta)
            for op in ops:
                before = np.vdot(superpos.amplitudes, op.entries @ superpos.amplitudes).real
                after = np.vdot(phased.amplitudes, op.entries @ phased.amplitudes).real
                assert abs(before - after) <= 1e-12


def random_sector_state(rng, subspace, decomp, charge) -> StateVector:
    """Normalized random superposition of the physical states of one sector."""
    coords = np.zeros(subspace.dim, dtype=complex)
    slots = np.searchsorted(subspace.basis, decomp.sectors[charge])
    coords[slots] = rng.normal(size=len(slots)) + 1j * rng.normal(size=len(slots))
    return subspace.embed(coords / np.linalg.norm(coords))


def dense_report(ops, plus, minus) -> tuple[float, float]:
    """Largest |<+|O|->| and superposition-minus-mixture gap over dense operators."""
    superpos = (plus + minus) / math.sqrt(2.0)
    cross = diff = 0.0
    for m in ops:
        cross = max(cross, abs(np.vdot(plus, m @ minus)))
        exp_sup = np.vdot(superpos, m @ superpos).real
        exp_mix = 0.5 * (np.vdot(plus, m @ plus).real + np.vdot(minus, m @ minus).real)
        diff = max(diff, abs(exp_sup - exp_mix))
    return cross, diff


def divergence_labels(sites, e_max, left) -> np.ndarray:
    """One label per configuration, equal exactly when the divergences agree."""
    classes = {}  # divergence tuple -> class label, in order of first appearance
    return np.array([
        classes.setdefault(brute_gauss_eigenvalues(c, sites, left), len(classes))
        for c in lattice_configurations(sites, e_max)
    ])


class TestSupportFormParity:
    """The support-table commutant and string map against dense brute-force oracles."""

    @pytest.mark.parametrize(
        "sites,e_max,boundary",
        [(1, 1, False), (1, 3, False), (2, 1, False), (2, 2, False), (1, 1, True), (2, 1, True)],
    )
    def test_commutant_matches_gram_schmidt(self, sites, e_max, boundary):
        spec = LatticeSpec(sites=sites, e_max=e_max)
        factors = list(range(2 * sites if boundary else 2 * sites - 1))
        ref = brute_commutant_basis(sites, e_max, 0, factors)
        if boundary:
            ops = [op.entries for op in _commutant_basis(spec, factors)]
        else:
            ops = [op.entries for op in gauge_invariant_local_basis(spec, maximal_interior(spec))]
        assert len(ops) == len(ref)
        stacked = np.stack([m.ravel() for m in ops + ref])
        gram = stacked.conj() @ stacked.T  # same rank as the stack, and small
        assert np.linalg.matrix_rank(gram, hermitian=True) == len(ref)

        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        rng = np.random.default_rng(7 * sites + e_max)
        plus = random_sector_state(rng, sub, decomp, 1)
        minus = random_sector_state(rng, sub, decomp, -1)
        report = superselection_report(spec, plus, minus, include_boundary_link=boundary)
        assert report.n_operators == len(ref)
        ref_cross, ref_diff = dense_report(ref, plus.amplitudes, minus.amplitudes)
        values = (report.max_cross, report.max_expectation_diff, ref_cross, ref_diff)
        if boundary:
            # the diagonal operators of either basis give zero across sectors,
            # and the off-diagonal ones are the same operators
            assert min(values) > 0.1
            assert report.max_cross == pytest.approx(ref_cross, rel=1e-12)
            assert report.max_expectation_diff == pytest.approx(ref_diff, rel=1e-12)
        else:
            assert max(values) <= 1e-12

    @pytest.mark.parametrize("sites,e_max", [(1, 1), (1, 3), (2, 1), (2, 2)])
    def test_same_sector_gap_matches_dense_superposition(self, sites, e_max):
        # inside one sector the interior operators do tell the superposition
        # from the mixture; the dense route forms both states' expectations
        spec = LatticeSpec(sites=sites, e_max=e_max)
        sub = physical_subspace(spec)
        decomp = charge_sectors(sub)
        rng = np.random.default_rng(11 * sites + e_max)
        plus, minus = (random_sector_state(rng, sub, decomp, 0) for _ in range(2))
        report = superselection_report(spec, plus, minus)
        ops = [op.entries for op in gauge_invariant_local_basis(spec, maximal_interior(spec))]
        ref_cross, ref_diff = dense_report(ops, plus.amplitudes, minus.amplitudes)
        assert ref_diff > 0.1
        assert report.max_cross == pytest.approx(ref_cross, rel=1e-12)
        assert report.max_expectation_diff == pytest.approx(ref_diff, rel=1e-12)

    @pytest.mark.parametrize("sites,e_max", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
    def test_support_table_matches_enumeration(self, sites, e_max):
        table = np.array(lattice_configurations(sites, e_max))
        ranges = [range(-1, 2)] * sites + [range(-e_max, e_max + 1)] * sites
        for left in (1, 0, -e_max):
            spec = LatticeSpec(sites=sites, e_max=e_max, left_field=left)
            labels = divergence_labels(sites, e_max, left)
            for r in range(2 * sites + 1):
                for factors in itertools.combinations(range(2 * sites), r):
                    exterior = [f for f in range(2 * sites) if f not in factors]
                    inner = np.array(list(itertools.product(*(ranges[f] for f in factors))))
                    outer = np.array(list(itertools.product(*(ranges[f] for f in exterior))))
                    position, a, b = _support_table(spec, list(factors))
                    assert position.shape == (len(inner), len(outer))
                    # row a runs over the interior values, column e over the exterior ones
                    joined = table[position]
                    shape = position.shape
                    np.testing.assert_array_equal(
                        joined[..., list(factors)], np.broadcast_to(inner[:, None], (*shape, r))
                    )
                    np.testing.assert_array_equal(
                        joined[..., exterior],
                        np.broadcast_to(outer[None], (*shape, len(exterior))),
                    )
                    # the kept pairs are those whose divergences agree at some exterior
                    want = brute_kept_pairs(labels[position])
                    for got_part, want_part in zip((a, b), want[:2], strict=True):
                        np.testing.assert_array_equal(got_part, want_part, strict=True)

    @pytest.mark.parametrize("factors", [[0, 1, 2], [0, 2, 3], [1, 3]])
    def test_report_elements_match_dense_operators(self, factors):
        spec = LatticeSpec(sites=2, e_max=1, left_field=1)
        position, a, b = _support_table(spec, factors)
        d_int = position.shape[0]
        rng = np.random.default_rng(len(factors))
        x, y = (rng.normal(size=spec.flat_dim) + 1j * rng.normal(size=spec.flat_dim)
                for _ in range(2))
        got = _basis_elements(a, b, x[position], y[position])

        expected = [np.vdot(x, op.entries @ y) for op in _commutant_basis(spec, factors)]
        assert len(got) == len(expected) > d_int
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("sites,e_max", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
    def test_kept_pairs_match_all_pair_comparison(self, sites, e_max):
        # the oracle compares every exterior column; a pair that agrees in one
        # agrees in all, so its mask is all True and the interior alone finds the pairs
        for left in (1, 0, -e_max):
            spec = LatticeSpec(sites=sites, e_max=e_max, left_field=left)
            labels = divergence_labels(sites, e_max, left)
            for r in range(1, 2 * sites + 1):
                for factors in itertools.combinations(range(2 * sites), r):
                    position, *got = _support_table(spec, list(factors))
                    a, b, keep = brute_kept_pairs(labels[position])
                    assert keep.all()
                    for got_part, want in zip(got, (a, b), strict=True):
                        np.testing.assert_array_equal(got_part, want, strict=True)

    def test_support_with_no_kept_pair(self):
        # (1,3,0) with the charge as the interior: at each field value every
        # charge has its own divergence
        position, *got = _support_table(LatticeSpec(1, 3, 0), [0])
        assert got[0].shape == got[1].shape == (0,)
        want = brute_kept_pairs(divergence_labels(1, 3, 0)[position])
        for got_part, want_part in zip(got, want[:2], strict=True):
            np.testing.assert_array_equal(got_part, want_part, strict=True)

    @pytest.mark.parametrize("sites,e_max", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_wilson_map_matches_loop(self, sites, e_max):
        spec = LatticeSpec(sites=sites, e_max=e_max)
        for x in range(1, sites + 1):
            ref = brute_wilson_line(sites, e_max, x)
            src, dst = _wilson_map(spec, x)
            dense = np.zeros_like(ref)
            dense[dst, src] = 1.0
            np.testing.assert_array_equal(dense, ref)
            np.testing.assert_array_equal(wilson_line(spec, x).entries, ref)

    def test_wilson_map_skips_only_the_truncation_edge(self):
        spec = LatticeSpec(sites=4, e_max=1)  # beyond the dense bound
        table = np.array(lattice_configurations(4, 1))
        src, dst = _wilson_map(spec, 2)
        assert np.all(np.diff(src) > 0)
        raised = table[src].copy()
        raised[:, 1] += 1
        raised[:, 5:] += 1
        np.testing.assert_array_equal(table[dst], raised)
        at_edge = (table[:, 1] == 1) | np.any(table[:, 5:] == 1, axis=1)
        assert len(src) == np.count_nonzero(~at_edge)


class TestConfigTable:
    """One enumeration per spec, shared read-only, never handed to callers."""

    def test_identity_check_enumerates_once(self, capsys):
        _config_table.cache_clear()
        argv = ["lattice", "identity-check", "--sites", "4", "--emax", "1",
                "--seed", "1", "--trials", "200"]
        assert run(argv) == 0
        capsys.readouterr()
        info = _config_table.cache_info()
        assert info.misses == 1
        assert info.hits > 200

    def test_over_the_bound_refused_on_every_call(self):
        spec = LatticeSpec(sites=4, e_max=2)
        cached = _config_table.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="enumeration bound"):
                physical_subspace(spec)
            with pytest.raises(ValueError, match="enumeration bound"):
                gauss_diagonal(spec, 1)
        assert _config_table.cache_info().currsize == cached  # a refusal is never cached

    @pytest.mark.parametrize(
        "sites,e_max,bound,expected",
        [
            (60, 1, 20000, "9^60"),
            (3, 7, 20000, "45^3"),  # 91125 > 2.718 x 20000
            (4, 2, 20000, 50625),  # 50625 < 2.718 x 20000: exact
            (4, 1, 2048, "9^4"),
            (3, 2, 2048, 3375),
            (1, 1, 3, "9^1"),  # 9 > 2.718 x 3
            (1, 1, 4, 9),  # 9 < 2.718 x 4
        ],
    )
    def test_flat_dim_or_power(self, sites, e_max, bound, expected):
        # the refusal names the exact flat dimension, or its power when far over
        spec = LatticeSpec(sites=sites, e_max=e_max)
        line = f"flat dimension {expected} exceeds test bound {bound}"
        with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
            spec.checked_flat_dim(bound, "test")

    @pytest.mark.parametrize("sites,e_max,bound", [(4, 1, 6561), (4, 2, 50625), (1, 1, 9)])
    def test_checked_flat_dim_admits_up_to_the_bound(self, sites, e_max, bound):
        got = LatticeSpec(sites=sites, e_max=e_max).checked_flat_dim(bound, "test")
        assert (type(got), got) == (int, bound)

    def test_oversized_spec_refused_at_once(self):
        spec = LatticeSpec(sites=10**9, e_max=1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^flat dimension 9\^1000000000 exceeds enumeration"):
            physical_subspace(spec)
        with pytest.raises(ValueError, match=r"^flat dimension 9\^1000000000 exceeds dense bound"):
            wilson_line(spec, 1)
        assert time.perf_counter() - start < 1.0

    def test_table_is_read_only(self):
        table = _config_table(LatticeSpec(sites=2, e_max=1))
        for array in table:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 7

    def test_table_matches_enumeration(self):
        spec = LatticeSpec(sites=3, e_max=1, left_field=-1)
        table = _config_table(spec)
        ref = np.array(lattice_configurations(3, 1))
        np.testing.assert_array_equal(table.charges, ref[:, :3])
        np.testing.assert_array_equal(table.fields, ref[:, 3:])
        assert all(array.dtype == np.float64 for array in table)
        assert physical_subspace(spec).configurations.dtype == np.int64
        assert _config_table(spec) is table

    def test_writing_into_results_changes_nothing(self):
        spec = LatticeSpec(sites=2, e_max=1, left_field=1)
        xi = GaugeFunction(values=np.array([0.3, -0.7]), left_value=0.1, asymptotic_value=0.5)
        producers = {
            "gauss_diagonal": lambda: [gauss_diagonal(spec, x) for x in (1, 2)],
            "total_charge_diagonal": lambda: [total_charge_diagonal(spec)],
            "physical_subspace": lambda: [
                physical_subspace(spec).configurations, physical_subspace(spec).basis
            ],
            "boundary_decomposition_diagonals": lambda: list(
                boundary_decomposition_diagonals(spec, xi)
            ),
            "gauge_generator_diagonal": lambda: [gauge_generator_diagonal(spec, xi)],
        }
        before = {name: [a.copy() for a in make()] for name, make in producers.items()}
        for make in producers.values():
            for array in make():
                array[...] = 99
        for name, make in producers.items():
            for got, want in zip(make(), before[name]):
                np.testing.assert_array_equal(got, want, err_msg=name)


class TestOperatorCount:
    """n_operators against a count of constraint classes that shares no code with the library."""

    @staticmethod
    def report(spec: LatticeSpec, boundary: bool = False):
        sub = physical_subspace(spec)
        psi = sub.embed(np.eye(1, sub.dim)[0])
        return superselection_report(spec, psi, psi, include_boundary_link=boundary)

    @pytest.mark.parametrize("left", [-1, 0, 1])
    @pytest.mark.parametrize(
        "sites,e_max", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]
    )
    def test_interior_count(self, sites, e_max, left):
        spec = LatticeSpec(sites=sites, e_max=e_max, left_field=left)
        assert self.report(spec).n_operators == brute_operator_count(sites, e_max, left, False)

    @pytest.mark.parametrize("left", [-1, 0, 1])
    @pytest.mark.parametrize("sites,e_max", [(1, 1), (2, 1), (2, 2)])
    def test_boundary_count(self, sites, e_max, left):
        spec = LatticeSpec(sites=sites, e_max=e_max, left_field=left)
        count = self.report(spec, boundary=True).n_operators
        assert count == brute_operator_count(sites, e_max, left, True)

    @pytest.mark.parametrize("sites,e_max,left", [(1, 1, 0), (1, 3, -1), (2, 1, 1)])
    def test_dense_basis_has_the_same_count(self, sites, e_max, left):
        spec = LatticeSpec(sites=sites, e_max=e_max, left_field=left)
        dense = gauge_invariant_local_basis(spec, maximal_interior(spec))
        assert len(dense) == self.report(spec).n_operators
        assert len(dense) == brute_operator_count(sites, e_max, left, False)
