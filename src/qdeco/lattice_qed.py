"""Exact treatment of a 1D truncated-link electrodynamics model.

Each of the N sites carries a static charge q_x in {-1, 0, +1}; link x (to the
right of site x) carries an integer electric field E_x in [-e_max, e_max].
The field on the fictitious link 0 is a fixed classical boundary value, and
link N plays the role of the far boundary: the total charge is read off as
boundary flux, E_N minus the left value.

The per-site divergence constraints are diagonal in the configuration basis,
so the physical subspace is found by exhaustive enumeration, and all gauge
identities hold to machine precision.  Operators on spaces beyond the dense
bound are handled through their diagonals.

Gauge-invariant operators on an interior are worked out from their supports.
Splitting every configuration into an interior part a and an exterior part e,
a matrix unit |(a, e)><(b, e)| commutes with all constraints exactly when the
two configurations agree in every divergence eigenvalue.  Summed over e, these
units have pairwise disjoint supports, so the commutant is spanned by the
projectors P_a and the Hermitized units of each pair a < b with at least one
agreeing e, and no dense orthonormalization is needed.  The superselection
report evaluates that basis on index tables, and the string operator is an
index map, so neither builds a flat_dim x flat_dim matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Collection

import numpy as np

from .hilbert import Operator, StateVector, TensorLayout

__all__ = [
    "LatticeSpec",
    "GaugeFunction",
    "PhysicalSubspace",
    "SectorDecomposition",
    "SuperselectionReport",
    "enumerate_basis",
    "gauss_operator",
    "gauss_diagonal",
    "physical_subspace",
    "charge_sectors",
    "gauge_generator",
    "gauge_generator_diagonal",
    "boundary_decomposition",
    "boundary_decomposition_diagonals",
    "total_charge",
    "total_charge_diagonal",
    "wilson_line",
    "maximal_interior",
    "gauge_invariant_local_basis",
    "superselection_report",
    "charge_phase_action",
]

ENUMERATION_LIMIT = 20000
DENSE_OPERATOR_LIMIT = 2048
CROSS_ELEMENT_TOL = 1e-12
_SUPPORT_TOL = 1e-12
_PAIR_BLOCK = 1 << 22  # (a, b, e) comparisons per block of _kept_pairs

FactorLabel = tuple[str, int]


@dataclass(frozen=True)
class LatticeSpec:
    """Model definition: N sites, field truncation, fixed left boundary field."""

    sites: int
    e_max: int
    left_field: int = 0

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("need at least one site")
        if self.e_max < 1:
            raise ValueError("field truncation must be >= 1")
        if abs(self.left_field) > self.e_max:
            raise ValueError(
                f"left boundary field {self.left_field} outside truncation "
                f"[-{self.e_max}, {self.e_max}]"
            )

    @property
    def link_dim(self) -> int:
        return 2 * self.e_max + 1

    @property
    def flat_dim(self) -> int:
        return 3**self.sites * self.link_dim**self.sites

    @property
    def layout(self) -> TensorLayout:
        # Site charge factors first, then link field factors; configurations
        # are therefore ordered lexicographically in (q_1..q_N, E_1..E_N).
        return TensorLayout((3,) * self.sites + (self.link_dim,) * self.sites)

    def site_factor(self, x: int) -> int:
        self._check_site(x)
        return x - 1

    def link_factor(self, x: int) -> int:
        self._check_site(x)
        return self.sites + x - 1

    def _check_site(self, x: int):
        if not 1 <= x <= self.sites:
            raise ValueError(f"site/link index {x} out of range 1..{self.sites}")


@dataclass(frozen=True)
class GaugeFunction:
    """Per-site gauge parameters plus the two boundary values."""

    values: np.ndarray
    left_value: float = 0.0
    asymptotic_value: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if not np.all(np.isfinite(v)) or not (
            math.isfinite(self.left_value) and math.isfinite(self.asymptotic_value)
        ):
            raise ValueError("gauge function values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, sites: int, value: float) -> "GaugeFunction":
        return cls(np.full(sites, value), left_value=value, asymptotic_value=value)


def _config_arrays(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Charge and field values of every configuration, shape (flat_dim, N) each."""
    if spec.flat_dim > ENUMERATION_LIMIT:
        raise ValueError(
            f"flat dimension {spec.flat_dim} exceeds enumeration bound {ENUMERATION_LIMIT}"
        )
    n = spec.sites
    dims = spec.layout.dims
    idx = np.unravel_index(np.arange(spec.flat_dim), dims)
    charges = np.stack([idx[x] - 1 for x in range(n)], axis=1)
    fields = np.stack([idx[n + x] - spec.e_max for x in range(n)], axis=1)
    return charges.astype(np.int64), fields.astype(np.int64)


def enumerate_basis(spec: LatticeSpec) -> np.ndarray:
    """All configurations as integer rows (q_1..q_N, E_1..E_N), in flat-index order."""
    charges, fields = _config_arrays(spec)
    return np.concatenate([charges, fields], axis=1)


def _diag_operator(spec: LatticeSpec, diag: np.ndarray) -> Operator:
    if spec.flat_dim > DENSE_OPERATOR_LIMIT:
        raise ValueError(
            f"flat dimension {spec.flat_dim} exceeds dense bound {DENSE_OPERATOR_LIMIT}; "
            "use the *_diagonal form"
        )
    return Operator(spec.layout, np.diag(diag.astype(np.complex128)))


def gauss_diagonal(spec: LatticeSpec, x: int) -> np.ndarray:
    """Eigenvalues of the site-x divergence E_x - E_{x-1} - q_x (E_0 = left field)."""
    spec._check_site(x)
    charges, fields = _config_arrays(spec)
    left = fields[:, x - 2] if x >= 2 else np.full(spec.flat_dim, spec.left_field)
    return (fields[:, x - 1] - left - charges[:, x - 1]).astype(np.float64)


def gauss_operator(spec: LatticeSpec, x: int) -> Operator:
    """Divergence constraint at site x as a diagonal operator."""
    return _diag_operator(spec, gauss_diagonal(spec, x))


@dataclass(frozen=True)
class PhysicalSubspace:
    """Configurations annihilated by every divergence constraint."""

    spec: LatticeSpec
    basis: np.ndarray          # flat indices, ascending
    configurations: np.ndarray  # matching rows (q_1..q_N, E_1..E_N)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def embed(self, coords: np.ndarray) -> StateVector:
        """Full-space state from coordinates in the physical basis."""
        coords = np.asarray(coords, dtype=np.complex128).ravel()
        if coords.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {coords.shape[0]}")
        amps = np.zeros(self.spec.flat_dim, dtype=np.complex128)
        amps[self.basis] = coords
        return StateVector(self.spec.layout, amps)

    def project(self, state: StateVector) -> np.ndarray:
        """Coordinates of a full-space state in the physical basis."""
        if state.dim != self.spec.flat_dim:
            raise ValueError("state dimension does not match the lattice")
        return state.amplitudes[self.basis].copy()

    def isometry_matrix(self) -> np.ndarray:
        """The (flat_dim x dim) 0/1 embedding matrix."""
        iso = np.zeros((self.spec.flat_dim, self.dim))
        iso[self.basis, np.arange(self.dim)] = 1.0
        return iso

    def support_violation(self, state: StateVector) -> float:
        """Total weight of a state outside the physical subspace."""
        mask = np.ones(self.spec.flat_dim, dtype=bool)
        mask[self.basis] = False
        return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def _divergences(spec: LatticeSpec, charges: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """E_x - E_{x-1} - q_x per configuration and site (E_0 = left field), shape (flat_dim, N)."""
    left = np.concatenate(
        [np.full((spec.flat_dim, 1), spec.left_field), fields[:, :-1]], axis=1
    )
    return fields - left - charges


def physical_subspace(spec: LatticeSpec) -> PhysicalSubspace:
    """Brute-force filter of the configuration basis by all constraints."""
    charges, fields = _config_arrays(spec)
    ok = np.all(_divergences(spec, charges, fields) == 0, axis=1)
    basis = np.nonzero(ok)[0]
    table = np.concatenate([charges[basis], fields[basis]], axis=1)
    return PhysicalSubspace(spec, basis, table)


@dataclass(frozen=True)
class SectorDecomposition:
    """Partition of the physical basis by total boundary-flux charge."""

    subspace: PhysicalSubspace
    sectors: dict[int, np.ndarray]  # charge -> flat indices

    def charges(self) -> list[int]:
        return sorted(self.sectors)

    def sector_sizes(self) -> dict[int, int]:
        return {q: len(ix) for q, ix in sorted(self.sectors.items())}


def charge_sectors(subspace: PhysicalSubspace) -> SectorDecomposition:
    spec = subspace.spec
    n = spec.sites
    charge_of = subspace.configurations[:, 2 * n - 1] - spec.left_field
    sectors = {
        int(q): subspace.basis[charge_of == q] for q in np.unique(charge_of)
    }
    return SectorDecomposition(subspace, sectors)


def _gauge_arrays(spec: LatticeSpec, xi: GaugeFunction) -> np.ndarray:
    v = xi.values
    if v.shape[0] != spec.sites:
        raise ValueError(f"gauge function has {v.shape[0]} values, lattice has {spec.sites} sites")
    return v


def gauge_generator_diagonal(spec: LatticeSpec, xi: GaugeFunction) -> np.ndarray:
    """Diagonal of the gauge generator in its link-difference (stencil) form.

    Sum over links of E_x (xi_{x+1} - xi_x), with xi beyond the last site set
    to the asymptotic value, plus the fixed left-boundary contribution and the
    site charge term sum_x q_x xi_x.
    """
    v = _gauge_arrays(spec, xi)
    charges, fields = _config_arrays(spec)
    xi_ext = np.append(v, xi.asymptotic_value)
    diff = xi_ext[1:] - v  # xi_{x+1} - xi_x per link
    diag = fields @ diff + charges @ v
    diag += spec.left_field * (v[0] - xi.left_value)
    return diag.astype(np.float64)


def gauge_generator(spec: LatticeSpec, xi: GaugeFunction) -> Operator:
    """Generator of the gauge transformation parameterized by xi (diagonal)."""
    return _diag_operator(spec, gauge_generator_diagonal(spec, xi))


def boundary_decomposition_diagonals(
    spec: LatticeSpec, xi: GaugeFunction
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the surface and bulk parts of the gauge generator.

    Surface: asymptotic value times the last-link field minus the left-value
    times the fixed boundary field.  Bulk: minus the xi-weighted sum of the
    divergence constraints.  Their sum reproduces the stencil form exactly.
    """
    v = _gauge_arrays(spec, xi)
    _, fields = _config_arrays(spec)
    surface = xi.asymptotic_value * fields[:, -1] - xi.left_value * spec.left_field
    bulk = np.zeros(spec.flat_dim)
    for x in range(1, spec.sites + 1):
        bulk -= v[x - 1] * gauss_diagonal(spec, x)
    return surface.astype(np.float64), bulk


def boundary_decomposition(spec: LatticeSpec, xi: GaugeFunction) -> tuple[Operator, Operator]:
    surface, bulk = boundary_decomposition_diagonals(spec, xi)
    return _diag_operator(spec, surface), _diag_operator(spec, bulk)


def total_charge_diagonal(spec: LatticeSpec) -> np.ndarray:
    """Boundary flux E_N minus the fixed left field, per configuration."""
    _, fields = _config_arrays(spec)
    return (fields[:, -1] - spec.left_field).astype(np.float64)


def total_charge(spec: LatticeSpec) -> Operator:
    return _diag_operator(spec, total_charge_diagonal(spec))


def _wilson_map(spec: LatticeSpec, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The string operator from site x as a map of flat indices ``src -> dst``.

    The string raises q_x and the fields E_x..E_N by one, which shifts the flat
    index by the layout strides of those factors.  Configurations at the
    truncation edge (q_x = +1 or some E_y = e_max on the string) have no image
    and are left out of ``src``; ``src`` is ascending.
    """
    spec._check_site(x)
    dims = spec.layout.dims
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    raised = [spec.site_factor(x)] + [spec.link_factor(y) for y in range(x, spec.sites + 1)]
    ranges = [
        np.arange(d - 1 if f in raised else d) * stride
        for f, (d, stride) in enumerate(zip(dims, strides))
    ]
    src = reduce(np.add.outer, ranges).ravel()
    return src, src + strides[raised].sum()


def wilson_line(spec: LatticeSpec, x: int) -> Operator:
    """String operator from site x to the right boundary.

    Raises q_x by one and every link field on the string (links x..N) by one;
    matrix elements leaving the truncated ranges are dropped, so states at the
    truncation edge are annihilated.  Without the dense matrix, apply
    :func:`_wilson_map` to the amplitudes instead.
    """
    spec._check_site(x)
    dim = spec.flat_dim
    if dim > DENSE_OPERATOR_LIMIT:
        raise ValueError(f"flat dimension {dim} exceeds dense bound {DENSE_OPERATOR_LIMIT}")
    src, dst = _wilson_map(spec, x)
    entries = np.zeros((dim, dim), dtype=np.complex128)
    entries[dst, src] = 1.0
    return Operator(spec.layout, entries)


def maximal_interior(spec: LatticeSpec) -> frozenset[FactorLabel]:
    """All sites and all links except the boundary link N."""
    labels = {("site", x) for x in range(1, spec.sites + 1)}
    labels |= {("link", x) for x in range(1, spec.sites)}
    return frozenset(labels)


def _interior_factors(
    spec: LatticeSpec, interior: Collection[FactorLabel], allow_boundary: bool
) -> list[int]:
    factors = []
    for label in interior:
        kind, x = label
        if kind == "site":
            factors.append(spec.site_factor(x))
        elif kind == "link":
            if x == spec.sites and not allow_boundary:
                raise ValueError("interior must not contain the boundary link")
            factors.append(spec.link_factor(x))
        else:
            raise ValueError(f"unknown factor label {label!r}")
    if not factors:
        raise ValueError("interior must not be empty")
    return sorted(set(factors))


def _support_table(spec: LatticeSpec, factors: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and packed constraint eigenvalues, split by the given support.

    Returns ``position`` and ``code``, both of shape (d_int, d_ext):
    ``position[a, e]`` is the flat index of interior configuration a (over the
    given factors) joined to exterior configuration e (over the others), and
    ``code[a, e]`` packs the N divergence eigenvalues of that configuration into
    one integer, so two configurations agree in every constraint exactly when
    their codes are equal.
    """
    charges, fields = _config_arrays(spec)
    dims = spec.layout.dims
    exterior = [f for f in range(len(dims)) if f not in factors]
    multi = np.concatenate([charges + 1, fields + spec.e_max], axis=1)
    int_dims = [dims[f] for f in factors]
    ext_dims = [dims[f] for f in exterior]
    int_code = np.ravel_multi_index(multi[:, factors].T, int_dims)
    ext_code = (
        np.ravel_multi_index(multi[:, exterior].T, ext_dims)
        if exterior
        else np.zeros(spec.flat_dim, dtype=np.int64)
    )
    position = np.empty((math.prod(int_dims), math.prod(ext_dims)), dtype=np.int64)
    position[int_code, ext_code] = np.arange(spec.flat_dim)

    reach = 2 * spec.e_max + 1  # |E_x - E_{x-1} - q_x| <= 2 e_max + 1
    shifted = _divergences(spec, charges, fields) + reach
    code = np.ravel_multi_index(shifted.T, (2 * reach + 1,) * spec.sites)
    return position, code[position]


def _kept_pairs(code: np.ndarray):
    """Interior pairs a < b joined at one or more exterior configurations, in blocks.

    Yields ``(a, b, keep)``: the pair indices, ascending, and per pair a mask
    over exterior configurations e at which (a, e) and (b, e) agree in every
    constraint eigenvalue.  The matrix unit of the pair is the sum of
    |(a, e)><(b, e)| over the kept e.  Each block compares at most
    ``_PAIR_BLOCK`` (a, b, e) triples.
    """
    d_int, d_ext = code.shape
    rows = max(1, _PAIR_BLOCK // (d_int * d_ext))
    for lo in range(0, d_int - 1, rows):
        hi = min(lo + rows, d_int - 1)
        agree = code[lo:hi, None, :] == code[None, lo + 1 :, :]
        # row i is a = lo + i and column j is b = lo + 1 + j: b > a is j >= i
        a, b = np.nonzero(np.triu(agree.any(axis=2)))
        yield a + lo, b + lo + 1, agree[a, b]


def _pair_elements(a, b, keep, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x|O|y> for the normalized (U + U^dag) and i (U - U^dag) of each pair, interleaved.

    ``x`` and ``y`` are amplitudes gathered by ``position``; U is the matrix
    unit of the pair on its kept exterior configurations.
    """
    fwd = np.einsum("pe,pe,pe->p", keep, x[a].conj(), y[b])  # <x|U|y>
    back = np.einsum("pe,pe,pe->p", keep, x[b].conj(), y[a])  # <x|U^dag|y>
    norm = np.sqrt(2.0 * keep.sum(axis=1))
    return (np.column_stack([fwd + back, 1j * (fwd - back)]) / norm[:, None]).ravel()


def _basis_blocks(position: np.ndarray, code: np.ndarray):
    """The support basis in blocks, each a function (x, y) -> <x|O|y> per operator.

    The first block holds the d_int projectors P_a (identity on the exterior),
    the others both Hermitized forms of each kept pair; every operator has unit
    Hilbert-Schmidt norm.  The supports are pairwise disjoint, so the operators
    are orthogonal apart from the projectors, which sum to the identity.
    """
    d_ext = position.shape[1]
    yield lambda x, y: np.sum(x.conj() * y, axis=1) / math.sqrt(d_ext)
    for a, b, keep in _kept_pairs(code):
        yield partial(_pair_elements, a, b, keep)


def _commutant_basis(spec: LatticeSpec, factors: list[int]) -> list[Operator]:
    """Orthonormal Hermitian operators on the given factors commuting with all constraints.

    The operators are read off the support table.  A matrix unit joining
    interior configurations a and b at one exterior configuration commutes
    with every constraint exactly when the two configurations agree in all
    constraint eigenvalues.  Off the diagonal, each pair a < b with at least
    one such exterior configuration gives (U + U^dag) and i (U - U^dag), with
    supports disjoint from all others.  On the diagonal, the projectors P_a are
    orthonormalized in a-space with the identity first; the last one is left
    out, since the identity is their sum.
    """
    dim = spec.flat_dim
    if dim > DENSE_OPERATOR_LIMIT:
        raise ValueError(f"flat dimension {dim} exceeds dense bound {DENSE_OPERATOR_LIMIT}")
    position, code = _support_table(spec, factors)
    d_int, d_ext = position.shape

    seeds = np.concatenate([np.ones((d_int, 1)), np.eye(d_int)[:, :-1]], axis=1)
    q, r = np.linalg.qr(seeds)
    q *= np.sign(np.diag(r))  # the Gram-Schmidt signs: identity first, positive
    ops = []
    for column in q.T:
        diag = np.empty(dim)
        diag[position] = column[:, None] / math.sqrt(d_ext)
        ops.append(Operator(spec.layout, np.diag(diag)))

    for a, b, keep in _kept_pairs(code):
        for i, j, k in zip(a, b, keep):
            rows, cols = position[i, k], position[j, k]
            scale = 1.0 / math.sqrt(2.0 * len(rows))
            for phase in (1.0, 1j):
                entries = np.zeros((dim, dim), dtype=np.complex128)
                entries[rows, cols] = phase * scale
                entries[cols, rows] = np.conj(phase) * scale
                ops.append(Operator(spec.layout, entries))
    return ops


def gauge_invariant_local_basis(
    spec: LatticeSpec, interior: Collection[FactorLabel]
) -> list[Operator]:
    """Orthonormal Hermitian constraint-commuting operators on the interior.

    The interior is a set of ("site", x) / ("link", x) labels and must exclude
    the boundary link; see :func:`maximal_interior`.  The identity comes
    first.  Dense, so bounded by ``DENSE_OPERATOR_LIMIT``;
    :func:`superselection_report` works from the supports instead.
    """
    factors = _interior_factors(spec, interior, allow_boundary=False)
    return _commutant_basis(spec, factors)


def _sector_of(decomp: SectorDecomposition, state: StateVector) -> int:
    """Charge sector of a physical state; errors if support straddles sectors."""
    subspace = decomp.subspace
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError("expected a unit-norm state")
    if subspace.support_violation(state) > _SUPPORT_TOL:
        raise ValueError("state has support outside the physical subspace")
    weights = {
        q: float(np.sum(np.abs(state.amplitudes[ix]) ** 2))
        for q, ix in decomp.sectors.items()
    }
    sector, w = max(weights.items(), key=lambda kv: kv[1])
    if w < 1.0 - _SUPPORT_TOL:
        raise ValueError(f"state is spread over several charge sectors: {weights}")
    return sector


@dataclass(frozen=True)
class SuperselectionReport:
    """Cross-sector matrix elements of a gauge-invariant operator basis."""

    physical_dim: int
    sector_plus: int
    sector_minus: int
    n_operators: int
    max_cross: float
    max_expectation_diff: float
    same_sector: bool
    includes_boundary_link: bool

    @property
    def passed(self) -> bool:
        return (
            not self.same_sector
            and self.max_cross <= CROSS_ELEMENT_TOL
            and self.max_expectation_diff <= CROSS_ELEMENT_TOL
        )

    def as_dict(self) -> dict:
        return {
            "physical_dim": self.physical_dim,
            "sector_plus": self.sector_plus,
            "sector_minus": self.sector_minus,
            "n_operators": self.n_operators,
            "max_cross": self.max_cross,
            "max_expectation_diff": self.max_expectation_diff,
            "same_sector": self.same_sector,
            "includes_boundary_link": self.includes_boundary_link,
        }


def superselection_report(
    spec: LatticeSpec,
    psi_plus: StateVector,
    psi_minus: StateVector,
    include_boundary_link: bool = False,
) -> SuperselectionReport:
    """Probe two charge-sector states with every gauge-invariant interior operator.

    Records the largest cross matrix element |<+|O|->| and the largest
    difference between operator expectations in the equal superposition and in
    the even mixture.  With ``include_boundary_link`` the operator basis is
    extended to the boundary link, which admits string operators that connect
    the sectors; this is the contrast case, not a locality statement.

    The basis is that of :func:`gauge_invariant_local_basis` with the d_int
    projectors P_a in place of their orthonormalized combinations (the same
    span and count), each normalized; its matrix elements are computed from
    the support table in blocks, without dense matrices.
    """
    subspace = physical_subspace(spec)
    decomp = charge_sectors(subspace)
    sector_plus = _sector_of(decomp, psi_plus)
    sector_minus = _sector_of(decomp, psi_minus)
    same_sector = sector_plus == sector_minus

    interior = set(maximal_interior(spec))
    if include_boundary_link:
        interior.add(("link", spec.sites))
    factors = _interior_factors(spec, interior, allow_boundary=include_boundary_link)
    position, code = _support_table(spec, factors)

    plus = psi_plus.amplitudes[position]
    minus = psi_minus.amplitudes[position]
    superpos = (plus + minus) / math.sqrt(2.0)
    n_operators = 0
    max_cross = 0.0
    max_diff = 0.0
    for elements in _basis_blocks(position, code):
        cross = np.abs(elements(plus, minus))
        exp_sup = elements(superpos, superpos).real
        exp_mix = 0.5 * (elements(plus, plus).real + elements(minus, minus).real)
        n_operators += len(cross)
        max_cross = max(max_cross, float(np.max(cross, initial=0.0)))
        max_diff = max(max_diff, float(np.max(np.abs(exp_sup - exp_mix), initial=0.0)))

    return SuperselectionReport(
        physical_dim=subspace.dim,
        sector_plus=sector_plus,
        sector_minus=sector_minus,
        n_operators=n_operators,
        max_cross=max_cross,
        max_expectation_diff=max_diff,
        same_sector=same_sector,
        includes_boundary_link=include_boundary_link,
    )


def charge_phase_action(
    decomp: SectorDecomposition, state: StateVector, theta: float
) -> StateVector:
    """Multiply each charge-q component by exp(i q theta).

    ``theta`` is the product of the unit charge and the asymptotic gauge value,
    so a superposition of charges +-1 picks up the relative phase exp(2i theta)
    while every interior expectation stays untouched.
    """
    subspace = decomp.subspace
    if state.dim != subspace.spec.flat_dim:
        raise ValueError("state dimension does not match the lattice")
    if subspace.support_violation(state) > _SUPPORT_TOL:
        raise ValueError("state has support outside the physical subspace")
    amps = state.amplitudes.copy()
    for q, ix in decomp.sectors.items():
        amps[ix] *= np.exp(1j * q * theta)
    return StateVector(state.layout, amps)
