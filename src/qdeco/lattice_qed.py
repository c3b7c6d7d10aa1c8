"""Exact treatment of a 1D truncated-link electrodynamics model.

Each of the N sites carries a static charge q_x in {-1, 0, +1}; link x (to the
right of site x) carries an integer electric field E_x in [-e_max, e_max].
The field on the fictitious link 0 is a fixed classical boundary value, and
link N plays the role of the far boundary: the total charge is read off as
boundary flux, E_N minus the left value.

The per-site divergence constraints are diagonal in the configuration basis,
so the physical subspace is found by exhaustive enumeration, and all gauge
identities hold to machine precision.  Diagonal operators (constraints,
generator, charge) are returned as their diagonals.  Each spec is enumerated
once: its charges, fields and divergence eigenvalues are kept in a read-only
table, at most about 1.9 MB per spec under ``ENUMERATION_LIMIT`` and at most
four specs (about 7.7 MB) at a time, and every diagonal is read from it.
Public functions return fresh arrays, never the table's own.

Gauge-invariant operators on an interior are worked out from their supports.
Splitting every configuration into an interior part a and an exterior part e,
a matrix unit |(a, e)><(b, e)| commutes with all constraints exactly when the
two configurations agree in every divergence eigenvalue.  Each divergence
E_x - E_{x-1} - q_x is linear and each of its variables is an interior or an
exterior factor (E_0, the left field, is a constant), so it is a sum of an
interior and an exterior term: a and b agree at one e exactly when they agree
at every e.  One key per interior configuration, its packed divergences at the
first exterior configuration, therefore decides every pair, and
``_support_table`` is the one place that finds the pairs: it returns the index
table together with every a < b of equal keys, from one stable sort of the
keys.  The units U = sum_e |(a, e)><(b, e)| of the pairs have pairwise
disjoint supports, so one orthonormal basis of the commutant is the normalized
projectors P_a, first, followed by the Hermitized U of each pair; no
orthonormalization is needed.  The superselection report evaluates that basis
on index tables, and the dense basis lists the same operators in the same
order, each written by one scatter.  The string operator is an index map, so
neither the report nor the string builds a flat_dim x flat_dim matrix.

Every index map is a view of one index grid, the flat indices reshaped to the
factor dimensions (the C-order layout): the interior/exterior table is the
grid with the interior factors transposed first, and the string maps the grid
cut short by one value on each raised factor to the same cut one value up.
``_factor_of`` is the one place where labels meet factors: it gives each
("site", x) and ("link", x) its factor in that layout, and interiors and the
string's raised factors are read from it.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Collection
from functools import lru_cache

from ._numpy import np
from .hilbert import DENSE_OPERATOR_LIMIT, Operator, StateVector, TensorLayout

__all__ = [
    "LatticeSpec",
    "GaugeFunction",
    "PhysicalSubspace",
    "SectorDecomposition",
    "SuperselectionReport",
    "gauss_diagonal",
    "physical_subspace",
    "charge_sectors",
    "sector_state",
    "gauge_generator_diagonal",
    "boundary_decomposition_diagonals",
    "total_charge_diagonal",
    "wilson_line",
    "string_contrast",
    "maximal_interior",
    "gauge_invariant_local_basis",
    "superselection_report",
    "charge_phase_action",
]

ENUMERATION_LIMIT = 20000
_SUPPORT_TOL = 1e-12
_TABLE_CACHE_SIZE = 4  # specs whose configuration tables are kept

FactorLabel = tuple[str, int]


class LatticeSpec(namedtuple("LatticeSpec", "sites e_max left_field")):
    """Model definition: N sites, field truncation, fixed left boundary field.

    Whatever enumerates the configurations or builds dense operators first
    admits the flat dimension through :meth:`checked_flat_dim`.
    """

    __slots__ = ()

    def __new__(cls, sites, e_max, left_field=0):
        params = (sites, e_max, left_field)
        if not all(isinstance(v, numbers.Integral) for v in params):
            raise ValueError(f"sites, e_max and left_field must be integers: {params}")
        if sites < 1:
            raise ValueError("need at least one site")
        if e_max < 1:
            raise ValueError("field truncation must be >= 1")
        if abs(left_field) > e_max:
            raise ValueError(
                f"left boundary field {left_field} outside truncation [-{e_max}, {e_max}]"
            )
        return super().__new__(cls, sites, e_max, left_field)

    @property
    def link_dim(self) -> int:
        return 2 * self.e_max + 1

    @property
    def flat_dim(self) -> int:
        return 3**self.sites * self.link_dim**self.sites

    def checked_flat_dim(self, bound: int, name: str) -> int:
        """``flat_dim``, or a refusal that names the ``name`` bound it exceeds.

        The exact integer has N log10(3(2e+1)) digits, so far over the bound,
        tested as N ln(3(2e+1)) > ln(bound) + 1, the refusal names the power
        ``(3(2e+1))^N`` instead: it is neither formed nor printed, and a
        refusal costs microseconds at any N.
        """
        if self.sites * math.log(3 * self.link_dim) > math.log(bound) + 1:
            dim = f"{3 * self.link_dim}^{self.sites}"
        elif self.flat_dim <= bound:
            return self.flat_dim
        else:
            dim = self.flat_dim
        raise ValueError(f"flat dimension {dim} exceeds {name} bound {bound}")

    @property
    def layout(self) -> TensorLayout:
        # Site charge factors first, then link field factors; configurations
        # are therefore ordered lexicographically in (q_1..q_N, E_1..E_N).
        return TensorLayout((3,) * self.sites + (self.link_dim,) * self.sites)

    def _check_site(self, x: int):
        if not 1 <= x <= self.sites:
            raise ValueError(f"site/link index {x} out of range 1..{self.sites}")


class GaugeFunction(namedtuple("GaugeFunction", "values left_value asymptotic_value")):
    """Per-site gauge parameters plus the two boundary values."""

    __slots__ = ()

    def __new__(cls, values, left_value=0.0, asymptotic_value=0.0):
        v = np.asarray(values, dtype=np.float64).ravel()
        if not np.all(np.isfinite(v)) or not (
            math.isfinite(left_value) and math.isfinite(asymptotic_value)
        ):
            raise ValueError("gauge function values must be finite")
        return super().__new__(cls, v, left_value, asymptotic_value)


class _ConfigTable(namedtuple("_ConfigTable", "charges fields divergence")):
    """Every configuration of one spec, in flat-index order; read-only float64 arrays.

    ``charges`` and ``fields`` hold q_1..q_N and E_1..E_N, and ``divergence``
    holds E_x - E_{x-1} - q_x per site (E_0 = left field); each has shape
    (flat_dim, N).  The values are small integers, exact in float64; keeping
    them as floats spares every product with a float vector a cast of the table.
    """

    __slots__ = ()


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _config_table(spec: LatticeSpec) -> _ConfigTable:
    """The configuration table of a spec, enumerated on the first call only.

    Specs beyond ``ENUMERATION_LIMIT`` are refused by
    :meth:`LatticeSpec.checked_flat_dim` on every call, since
    ``lru_cache`` stores no exception: a refusal is never cached.  The bound
    allows at most N = 4 sites, so one table takes at most 20 000 x 4 x 3 x 8 B,
    about 1.9 MB.
    """
    spec.checked_flat_dim(ENUMERATION_LIMIT, "enumeration")
    n = spec.sites
    idx = np.unravel_index(np.arange(spec.flat_dim), spec.layout.dims)
    charges = np.stack([idx[x] - 1 for x in range(n)], axis=1).astype(np.float64)
    fields = np.stack([idx[n + x] - spec.e_max for x in range(n)], axis=1).astype(np.float64)
    divergence = np.diff(fields, axis=1, prepend=spec.left_field) - charges
    table = _ConfigTable(charges, fields, divergence)
    for array in table:
        array.flags.writeable = False
    return table


def gauss_diagonal(spec: LatticeSpec, x: int) -> np.ndarray:
    """Eigenvalues of the site-x divergence E_x - E_{x-1} - q_x (E_0 = left field)."""
    spec._check_site(x)
    return _config_table(spec).divergence[:, x - 1].copy()


class PhysicalSubspace(namedtuple("PhysicalSubspace", "spec basis configurations")):
    """Configurations annihilated by every divergence constraint.

    ``basis`` holds their flat indices, ascending, and ``configurations`` the
    matching rows (q_1..q_N, E_1..E_N).
    """

    __slots__ = ()

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

    def support_violation(self, state: StateVector) -> float:
        """Total weight of a state outside the physical subspace."""
        mask = np.ones(self.spec.flat_dim, dtype=bool)
        mask[self.basis] = False
        return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def physical_subspace(spec: LatticeSpec) -> PhysicalSubspace:
    """Brute-force filter of the configuration basis by all constraints."""
    table = _config_table(spec)
    basis = np.nonzero(np.all(table.divergence == 0, axis=1))[0]
    configurations = np.concatenate(
        [table.charges[basis], table.fields[basis]], axis=1
    ).astype(np.int64)
    return PhysicalSubspace(spec, basis, configurations)


class SectorDecomposition(namedtuple("SectorDecomposition", "subspace sectors")):
    """Partition of the physical basis by total boundary-flux charge.

    ``sectors`` maps each charge to the flat indices of its configurations.
    """

    __slots__ = ()

    def charges(self) -> list[int]:
        return sorted(self.sectors)

    def sector_sizes(self) -> dict[int, int]:
        return {q: len(ix) for q, ix in sorted(self.sectors.items())}


def charge_sectors(subspace: PhysicalSubspace) -> SectorDecomposition:
    """Group the physical basis by its :func:`total_charge_diagonal` value."""
    charge_of = total_charge_diagonal(subspace.spec)[subspace.basis]
    # with an inverse, np.unique does not import numpy.ma, as its plain form does
    charges, sector_of = np.unique(charge_of, return_inverse=True)
    sectors = {int(q): subspace.basis[sector_of == i] for i, q in enumerate(charges)}
    return SectorDecomposition(subspace, sectors)


def sector_state(decomp: SectorDecomposition, q: int) -> StateVector:
    """Equal-weight superposition of the physical configurations of charge ``q``."""
    if q not in decomp.sectors:
        raise ValueError(f"no charge-{q} sector; the charges are {decomp.charges()}")
    spec = decomp.subspace.spec
    indices = decomp.sectors[q]
    amps = np.zeros(spec.flat_dim, dtype=np.complex128)
    amps[indices] = 1.0 / math.sqrt(len(indices))
    return StateVector(spec.layout, amps)


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
    charges, fields, _ = _config_table(spec)
    xi_ext = np.append(v, xi.asymptotic_value)
    diff = xi_ext[1:] - v  # xi_{x+1} - xi_x per link
    diag = fields @ diff + charges @ v
    diag += spec.left_field * (v[0] - xi.left_value)
    return diag


def boundary_decomposition_diagonals(
    spec: LatticeSpec, xi: GaugeFunction
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the surface and bulk parts of the gauge generator.

    Surface: asymptotic value times the last-link field minus the left-value
    times the fixed boundary field.  Bulk: minus the xi-weighted sum of the
    divergence constraints.  Their sum reproduces the stencil form exactly.
    """
    v = _gauge_arrays(spec, xi)
    _, fields, divergence = _config_table(spec)
    surface = xi.asymptotic_value * fields[:, -1] - xi.left_value * spec.left_field
    return surface, -(divergence @ v)


def total_charge_diagonal(spec: LatticeSpec) -> np.ndarray:
    """Boundary flux E_N minus the fixed left field, per configuration."""
    return _config_table(spec).fields[:, -1] - spec.left_field


def _factor_of(spec: LatticeSpec) -> dict[FactorLabel, int]:
    """The tensor factor of each ("site", x) and ("link", x), x = 1..N.

    Site charges come first, then link fields: the C-order layout of
    :attr:`LatticeSpec.layout`.
    """
    labels = [(kind, x) for kind in ("site", "link") for x in range(1, spec.sites + 1)]
    return {label: f for f, label in enumerate(labels)}


def _index_grid(spec: LatticeSpec) -> np.ndarray:
    """Flat configuration indices laid out on the factor dimensions (C order)."""
    return np.arange(spec.flat_dim).reshape(spec.layout.dims)


def _wilson_map(spec: LatticeSpec, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The string operator from site x as a map of flat indices ``src -> dst``.

    The string raises q_x and the fields E_x..E_N by one: on the index grid,
    ``src`` is the grid cut short by one value on each raised factor and
    ``dst`` the same cut shifted up by one.  Configurations at the truncation
    edge (q_x = +1 or some E_y = e_max on the string) have no image and are
    left out of ``src``; ``src`` is ascending.
    """
    spec._check_site(x)
    factor_of = _factor_of(spec)
    raised = [factor_of["site", x]] + [factor_of["link", y] for y in range(x, spec.sites + 1)]
    grid = _index_grid(spec)
    lower = [slice(None)] * grid.ndim
    upper = list(lower)
    for f in raised:
        lower[f], upper[f] = slice(None, -1), slice(1, None)
    return grid[tuple(lower)].ravel(), grid[tuple(upper)].ravel()


def wilson_line(spec: LatticeSpec, x: int) -> Operator:
    """String operator from site x to the right boundary.

    Raises q_x by one and every link field on the string (links x..N) by one;
    matrix elements leaving the truncated ranges are dropped, so states at the
    truncation edge are annihilated.  :func:`string_contrast` applies the same
    string to amplitudes as an index map, without the dense matrix.
    """
    dim = spec.checked_flat_dim(DENSE_OPERATOR_LIMIT, "dense")
    src, dst = _wilson_map(spec, x)
    entries = np.zeros((dim, dim), dtype=np.complex128)
    entries[dst, src] = 1.0
    return Operator(spec.layout, entries)


def string_contrast(decomp: SectorDecomposition) -> float:
    """Largest |<hi|W_x|lo>| over the string operators W_x of x = 1..N.

    ``lo`` and ``hi`` are the :func:`sector_state` of the lowest charge q and of
    q + 1.  The charges always form an interval of at least two integers:
    |left field| <= e_max and e_max >= 1 give E_1 = left + q_1 two values or
    more, and each further link moves the field by -1, 0 or +1 inside the
    truncation.  A string reaching the boundary raises the charge by one, so it
    connects the two sectors, which no interior operator does.
    """
    spec = decomp.subspace.spec
    q = decomp.charges()[0]
    lo = sector_state(decomp, q).amplitudes
    hi = sector_state(decomp, q + 1).amplitudes
    contrast = 0.0
    for x in range(1, spec.sites + 1):
        src, dst = _wilson_map(spec, x)
        contrast = max(contrast, abs(np.vdot(hi[dst], lo[src])))
    return contrast


def maximal_interior(spec: LatticeSpec) -> frozenset[FactorLabel]:
    """All sites and all links except the boundary link N."""
    return frozenset(_factor_of(spec)) - {("link", spec.sites)}


def _interior_factors(spec: LatticeSpec, interior: Collection[FactorLabel]) -> list[int]:
    """The sorted factors of an interior's labels, read from :func:`_factor_of`.

    Refused in this order: the boundary link, a label that names no factor
    (labels are compared, not hashed, so a list is unknown, not a TypeError),
    and an empty interior.
    """
    factor_of = _factor_of(spec)
    if ("link", spec.sites) in interior:
        raise ValueError("interior must not contain the boundary link")
    for label in interior:
        if label not in list(factor_of):
            raise ValueError(f"unknown factor label {label!r}")
    if not interior:
        raise ValueError("interior must not be empty")
    return sorted({factor_of[label] for label in interior})


def _support_table(spec: LatticeSpec, factors: list[int]) -> tuple[np.ndarray, ...]:
    """Flat indices split by the given support, and the interior pairs the constraints keep.

    Returns ``position``, of shape (d_int, d_ext), and the pairs ``(a, b)``:
    ``position[a, e]`` is the flat index of interior configuration a (over the
    given factors) joined to exterior configuration e (over the others), and
    the pairs are every a < b, ascending in (a, b), whose (a, e) and (b, e)
    agree in every constraint.  Each divergence is a sum of an interior and an
    exterior term, so they agree at one e exactly when they agree at every e,
    and one key per interior row, its N divergences at e = 0 packed into one
    integer, decides every pair.  One stable sort puts equal keys into runs
    with a ascending; the pairs of a run are its entries k = 1, 2, ... places
    apart, until no run is that long, so each pair is found exactly once.
    """
    grid = _index_grid(spec)
    exterior = [f for f in range(grid.ndim) if f not in factors]
    d_int = math.prod(grid.shape[f] for f in factors)
    position = grid.transpose([*factors, *exterior]).reshape(d_int, -1)

    reach = 2 * spec.e_max + 1  # |E_x - E_{x-1} - q_x| <= 2 e_max + 1
    shifted = (_config_table(spec).divergence[position[:, 0]] + reach).astype(np.int64)
    key = np.ravel_multi_index(shifted.T, (2 * reach + 1,) * spec.sites)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    ids = [np.empty(0, dtype=order.dtype)]
    for k in range(1, d_int):
        same = ranked[k:] == ranked[:-k]
        if not same.any():
            break
        ids.append(order[:-k][same] * d_int + order[k:][same])
    return (position, *np.divmod(np.sort(np.concatenate(ids)), d_int))


def _basis_elements(a, b, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x|O|y> for every operator O of the support basis, in order.

    ``x`` and ``y`` are amplitudes gathered by ``position``, and ``(a, b)`` are
    the kept pairs, both from :func:`_support_table`.  First the d_int
    projectors P_a (identity on the exterior), then the normalized (U + U^dag)
    and i (U - U^dag) of each pair, interleaved, U being the matrix unit of the
    pair over all d_ext exterior configurations.  Every operator has unit
    Hilbert-Schmidt norm.  The supports are pairwise disjoint, so the
    operators are orthonormal; sqrt(d_ext) times the sum of the projectors is
    the identity.
    """
    d_ext = x.shape[1]
    projectors = np.sum(x.conj() * y, axis=1) / math.sqrt(d_ext)
    fwd = np.einsum("pe,pe->p", x[a].conj(), y[b])  # <x|U|y>
    back = np.einsum("pe,pe->p", x[b].conj(), y[a])  # <x|U^dag|y>
    pairs = np.column_stack([fwd + back, 1j * (fwd - back)]) / math.sqrt(2.0 * d_ext)
    return np.concatenate([projectors, pairs.ravel()])


def _commutant_basis(spec: LatticeSpec, factors: list[int]) -> list[Operator]:
    """The operators of :func:`_basis_elements` as dense matrices, in the same order.

    Each is v U + conj(v) U^dag for a unit U = sum over ``rows``, ``cols`` of
    |row><col|, written by assignment: first the d_int projectors P_a
    (rows == cols, v = 1/sqrt(d_ext), written once), then the units of each
    kept pair with v = 1 and v = i, both over sqrt(2 d_ext).
    """
    dim = spec.checked_flat_dim(DENSE_OPERATOR_LIMIT, "dense")
    position, a, b = _support_table(spec, factors)
    d_ext = position.shape[1]
    scale = 1.0 / math.sqrt(2.0 * d_ext)
    units = [(rows, rows, 1.0 / math.sqrt(d_ext)) for rows in position]
    units += [(position[i], position[j], v) for i, j in zip(a, b) for v in (scale, 1j * scale)]
    ops = []
    for rows, cols, value in units:
        entries = np.zeros((dim, dim), dtype=np.complex128)
        entries[rows, cols] = value
        entries[cols, rows] = np.conj(value)
        ops.append(Operator(spec.layout, entries))
    return ops


def gauge_invariant_local_basis(
    spec: LatticeSpec, interior: Collection[FactorLabel]
) -> list[Operator]:
    """Orthonormal Hermitian constraint-commuting operators on the interior.

    The interior is a set of ("site", x) / ("link", x) labels and must exclude
    the boundary link; see :func:`maximal_interior`.  The basis is the one
    :func:`superselection_report` evaluates, in the same order: first the
    d_int interior projectors P_a, each divided by sqrt(d_ext) (so sqrt(d_ext)
    times their sum is the identity), then both Hermitized units of each pair.
    Dense, so bounded by ``DENSE_OPERATOR_LIMIT``.
    """
    factors = _interior_factors(spec, interior)
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


class SuperselectionReport(namedtuple(
    "SuperselectionReport",
    "physical_dim sector_plus sector_minus n_operators max_cross max_expectation_diff",
)):
    """Cross-sector matrix elements of a gauge-invariant operator basis."""

    __slots__ = ()


def superselection_report(
    spec: LatticeSpec,
    psi_plus: StateVector,
    psi_minus: StateVector,
    include_boundary_link: bool = False,
) -> SuperselectionReport:
    """Probe two charge-sector states with every gauge-invariant interior operator.

    Records the largest cross matrix element |<+|O|->| and the largest
    difference between operator expectations in the equal superposition and in
    the even mixture.  For a Hermitian O and s = (psi_+ + psi_-)/sqrt(2) that
    difference is <s|O|s> - (<+|O|+> + <-|O|->)/2 = Re <+|O|->, so one
    evaluation of the basis on (psi_+, psi_-) gives both numbers.  With
    ``include_boundary_link`` the operator basis is extended to the boundary
    link, which admits string operators that connect the sectors; this is the
    contrast case, not a locality statement.

    The basis is that of :func:`gauge_invariant_local_basis`; its matrix
    elements are computed from the support table, without dense matrices.
    """
    subspace = physical_subspace(spec)
    decomp = charge_sectors(subspace)
    sector_plus = _sector_of(decomp, psi_plus)
    sector_minus = _sector_of(decomp, psi_minus)

    # every site and link factor, the boundary link (the last factor) only on request
    factors = list(range(2 * spec.sites if include_boundary_link else 2 * spec.sites - 1))
    position, a, b = _support_table(spec, factors)
    cross = _basis_elements(a, b, psi_plus.amplitudes[position], psi_minus.amplitudes[position])

    return SuperselectionReport(
        physical_dim=subspace.dim,
        sector_plus=sector_plus,
        sector_minus=sector_minus,
        n_operators=len(cross),
        max_cross=float(np.max(np.abs(cross))),
        max_expectation_diff=float(np.max(np.abs(cross.real))),
    )


def charge_phase_action(
    decomp: SectorDecomposition, state: StateVector, theta: float
) -> StateVector:
    """Multiply each charge-q component by exp(i q theta).

    ``theta`` is the product of the unit charge and the asymptotic gauge value,
    so a superposition of charges +-1 picks up the relative phase exp(2i theta)
    while every interior expectation stays untouched.
    """
    if not math.isfinite(theta):
        raise ValueError(f"phase angle theta must be finite, got {theta!r}")
    subspace = decomp.subspace
    if state.dim != subspace.spec.flat_dim:
        raise ValueError("state dimension does not match the lattice")
    if subspace.support_violation(state) > _SUPPORT_TOL:
        raise ValueError("state has support outside the physical subspace")
    amps = state.amplitudes.copy()
    for q, ix in decomp.sectors.items():
        amps[ix] *= np.exp(1j * q * theta)
    return StateVector(state.layout, amps)
