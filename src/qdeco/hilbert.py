"""Dense complex linear algebra on finite tensor-product Hilbert spaces.

States and operators are stored flat; a :class:`TensorLayout` records the
subsystem dimensions, with the leftmost factor slowest-varying in the flat
index (numpy C order).  Everything here is a pure function over immutable
values; target flat dimensions are a few hundred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "NormalizationError",
    "TensorLayout",
    "StateVector",
    "Operator",
    "DensityMatrix",
    "basis_state",
    "tensor_product",
    "outer_product",
    "partial_trace",
    "density_spectrum",
    "spectrum_entropy",
    "von_neumann_entropy",
    "coherence_norm",
    "purity",
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "EIGEN_RESIDUAL_TOL",
]

# Tolerances: Hermiticity/trace at 1e-10, eigensolver residual 1e-9.
# Double precision leaves ample headroom at these dimensions.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-9
_POSITIVITY_TOL = 1e-10
_DIAG_FLOOR = 1e-30


class NormalizationError(ValueError):
    """Raised when an operation requires a unit-norm state and the input is not."""


@dataclass(frozen=True)
class TensorLayout:
    """Ordered subsystem dimensions locating each factor in the flat index."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def flat_dim(self) -> int:
        return reduce(lambda a, b: a * b, self.dims, 1)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def flat_index(self, multi: Sequence[int]) -> int:
        """Flat index of a multi-index (leftmost factor slowest-varying)."""
        if len(multi) != len(self.dims):
            raise ValueError("multi-index rank does not match layout")
        idx = 0
        for k, d in zip(multi, self.dims):
            if not 0 <= k < d:
                raise ValueError(f"multi-index {tuple(multi)} out of range for dims {self.dims}")
            idx = idx * d + k
        return idx

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= flat < self.flat_dim:
            raise ValueError(f"flat index {flat} out of range for dimension {self.flat_dim}")
        multi = []
        for d in reversed(self.dims):
            multi.append(flat % d)
            flat //= d
        return tuple(reversed(multi))

    def concat(self, other: "TensorLayout") -> "TensorLayout":
        return TensorLayout(self.dims + other.dims)


def _as_complex_vector(amplitudes) -> np.ndarray:
    arr = np.asarray(amplitudes, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"amplitudes must be one-dimensional, got shape {arr.shape}")
    return arr


def _as_complex_matrix(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"entries must be a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a tensor-factored space.

    Unit norm is not enforced at construction; operations that need it say so
    and raise :class:`NormalizationError` otherwise.
    """

    layout: TensorLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _as_complex_vector(self.amplitudes))
        if self.amplitudes.shape[0] != self.layout.flat_dim:
            raise ValueError(
                f"amplitude length {self.amplitudes.shape[0]} does not match "
                f"layout dimension {self.layout.flat_dim}"
            )

    @property
    def dim(self) -> int:
        return self.layout.flat_dim

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        """Inner product with conjugation on self."""
        if self.dim != other.dim:
            raise ValueError("states live in different dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"StateVector(dims={self.layout.dims}, dim={self.dim})"


@dataclass(frozen=True)
class Operator:
    """Square complex matrix on a tensor-factored space."""

    layout: TensorLayout
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_complex_matrix(self.entries))
        if self.entries.shape[0] != self.layout.flat_dim:
            raise ValueError(
                f"matrix dimension {self.entries.shape[0]} does not match "
                f"layout dimension {self.layout.flat_dim}"
            )

    @property
    def dim(self) -> int:
        return self.layout.flat_dim

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= tol)

    def is_unitary(self, tol: float = EIGEN_RESIDUAL_TOL) -> bool:
        eye = np.eye(self.dim)
        return bool(np.max(np.abs(self.entries.conj().T @ self.entries - eye)) <= tol)

    def __repr__(self):
        return f"Operator(dims={self.layout.dims}, dim={self.dim})"


def density_spectrum(entries: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a density matrix or a stack ``(..., d, d)``, from one ``eigvalsh``.

    Raises :class:`ValueError` unless every matrix is Hermitian, unit-trace and positive.
    """
    # initial= lets an empty stack through
    dev = np.max(np.abs(entries - np.swapaxes(entries, -1, -2).conj()), initial=0.0)
    if dev > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: deviation {dev:.3e}")
    tr = np.trace(entries, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if np.any(off > TRACE_TOL):
        raise ValueError(f"density matrix trace {np.ravel(tr)[np.argmax(off)]} differs from 1")
    w = np.linalg.eigvalsh(entries)
    lo = float(np.min(w, initial=0.0))
    if lo < -_POSITIVITY_TOL:
        raise ValueError(f"density matrix not positive: min eigenvalue {lo:.3e}")
    return w


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive matrix (all within fixed tolerances).

    ``spectrum`` is the read-only spectrum that validation computed.
    """

    layout: TensorLayout
    entries: np.ndarray
    spectrum: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_complex_matrix(self.entries))
        if self.entries.shape[0] != self.layout.flat_dim:
            raise ValueError(
                f"matrix dimension {self.entries.shape[0]} does not match "
                f"layout dimension {self.layout.flat_dim}"
            )
        spectrum = density_spectrum(self.entries)
        spectrum.flags.writeable = False
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.layout.flat_dim

    def __repr__(self):
        return f"DensityMatrix(dims={self.layout.dims}, dim={self.dim})"


def basis_state(dim: int, index: int) -> StateVector:
    """Single-factor computational basis state |index> of the given dimension."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(TensorLayout((dim,)), amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product a (x) b; layouts concatenate, norms multiply."""
    return StateVector(a.layout.concat(b.layout), np.kron(a.amplitudes, b.amplitudes))


def outer_product(psi: StateVector) -> DensityMatrix:
    """Projector |psi><psi| as a density matrix; requires unit norm."""
    n = psi.norm()
    if abs(n - 1.0) > HERMITICITY_TOL:
        raise NormalizationError(f"outer_product needs a unit state, got norm {n!r}")
    return DensityMatrix(psi.layout, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def _normalize_keep(keep: Iterable[int], n_factors: int) -> tuple[int, ...]:
    kept = sorted(set(int(k) for k in keep))
    if not kept:
        raise ValueError("keep set must not be empty")
    if kept[0] < 0 or kept[-1] >= n_factors:
        raise ValueError(f"keep indices {kept} out of range for {n_factors} factors")
    return tuple(kept)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every factor not in ``keep``; kept dims stay in original order."""
    dims = rho.layout.dims
    kept = _normalize_keep(keep, len(dims))
    traced = tuple(i for i in range(len(dims)) if i not in kept)
    if not traced:
        return DensityMatrix(rho.layout, rho.entries.copy())

    n = len(dims)
    tensor = rho.entries.reshape(dims + dims)
    # Row axes 0..n-1, column axes n..2n-1; contract each traced pair.
    row = list(range(n))
    col = list(range(n, 2 * n))
    for i in traced:
        col[i] = row[i]
    out_axes = [row[i] for i in kept] + [col[i] for i in kept]
    reduced = np.einsum(tensor, row + col, out_axes)

    kept_dims = tuple(dims[i] for i in kept)
    d = int(np.prod(kept_dims))
    return DensityMatrix(TensorLayout(kept_dims), reduced.reshape(d, d))


def spectrum_entropy(p: np.ndarray) -> np.ndarray:
    """-sum(p ln p) over the last axis, in nats (0 ln 0 := 0)."""
    p = np.clip(p, 0.0, 1.0)  # drop the [-1e-10, 0) noise that validation lets through
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the validated spectrum ``rho.spectrum``, in nats."""
    return float(spectrum_entropy(rho.spectrum))


def coherence_norm(rho: DensityMatrix) -> float:
    """Largest off-diagonal magnitude relative to its diagonal geometric mean.

    Pairs whose diagonal product is below 1e-30 are skipped, so exact
    diagonal matrices and matrices with empty branches both give 0.
    """
    diag = rho.entries.diagonal().real
    weight = np.outer(diag, diag)
    mask = weight > _DIAG_FLOOR
    np.fill_diagonal(mask, False)
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(rho.entries[mask]) / np.sqrt(weight[mask])))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), between 1/dim (maximally mixed) and 1 (pure).

    For a Hermitian rho this is sum_ij |rho_ij|^2, which needs no matrix product.
    """
    e = rho.entries
    return float(np.vdot(e, e).real)
