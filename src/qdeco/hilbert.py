"""States, operators and density matrices on finite tensor-product Hilbert spaces.

States and operators are stored flat; a :class:`TensorLayout` records the
subsystem dimensions, with the leftmost factor slowest-varying in the flat
index (numpy C order).  A :class:`DensityMatrix` is stored as a block on its
support, the flat indices outside which every entry is exactly zero, and
keeps the spectrum that validated it; reduced states come from
``decoherence.reduce_to_apparatus``, which never forms the full matrix.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from ._numpy import np

__all__ = [
    "NormalizationError",
    "TensorLayout",
    "StateVector",
    "Operator",
    "DensityMatrix",
    "basis_state",
    "tensor_product",
    "density_spectrum",
    "spectrum_entropy",
    "von_neumann_entropy",
    "coherence_norm",
    "purity",
    "DENSE_OPERATOR_LIMIT",
]

# Double precision leaves ample headroom at these dimensions.
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_POSITIVITY_TOL = 1e-10
_DIAG_FLOOR = 1e-30
DENSE_OPERATOR_LIMIT = 2048  # largest flat dimension of an explicit dense matrix


class NormalizationError(ValueError):
    """Raised when an operation requires a unit-norm state and the input is not."""


class TensorLayout(namedtuple("TensorLayout", "dims")):
    """Ordered subsystem dimensions locating each factor in the flat index."""

    __slots__ = ()

    def __new__(cls, dims):
        if not all(float(d).is_integer() for d in dims):
            raise ValueError(f"dimensions must be whole numbers, got {dims}")
        checked = tuple(int(d) for d in dims)
        if not checked or any(d < 1 for d in checked):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")
        return super().__new__(cls, checked)

    @property
    def flat_dim(self) -> int:
        return math.prod(self.dims)


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


class StateVector(namedtuple("StateVector", "layout amplitudes")):
    """Complex amplitudes over a tensor-factored space.

    Unit norm is not enforced at construction; operations that need it say so
    and raise :class:`NormalizationError` otherwise.
    """

    __slots__ = ()

    def __new__(cls, layout, amplitudes):
        amplitudes = _as_complex_vector(amplitudes)
        if amplitudes.shape[0] != layout.flat_dim:
            raise ValueError(
                f"amplitude length {amplitudes.shape[0]} does not match "
                f"layout dimension {layout.flat_dim}"
            )
        return super().__new__(cls, layout, amplitudes)

    @property
    def dim(self) -> int:
        return self.layout.flat_dim

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class Operator(namedtuple("Operator", "layout entries")):
    """Square complex matrix on a tensor-factored space."""

    __slots__ = ()

    def __new__(cls, layout, entries):
        entries = _as_complex_matrix(entries)
        if entries.shape[0] != layout.flat_dim:
            raise ValueError(
                f"matrix dimension {entries.shape[0]} does not match "
                f"layout dimension {layout.flat_dim}"
            )
        return super().__new__(cls, layout, entries)


def _check_hermitian(entries: np.ndarray) -> None:
    """Raise unless every matrix of ``entries`` ``(..., d, d)`` is Hermitian within tolerance.

    Non-finite entries are refused first, since no tolerance test catches NaN.
    """
    if not np.isfinite(entries).all():
        raise ValueError("density matrix has non-finite entries")
    # initial= lets an empty stack through
    dev = np.max(np.abs(entries - np.swapaxes(entries, -1, -2).conj()), initial=0.0)
    if dev > _HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: deviation {dev:.3e}")


def density_spectrum(entries: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a density matrix or a stack ``(..., d, d)``, from one ``eigvalsh``.

    Raises :class:`ValueError` unless every matrix is Hermitian, unit-trace and positive.
    """
    _check_hermitian(entries)
    tr = np.trace(entries, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if np.any(off > _TRACE_TOL):
        raise ValueError(f"density matrix trace {np.ravel(tr)[np.argmax(off)]} differs from 1")
    w = np.linalg.eigvalsh(entries)
    lo = float(np.min(w, initial=0.0))
    if lo < -_POSITIVITY_TOL:
        raise ValueError(f"density matrix not positive: min eigenvalue {lo:.3e}")
    return w


class DensityMatrix(namedtuple("DensityMatrix", "layout block support spectrum")):
    """Hermitian, unit-trace, positive matrix (all within fixed tolerances), kept on its support.

    ``block`` holds the rows and columns of the ascending flat indices
    ``support``; every entry outside support x support is exactly zero.  The
    default support is every flat index, so ``DensityMatrix(layout, entries)``
    takes a dense matrix.  ``entries`` scatters the block into a fresh full
    matrix on each access; ``spectrum`` is the read-only ascending spectrum
    that validation computed, padded with zeros to the layout dimension.

    ``factor`` is a matrix M with ``block`` = M M^dag, which only
    ``decoherence.reduce_to_apparatus`` passes.  Unless M has more columns than
    rows, the spectrum is validated on the Gram matrix M^dag M instead: it has
    the same nonzero eigenvalues and the same trace ||M||^2 (Schmidt
    decomposition), and the block is then checked for Hermiticity alone.
    """

    __slots__ = ()

    def __new__(cls, layout: TensorLayout, block, support=None, factor=None):
        # perfbench counts validations through __post_init__
        return super().__new__(cls, layout, block, support, None).__post_init__(factor)

    def __post_init__(self, factor):
        """The record validated: complex block, ascending support and its spectrum."""
        block = _as_complex_matrix(self.block)
        dim, size = self.layout.flat_dim, block.shape[0]
        support = np.arange(dim) if self.support is None else np.asarray(self.support, np.intp)
        if support.shape != (size,):
            raise ValueError(f"matrix dimension {size} does not match support size {support.size}")
        if np.any(np.diff(support) <= 0) or np.any((support < 0) | (support >= dim)):
            raise ValueError(f"support must ascend strictly within layout dimension {dim}")
        if factor is None or factor.shape[1] > size:
            small = density_spectrum(block)
        else:
            _check_hermitian(block)
            small = density_spectrum(factor.conj().T @ factor)
        # sorted after padding: the small spectrum can hold -1e-17 values
        spectrum = np.sort(np.concatenate([small, np.zeros(dim - small.shape[0])]))
        spectrum.flags.writeable = False
        return self._replace(block=block, support=support, spectrum=spectrum)

    def __getnewargs__(self):
        """Copies and unpickled records are rebuilt, and validated, from these."""
        return (self.layout, self.block, self.support)

    @property
    def entries(self) -> np.ndarray:
        full = np.zeros((self.dim, self.dim), dtype=np.complex128)
        full[np.ix_(self.support, self.support)] = self.block
        return full

    @property
    def dim(self) -> int:
        return self.layout.flat_dim


def basis_state(dim: int, index: int) -> StateVector:
    """Single-factor computational basis state |index> of the given dimension."""
    if not (isinstance(index, numbers.Integral) and 0 <= index < dim):
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(TensorLayout((dim,)), amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product a (x) b; layouts concatenate, norms multiply."""
    return StateVector(TensorLayout(a.layout.dims + b.layout.dims), np.kron(a.amplitudes, b.amplitudes))


def spectrum_entropy(p: np.ndarray) -> np.ndarray:
    """-sum(p ln p) over the last axis, in nats (0 ln 0 := 0; a pure state gives +0.0)."""
    p = np.clip(p, 0.0, 1.0)  # drop the [-1e-10, 0) noise that validation lets through
    return 0.0 - np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the validated spectrum ``rho.spectrum``, in nats."""
    return float(spectrum_entropy(rho.spectrum))


def coherence_norm(rho: DensityMatrix) -> float:
    """Largest off-diagonal magnitude relative to its diagonal geometric mean.

    Only rows with a positive diagonal entry take part, and pairs whose
    diagonal product is below 1e-30 are skipped, so exact diagonal matrices
    and matrices with empty branches both give 0.  Only the block is read:
    outside the support the diagonal is 0.
    """
    diag = rho.block.diagonal().real
    rows = np.flatnonzero(diag > 0.0)
    weight = np.outer(diag[rows], diag[rows])
    mask = weight > _DIAG_FLOOR
    np.fill_diagonal(mask, False)
    if not mask.any():
        return 0.0
    kept = rho.block[np.ix_(rows, rows)]
    return float(np.max(np.abs(kept[mask]) / np.sqrt(weight[mask])))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), between 1/dim (maximally mixed) and 1 (pure).

    For a Hermitian rho this is sum_ij |rho_ij|^2 over the block, which needs
    no matrix product.
    """
    return float(np.vdot(rho.block, rho.block).real)
