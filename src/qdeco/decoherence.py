"""System-apparatus-environment decoherence pipeline.

Builds correlated three-party states, reduces them over the environment, and
quantifies how environmental overlaps control the surviving interference
terms.  A central-spin pure-dephasing bath provides a fully solvable dynamical
example: the exact coherence is the product of per-spin cosine overlaps, so
the sum over bath energies can be checked against a closed form at every time.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._numpy import np
from .hilbert import (
    DENSE_OPERATOR_LIMIT,
    DensityMatrix,
    NormalizationError,
    StateVector,
    TensorLayout,
    basis_state,
    density_spectrum,
    spectrum_entropy,
)

__all__ = [
    "CorrelatedStateSpec",
    "SpinBathModel",
    "DephasingCurve",
    "EntropyCheck",
    "equal_overlap_spec",
    "build_correlated_state",
    "reduce_to_apparatus",
    "environment_overlap",
    "spin_bath_coherence",
    "spin_bath_evolve",
    "entropy_curve",
    "binary_entropy",
]

NORM_TOL = 1e-9  # unit norm of a built state
MAX_BATH_SIZE = 12
_PHASE_BLOCK = 2**14  # (time, energy) entries per block of the bath phase table
# The bath phase table costs about 12-18 ns per (time, energy) entry: K = 1427
# distinct energies x T = 100 000 times took 1.6-2.5 s in process on a 2-vCPU
# x86_64 with Python 3.11 and numpy 2.4.  1.5e8 entries therefore take at most
# about 2.6 s, the budget of the ``identity-check`` bound; the largest benchmark
# input, K = 1024 (10 distinct couplings) x 1000 times, is 1.0e6 entries.
_PHASE_ENTRY_BOUND = 150_000_000


def _check_consistent(states: list[StateVector], label: str) -> int:
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise ValueError(f"{label} states have inconsistent dimensions {sorted(dims)}")
    return dims.pop()


class CorrelatedStateSpec(namedtuple(
    "CorrelatedStateSpec", "coefficients system_states apparatus_states environment_states"
)):
    """Branch data for a correlated state sum_n c_n phi_n (x) Phi_n (x) env_n.

    The three state fields are lists of :class:`StateVector`.  Environment
    states need not be orthogonal; the spec is only required to describe a
    normalized total state, which :func:`build_correlated_state` checks on the
    state it builds.
    """

    __slots__ = ()

    def __new__(cls, coefficients, system_states, apparatus_states, environment_states):
        c = np.asarray(coefficients, dtype=np.complex128).ravel()
        n = len(c)
        if n < 1:
            raise ValueError("need at least one branch")
        for label, states in (
            ("system", system_states),
            ("apparatus", apparatus_states),
            ("environment", environment_states),
        ):
            if len(states) != n:
                raise ValueError(
                    f"{label} list length {len(states)} does not match {n} coefficients"
                )
            _check_consistent(states, label)
        return super().__new__(cls, c, system_states, apparatus_states, environment_states)


def equal_overlap_spec(coefficients, overlap: float) -> CorrelatedStateSpec:
    """Branches |n> (x) |n> (x) |env_n> whose environments overlap pairwise by ``overlap``.

    System and apparatus states are the basis states of an n-level factor.  The
    environments are the rows of a factor L of the Gram matrix (1 - s) I + s J,
    L L^T = Gram, taken from its eigendecomposition; they exist exactly when
    that matrix is positive semidefinite, for -1/(n - 1) <= s <= 1.  A spec whose
    (system, apparatus) dimension n^2 exceeds the dense bound is refused on the
    branch count, and a NaN or infinite overlap is refused, before the Gram
    matrix is formed.
    """
    coeffs = np.asarray(coefficients, dtype=np.complex128)
    overlap = float(overlap)
    n = len(coeffs)
    if n < 2:
        raise ValueError("need at least two branches to discuss interference")
    _check_reduced_dim(n * n)
    if math.isfinite(overlap):
        gram = (1.0 - overlap) * np.eye(n) + overlap * np.ones((n, n))
        w, vecs = np.linalg.eigh(gram)
    if not math.isfinite(overlap) or float(np.min(w)) < -1e-12:
        raise ValueError(
            f"overlap {overlap} does not define a valid environment family for {n} branches"
        )
    factor = vecs @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    layout = TensorLayout((n,))
    branches = [basis_state(n, i) for i in range(n)]
    return CorrelatedStateSpec(
        coefficients=coeffs,
        system_states=branches,
        apparatus_states=branches,
        environment_states=[StateVector(layout, row) for row in factor],
    )


def _check_reduced_dim(dim: int):
    """Refuse a (system, apparatus) dimension above ``DENSE_OPERATOR_LIMIT``.

    The state is built on its support rows and the reduced state is kept on
    its support, so no dense matrix of this dimension is formed; for
    ``tripartite`` the n^2 bound guards the size of the zero n^3-amplitude
    state into which :func:`build_correlated_state` scatters its n rows.
    """
    if dim > DENSE_OPERATOR_LIMIT:
        raise ValueError(
            f"reduced state dimension {dim} exceeds dense bound {DENSE_OPERATOR_LIMIT}"
        )


def build_correlated_state(spec: CorrelatedStateSpec) -> StateVector:
    """Assemble sum_n c_n phi_n (x) Phi_n (x) env_n with layout (dim_S, dim_A, dim_E).

    Only the (system, apparatus) rows that some branch reaches are computed:
    the support is every flat (s, a) at which some phi_n[s] Phi_n[a] is
    nonzero, one boolean dim_S x dim_A product.  The branch entries
    c_n phi_n[s] Phi_n[a] on it, an n x |support| matrix, are transposed and
    multiplied by the n x dim_E matrix of environments, and the rows are
    scattered into the zero (dim_S dim_A) x dim_E state.  For n branches
    |n n> that is n rows of the n^2.  A state whose (system, apparatus)
    dimension exceeds the bound of :func:`reduce_to_apparatus` is refused
    before any branch data is stacked.
    Raises :class:`NormalizationError` when the state built from the branch
    data does not have unit norm; non-orthogonal branches are accepted but
    never silently renormalized.
    """
    _check_reduced_dim(spec.system_states[0].dim * spec.apparatus_states[0].dim)
    system, apparatus, environment = (
        np.stack([s.amplitudes for s in states])
        for states in (spec.system_states, spec.apparatus_states, spec.environment_states)
    )
    dim_s, dim_a, dim_e = system.shape[1], apparatus.shape[1], environment.shape[1]
    support = np.flatnonzero((system != 0).T @ (apparatus != 0))
    s, a = np.divmod(support, dim_a)
    rows = (spec.coefficients[:, None] * system[:, s] * apparatus[:, a]).T @ environment
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
        norm = float(np.linalg.norm(rows))
    if not abs(norm**2 - 1.0) <= NORM_TOL:
        raise NormalizationError(
            f"correlated state has norm {norm:.6f}, expected 1; "
            "adjust the coefficients for the given branch overlaps"
        )
    psi = np.zeros((dim_s * dim_a, dim_e), dtype=np.complex128)
    psi[support] = rows
    return StateVector(TensorLayout((dim_s, dim_a, dim_e)), psi.ravel())


def reduce_to_apparatus(psi: StateVector) -> DensityMatrix:
    """Trace the environment out of |Psi><Psi|, keeping the (system, apparatus) pair.

    The state is reshaped into the (dim_S dim_A) x dim_E matrix M, and the
    reduced state is M M^dag: its entries are the overlaps of the environment
    components, so the projector |Psi><Psi| is never formed.  Its support is
    the rows of M that hold a nonzero amplitude (exact zeros are structural,
    so no tolerance is needed), and only the block M_S M_S^dag on it is formed:
    n x n for n branches |n n>, not n^2 x n^2.  M_S is passed on as the factor
    of the :class:`DensityMatrix`, which takes the spectrum from whichever of
    the block and M_S^dag M_S is smaller.  A (system, apparatus) dimension
    above ``DENSE_OPERATOR_LIMIT`` is refused before the block is formed.
    """
    if len(psi.layout.dims) != 3:
        raise ValueError(
            f"expected a (system, apparatus, environment) layout, got {psi.layout.dims}"
        )
    dim_s, dim_a, dim_e = psi.layout.dims
    dim = dim_s * dim_a
    _check_reduced_dim(dim)
    m = psi.amplitudes.reshape(dim, dim_e)
    support = np.flatnonzero(np.any(m != 0, axis=1))
    m_s = m[support]
    return DensityMatrix(TensorLayout((dim_s, dim_a)), m_s @ m_s.conj().T, support, factor=m_s)


def environment_overlap(spec: CorrelatedStateSpec, n: int, m: int) -> complex:
    """Inner product <env_n|env_m> (conjugation on the first argument)."""
    n_branches = len(spec.coefficients)
    if not (0 <= n < n_branches and 0 <= m < n_branches):
        raise ValueError(f"branch indices ({n}, {m}) out of range for {n_branches} branches")
    return spec.environment_states[n].overlap(spec.environment_states[m])


class SpinBathModel(namedtuple("SpinBathModel", "bath_size couplings")):
    """Central qubit (|0> + |1>)/sqrt(2) dephased by ``bath_size`` spins prepared in |+>.

    ``couplings`` are angular frequencies g_k (natural units); the interaction
    is sigma_z^sys (x) sum_k (g_k/2) sigma_z^(k), so the system populations are
    frozen at 1/2 and only the off-diagonal coherence evolves.  This is the
    model of W. H. Zurek, Phys. Rev. D 26, 1862 (1982); its normalized coherence
    does not depend on the system weights, so the system state is fixed.
    """

    __slots__ = ()

    def __new__(cls, bath_size, couplings):
        if bath_size < 1:
            raise ValueError("bath_size must be >= 1")
        g = np.asarray(couplings, dtype=np.float64).ravel()
        if g.shape[0] != bath_size:
            raise ValueError(f"need {bath_size} couplings, got {g.shape[0]}")
        if not np.all(np.isfinite(g)):
            raise ValueError("couplings must be finite")
        return super().__new__(cls, bath_size, g)


class DephasingCurve(namedtuple("DephasingCurve", "times coherence entropy")):
    """Time series of system coherence |r(t)| and entropy (nats)."""

    __slots__ = ()

    def __new__(cls, times, coherence, entropy):
        t = np.asarray(times, dtype=np.float64).ravel()
        c = np.asarray(coherence, dtype=np.float64).ravel()
        s = np.asarray(entropy, dtype=np.float64).ravel()
        if not (t.shape == c.shape == s.shape):
            raise ValueError("times, coherence and entropy must have equal lengths")
        if not np.all((c >= 0.0) & (c <= 1.0 + 1e-12)):
            raise ValueError("coherence values must lie in [0, 1]")
        if not np.all((s >= -1e-12) & (s <= math.log(2) + 1e-9)):
            raise ValueError("entropy values must lie in [0, ln 2]")
        return super().__new__(cls, t, c, s)


def _checked_times(model: SpinBathModel, t) -> np.ndarray:
    """``t`` as float64, refused if not finite, if negative or if a bath phase would overflow.

    Every bath energy is at most E_max = N max|g| / 2 in size, so every phase
    (2 E_j t, or g_k t in the closed form) is finite when 2 t_max E_max is.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("times must be finite")
    if np.any(t_arr < 0):
        raise ValueError("times must be nonnegative")
    e_max = model.bath_size * (float(np.max(np.abs(model.couplings))) / 2.0)
    if not math.isfinite(2.0 * float(np.max(t_arr, initial=0.0)) * e_max):
        raise ValueError("bath phase overflows: t_max N max|g| is not finite")
    return t_arr


def spin_bath_coherence(model: SpinBathModel, t):
    """Closed-form coherence prod_k |cos(g_k t)| of the central qubit.

    A scalar time gives a ``float``; an array of times gives an array of the
    same shape.
    """
    t_arr = _checked_times(model, t)
    r = np.prod(np.abs(np.cos(np.multiply.outer(t_arr, model.couplings))), axis=-1)
    return float(r) if t_arr.ndim == 0 else r


def _bath_energies(model: SpinBathModel) -> np.ndarray:
    """Diagonal of sum_k (g_k/2) sigma_z^(k) over the 2^N bath basis."""
    energies = np.zeros(1)
    for g in model.couplings:
        energies = np.add.outer(energies, np.array([g / 2.0, -g / 2.0])).ravel()
    return energies


def _bath_overlap(model: SpinBathModel, times: np.ndarray) -> np.ndarray:
    """sum_j w_j exp(-2i E_j t) at every time, over the distinct bath energies E_j.

    ``w_j`` is the share of the 2^N bath basis states with energy E_j.  Flipping
    every bath spin maps E to -E, so the energies come in +- pairs of equal
    weight, the sine sum vanishes and the overlap is the real sum of
    w_j cos(2 E_j t).  The phase table is built ``_PHASE_BLOCK // K`` times at
    once (one time at least) for K distinct energies, and a table of more than
    ``_PHASE_ENTRY_BOUND`` entries is refused before it is begun.
    """
    energies, counts = np.unique(_bath_energies(model), return_counts=True)
    if len(energies) * len(times) > _PHASE_ENTRY_BOUND:
        raise ValueError(
            f"{len(energies)} distinct bath energies x {len(times)} times"
            f" exceeds bound {_PHASE_ENTRY_BOUND}"
        )
    weights = counts / counts.sum()
    rows = max(1, _PHASE_BLOCK // len(energies))
    overlap = np.empty(len(times))
    for start in range(0, len(times), rows):
        phase = np.multiply.outer(-2.0 * times[start:start + rows], energies)
        overlap[start:start + rows] = np.cos(phase) @ weights
    return overlap


def spin_bath_evolve(model: SpinBathModel, times) -> DephasingCurve:
    """Reduced system qubit of (|0> + |1>)/sqrt(2) (x)_k |+>, evolved exactly.

    The coupling is diagonal, so rho(t) = [[1, r], [r, 1]] / 2 with the bath
    overlap r(t) = sum_j w_j exp(-2i E_j t), summed over the distinct energies
    E_j of the 2^N bath basis states, each weighted by the share w_j of states
    that have it; r is real (see :func:`_bath_overlap`).  Returns the coherence
    |r| and the entropy of the validated spectra.
    """
    if model.bath_size > MAX_BATH_SIZE:
        raise ValueError(
            f"bath_size {model.bath_size} exceeds the 2^N bath-energy table bound {MAX_BATH_SIZE}"
        )
    t_arr = _checked_times(model, times).ravel()

    overlap = _bath_overlap(model, t_arr)
    rho = np.full((len(t_arr), 2, 2), 0.5, dtype=np.complex128)
    rho[:, 0, 1] = rho[:, 1, 0] = 0.5 * overlap
    return DephasingCurve(t_arr, np.abs(overlap), spectrum_entropy(density_spectrum(rho)))


def binary_entropy(p):
    """h(p) = -p ln p - (1-p) ln(1-p) in nats, and 0 for p outside (0, 1).

    A scalar gives a ``float``; an array gives an array of the same shape.  A
    NaN, which lies neither inside nor outside, is refused; +-inf give 0.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    if np.isnan(p_arr).any():
        raise ValueError("probability is not a number")
    inside = (p_arr > 0.0) & (p_arr < 1.0)
    q = np.where(inside, p_arr, 0.5)
    h = np.where(inside, -q * np.log(q) - (1.0 - q) * np.log(1.0 - q), 0.0)
    return float(h) if p_arr.ndim == 0 else h


class EntropyCheck(namedtuple("EntropyCheck", "max_deviation monotone_in_coherence")):
    """Result of validating a dephasing curve against the closed entropy form."""

    __slots__ = ()


def entropy_curve(curve: DephasingCurve) -> EntropyCheck:
    """Check S(t) = h((1 - |r(t)|)/2) pointwise.

    Also verifies, by sorting the samples, that entropy decreases whenever
    coherence increases.
    """
    if len(curve.times) == 0:
        raise ValueError("curve is empty")
    expected = binary_entropy((1.0 - curve.coherence) / 2.0)
    max_dev = float(np.max(np.abs(expected - curve.entropy)))

    order = np.argsort(curve.coherence)
    s_sorted = curve.entropy[order]
    # Allow numerical wiggle when neighbouring coherences are nearly equal.
    monotone = bool(np.all(np.diff(s_sorted) <= 1e-9))
    return EntropyCheck(max_dev, monotone)
