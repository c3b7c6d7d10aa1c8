"""Brute-force reference implementations used only by the tests.

Everything here is written the slow, obviously-correct way (explicit index
loops, kron-built matrices) so the fast library paths are checked against an
independent computation.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np


def brute_force_gauss_kernel(sites: int, e_max: int, left_field: int) -> set[tuple[int, ...]]:
    """All (q_1..q_N, E_1..E_N) tuples solving every divergence constraint."""
    solutions = set()
    for qs in itertools.product((-1, 0, 1), repeat=sites):
        for es in itertools.product(range(-e_max, e_max + 1), repeat=sites):
            left = left_field
            ok = True
            for q, e in zip(qs, es):
                if e - left - q != 0:
                    ok = False
                    break
                left = e
            if ok:
                solutions.add(qs + es)
    return solutions


def brute_partial_trace(entries: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit multi-index summation."""
    dims = tuple(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    d_out = int(np.prod(kept_dims))
    out = np.zeros((d_out, d_out), dtype=np.complex128)

    def flat(multi):
        idx = 0
        for k, d in zip(multi, dims):
            idx = idx * d + k
        return idx

    def flat_kept(multi):
        idx = 0
        for k, d in zip(multi, kept_dims):
            idx = idx * d + k
        return idx

    for row in itertools.product(*[range(d) for d in dims]):
        for col in itertools.product(*[range(d) for d in dims]):
            if any(row[i] != col[i] for i in traced):
                continue
            r = flat_kept([row[i] for i in keep])
            c = flat_kept([col[i] for i in keep])
            out[r, c] += entries[flat(row), flat(col)]
    return out


def brute_reduced_state(amplitudes: np.ndarray, dims) -> np.ndarray:
    """(system, apparatus) state of a pure three-factor state, by the dense route.

    Forms the projector |psi><psi| with ``np.outer`` and traces the last factor
    out with :func:`brute_partial_trace`.
    """
    projector = np.outer(amplitudes, np.conj(amplitudes))
    return brute_partial_trace(projector, dims, (0, 1))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def direct_entropy(eigenvalues) -> float:
    return float(-sum(w * math.log(w) for w in eigenvalues if w > 0))


def kron_chain(factors) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def dephasing_hamiltonian(couplings) -> np.ndarray:
    """Dense H = sigma_z^sys (x) sum_k (g_k/2) sigma_z^(k), built via kron sums."""
    sz = np.diag([1.0, -1.0]).astype(np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    n = len(couplings)
    bath = np.zeros((2**n, 2**n), dtype=np.complex128)
    for k, g in enumerate(couplings):
        factors = [eye] * n
        factors[k] = sz
        bath += (g / 2.0) * kron_chain(factors)
    return np.kron(sz, np.eye(2**n)) @ np.kron(eye, bath)


def evolve_dephasing(couplings, weights, t: float) -> np.ndarray:
    """Full evolved state from (c0|0> + c1|1>) (x)_k |+>, by dense eigenphases."""
    n = len(couplings)
    plus = np.full(2, 1.0 / math.sqrt(2.0), dtype=np.complex128)
    psi0 = np.kron(np.asarray(weights, dtype=np.complex128), kron_chain([plus] * n).ravel())
    h = dephasing_hamiltonian(couplings)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    return np.exp(-1j * np.diag(h).real * t) * psi0


def brute_correlated_state(coefficients, system, apparatus, environment) -> np.ndarray:
    """sum_n c_n phi_n (x) Phi_n (x) env_n as a flat vector, one kron per branch."""
    total = 0
    for c, phi, app, env in zip(coefficients, system, apparatus, environment):
        total = total + c * np.kron(np.kron(phi, app), env)
    return total


def brute_bath_overlap(couplings, times) -> np.ndarray:
    """mean_b exp(-2i e_b t) over all 2^N bath states, one time step at a time.

    Every sign pattern of the per-spin energies +-g_k/2 is enumerated and kept,
    duplicates included, so no grouping of equal energies is assumed.
    """
    energies = np.array([
        sum(s * g / 2.0 for s, g in zip(signs, couplings))
        for signs in itertools.product((1.0, -1.0), repeat=len(couplings))
    ])
    return np.array([np.mean(np.exp(-2j * t * energies)) for t in times], dtype=np.complex128)


def reduced_qubit(psi: np.ndarray) -> np.ndarray:
    m = psi.reshape(2, -1)
    return m @ m.conj().T


def lattice_configurations(sites: int, e_max: int) -> list[tuple[int, ...]]:
    """All (q_1..q_N, E_1..E_N) tuples, charges slowest, in flat-index order."""
    ranges = [range(-1, 2)] * sites + [range(-e_max, e_max + 1)] * sites
    return list(itertools.product(*ranges))


def brute_gauss_eigenvalues(config, sites: int, left_field: int) -> tuple[int, ...]:
    """The divergences E_x - E_{x-1} - q_x of one configuration, site by site."""
    out = []
    left = left_field
    for q, e in zip(config[:sites], config[sites:]):
        out.append(e - left - q)
        left = e
    return tuple(out)


def brute_commutant_basis(sites: int, e_max: int, left_field: int, factors) -> list[np.ndarray]:
    """Dense Hermitian constraint-commuting operators on the given tuple positions.

    ``factors`` index the configuration tuple (0..N-1 charges, N..2N-1 links).
    Every matrix unit joining two interior values at one exterior value,
    zeroed where the constraint eigenvalues differ, is Hermitized; the
    candidates, seeded with the identity, are orthonormalized by modified
    Gram-Schmidt and zero remainders discarded.
    """
    configs = lattice_configurations(sites, e_max)
    dim = len(configs)
    gauss = [brute_gauss_eigenvalues(c, sites, left_field) for c in configs]
    exterior = [f for f in range(2 * sites) if f not in factors]
    groups: dict[tuple, dict[tuple, int]] = {}
    for i, c in enumerate(configs):
        inner = tuple(c[f] for f in factors)
        outer = tuple(c[f] for f in exterior)
        groups.setdefault(inner, {})[outer] = i
    interiors = sorted(groups)

    candidates = [np.eye(dim, dtype=np.complex128)]
    for k, a in enumerate(interiors):
        for b in interiors[k:]:
            entries = [
                (i, groups[b][e]) for e, i in groups[a].items() if gauss[i] == gauss[groups[b][e]]
            ]
            if not entries:
                continue
            unit = np.zeros((dim, dim), dtype=np.complex128)
            for i, j in entries:
                unit[i, j] = 1.0
            if a == b:
                candidates.append(unit)
            else:
                candidates.append(unit + unit.conj().T)
                candidates.append(1j * (unit - unit.conj().T))

    basis: list[np.ndarray] = []
    for cand in candidates:
        vec = cand.ravel()
        for prev in basis:
            overlap = np.vdot(prev, vec)
            if overlap != 0:  # skipping a zero projection changes nothing
                vec = vec - overlap * prev
        norm = np.linalg.norm(vec)
        if norm > 1e-12:
            basis.append(vec / norm)
    return [b.reshape(dim, dim) for b in basis]


def brute_operator_count(sites: int, e_max: int, left: int, boundary: bool = False) -> int:
    """Number of gauge-invariant operators on all sites and links 1..N-1 (and N).

    Two interior configurations are joined by a constraint-commuting matrix
    unit at an exterior value exactly when they agree in every divergence:
    those of sites 1..N-1 and, through the fixed exterior E_N, the sum
    E_{N-1} + q_N (all N divergences when the boundary link is interior, so
    nothing is exterior).  A class of n configurations gives n diagonal and
    n(n-1) Hermitized off-diagonal operators, n^2 in all.
    """
    n_links = sites if boundary else sites - 1
    classes: collections.Counter = collections.Counter()
    for qs in itertools.product((-1, 0, 1), repeat=sites):
        for es in itertools.product(range(-e_max, e_max + 1), repeat=n_links):
            fields = (left,) + es
            key = tuple(fields[x + 1] - fields[x] - qs[x] for x in range(n_links))
            if not boundary:
                key += (fields[-1] + qs[-1],)
            classes[key] += 1
    return sum(n * n for n in classes.values())


def brute_kept_pairs(code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior pairs a < b with equal codes at some exterior, by all-pairs comparison.

    ``code`` has shape (d_int, d_ext).  Every (a, b, e) triple is compared at
    once; the pairs come out ascending in (a, b), each with its mask over e.
    """
    agree = code[:, None, :] == code[None, :, :]
    a, b = np.nonzero(np.triu(agree.any(axis=2), k=1))
    return a, b, agree[a, b]


def brute_wilson_line(sites: int, e_max: int, x: int) -> np.ndarray:
    """Dense string operator from site x: raise q_x and E_x..E_N, drop what leaves the range."""
    configs = lattice_configurations(sites, e_max)
    index = {c: i for i, c in enumerate(configs)}
    out = np.zeros((len(configs), len(configs)), dtype=np.complex128)
    for i, c in enumerate(configs):
        raised = list(c)
        raised[x - 1] += 1
        for link in range(x, sites + 1):
            raised[sites + link - 1] += 1
        j = index.get(tuple(raised))
        if j is not None:
            out[j, i] = 1.0
    return out
