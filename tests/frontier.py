"""The largest input that each admission bound of ``qdeco`` lets through.

Every argv is derived from the module constants, not written out by hand, so
when a bound moves its frontier moves with it.  ``test_cli.py`` runs the cheap
ones in process; the CI step "Frontier inputs" runs every one as a subprocess
and logs its exit code, wall time and peak RSS.
"""

import math

from qdeco.cli import (
    _DEPHASING_PHASE_BOUND,
    _DEPHASING_STEP_BOUND,
    _IDENTITY_ENTRY_BOUND,
    _IDENTITY_TRIAL_ENTRIES,
)
from qdeco.decoherence import _PHASE_ENTRY_BOUND, MAX_BATH_SIZE
from qdeco.hilbert import DENSE_OPERATOR_LIMIT
from qdeco.lattice_qed import ENUMERATION_LIMIT, LatticeSpec

# n equal branches reduce to an n^2-dimensional (system, apparatus) state
MAX_BRANCHES = math.isqrt(DENSE_OPERATOR_LIMIT)

# couplings 2^-k: no two signed sums are equal, so the 2^N bath energies are distinct
GENERIC_COUPLINGS = [2.0**-k for k in range(MAX_BATH_SIZE)]


def lattice_shapes() -> list[tuple[int, int]]:
    """Per site count N, the largest e_max whose flat dimension is inside ``ENUMERATION_LIMIT``.

    The list stops before the first N whose e_max = 1 is refused already.
    """
    shapes = []
    while LatticeSpec(len(shapes) + 1, 1).flat_dim <= ENUMERATION_LIMIT:
        e_max = 1
        while LatticeSpec(len(shapes) + 1, e_max + 1).flat_dim <= ENUMERATION_LIMIT:
            e_max += 1
        shapes.append((len(shapes) + 1, e_max))
    return shapes


def superselect(sites: int, e_max: int) -> list[str]:
    return ["lattice", "superselect", "--sites", str(sites), "--emax", str(e_max),
            "--left-field", "0"]


def tripartite(branches: int) -> list[str]:
    coeffs = ",".join([repr(branches**-0.5)] * branches)
    return ["tripartite", "--coeffs", coeffs, "--env-overlap", "0.3"]


def identity_check(sites: int, e_max: int) -> list[str]:
    """As many trials as the identity-check cost bound admits on this lattice."""
    entries = LatticeSpec(sites, e_max).flat_dim + _IDENTITY_TRIAL_ENTRIES
    return ["lattice", "identity-check", "--sites", str(sites), "--emax", str(e_max),
            "--seed", "1", "--trials", str(_IDENTITY_ENTRY_BOUND // entries)]


def dephasing(couplings: str, steps: int, t_max: str = "6") -> list[str]:
    return ["dephasing", "--spins", str(MAX_BATH_SIZE), "--coupling", couplings,
            "--t-max", t_max, "--steps", str(steps)]


def dephasing_at_phase_bound(steps: int) -> list[str]:
    """The generic bath up to the t_max whose bath phase t_max N max|g| is the phase bound."""
    g = max(GENERIC_COUPLINGS)
    t_max = _DEPHASING_PHASE_BOUND / (MAX_BATH_SIZE * g)
    phase = 2.0 * t_max * (MAX_BATH_SIZE * (g / 2.0))  # as the runner forms it
    assert phase <= _DEPHASING_PHASE_BOUND, phase
    return dephasing(",".join(map(repr, GENERIC_COUPLINGS)), steps, repr(t_max))


def frontier_argvs() -> list[list[str]]:
    """Every frontier input, the costly ones included.

    ``identity-check`` runs on the frontier lattices with the most sites and
    with two sites, and on (1,1), which admits the most trials.  ``dephasing``
    runs the largest bath at the step bound, whose report sets the peak, in
    JSON and in CSV; then with couplings 2^-k, whose 2^N bath energies are all
    distinct, at the most steps the phase table admits, and at 2000 steps up to
    the phase bound.
    """
    shapes = lattice_shapes()
    uniform = dephasing("1.0", _DEPHASING_STEP_BOUND)
    generic = ",".join(map(repr, GENERIC_COUPLINGS))
    return [
        *(superselect(*shape) for shape in shapes),
        *(identity_check(*shape) for shape in (shapes[-1], shapes[1], (1, 1))),
        uniform,
        [*uniform, "--format", "csv"],
        dephasing(generic, _PHASE_ENTRY_BOUND // 2**MAX_BATH_SIZE),
        dephasing_at_phase_bound(2000),
        tripartite(MAX_BRANCHES),
    ]
