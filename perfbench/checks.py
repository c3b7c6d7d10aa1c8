"""Output checks for ``qdeco`` reports, written from the physics alone.

Nothing here imports or copies ``qdeco``: every expected value comes from a
closed form, a count over charge strings or a small numpy eigenproblem, so a
wrong fast path in the program cannot also be wrong in its check.

``check(argv, stdout)`` returns ``None`` when the report is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np

# The acceptance tolerances the reports carry at this commit.
CROSS_TOL = 1e-12
IDENTITY_TOL = 1e-12
ORACLE_TOL = 1e-10
ENTROPY_TOL = 1e-9
# Reports print 12 significant digits.
PRINT_RTOL = 1e-11

# CODATA values, for the closed-form field and thermal results.
HBAR_C_MEV_CM = 197.3269804e-13
HBAR_MEV_S = 6.582119569e-22
M_ELECTRON_MEV = 0.51099895
FIELD_RTOL = 1e-6


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _close(got, want, atol: float, what: str):
    _require(
        isinstance(got, (int, float)) and not isinstance(got, bool)
        and abs(got - want) <= atol + PRINT_RTOL * abs(want),
        f"{what} = {got!r}, expected {want!r}",
    )


def _rel_close(got, want, rtol: float, what: str):
    _require(
        isinstance(got, (int, float)) and abs(got - want) <= rtol * abs(want),
        f"{what} = {got!r}, expected {want!r}",
    )


def _flags(argv: list[str]) -> dict[str, str]:
    start = next(i for i, tok in enumerate(argv) if tok.startswith("--"))
    opts = argv[start:]
    return {opts[i][2:]: opts[i + 1] for i in range(0, len(opts), 2)}


def charge_string_sectors(sites: int, emax: int, left: int) -> Counter:
    """Physical states per total charge: charge strings whose fields stay in range.

    Gauss's law fixes every link field from the charges, E_x = left + q_1 + ... + q_x,
    so a physical state is a string q in {-1, 0, 1}^sites with |E_x| <= emax.
    """
    sectors: Counter = Counter()
    for q in itertools.product((-1, 0, 1), repeat=sites):
        field = left
        for qx in q:
            field += qx
            if abs(field) > emax:
                break
        else:
            sectors[sum(q)] += 1
    return sectors


def _check_superselect(flags, report):
    out = report["outputs"]
    n, emax, left = int(flags["sites"]), int(flags["emax"]), int(flags["left-field"])
    sectors = charge_string_sectors(n, emax, left)
    _require(out["physical_dim"] == sum(sectors.values()),
             f"physical_dim {out['physical_dim']} != {sum(sectors.values())} charge strings")
    got = {int(q): size for q, size in out["sectors"].items()}
    _require(got == dict(sectors), f"sectors {got} != {dict(sectors)}")
    _require(0 <= out["max_cross"] <= CROSS_TOL, f"max_cross {out['max_cross']}")
    _require(0 <= out["max_expectation_diff"] <= CROSS_TOL,
             f"max_expectation_diff {out['max_expectation_diff']}")
    _require(out["wilson_contrast_cross"] > 0, "string operator does not connect sectors")


def _check_identity(flags, report):
    out = report["outputs"]
    n, emax = int(flags["sites"]), int(flags["emax"])
    left = int(flags.get("left-field", 0))
    _require(0 <= out["max_identity_residual"] <= IDENTITY_TOL,
             f"max_identity_residual {out['max_identity_residual']}")
    _require(0 <= out["max_kernel_residual"] <= IDENTITY_TOL,
             f"max_kernel_residual {out['max_kernel_residual']}")
    _require(out["flat_dim"] == 3**n * (2 * emax + 1) ** n, f"flat_dim {out['flat_dim']}")
    phys = sum(charge_string_sectors(n, emax, left).values())
    _require(out["physical_dim"] == phys, f"physical_dim {out['physical_dim']} != {phys}")


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def _check_dephasing_rows(flags, rows):
    n, steps, t_max = int(flags["spins"]), int(flags["steps"]), float(flags["t-max"])
    couplings = [float(g) for g in flags["coupling"].split(",")]
    if len(couplings) == 1:
        couplings *= n
    _require(len(rows) == steps, f"{len(rows)} rows for {steps} steps")
    for i, (t, coherence, entropy) in enumerate(rows):
        t_want = t_max * i / (steps - 1) if steps > 1 else 0.0
        _close(t, t_want, 1e-12, f"row {i} t")
        r = math.prod(abs(math.cos(g * t_want)) for g in couplings)
        _close(coherence, r, ORACLE_TOL, f"row {i} coherence")
        _close(entropy, binary_entropy((1.0 - r) / 2.0), ENTROPY_TOL, f"row {i} entropy")
    return math.prod(abs(math.cos(g * t_max)) for g in couplings)


def _check_dephasing(flags, report):
    out = report["outputs"]
    rows = [(row["t"], row["coherence"], row["entropy"]) for row in report["rows"]]
    final = _check_dephasing_rows(flags, rows)
    _close(out["final_coherence"], final, ORACLE_TOL, "final_coherence")
    _require(0 <= out["max_oracle_deviation"] <= ORACLE_TOL,
             f"max_oracle_deviation {out['max_oracle_deviation']}")
    _require(0 <= out["entropy_max_deviation"] <= ENTROPY_TOL,
             f"entropy_max_deviation {out['entropy_max_deviation']}")
    _require(out["entropy_monotone_in_coherence"] is True, "entropy not monotone in coherence")


def _check_dephasing_csv(flags, text: str):
    lines = text.splitlines()
    _require(lines[0] == "t,coherence,entropy", f"csv header {lines[0]!r}")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    _check_dephasing_rows(flags, rows)


def _check_tripartite(flags, report):
    out = report["outputs"]
    c = np.array([float(v) for v in flags["coeffs"].split(",")])
    overlap = float(flags["env-overlap"])
    n = len(c)
    # Apparatus-system block: rho_ij = c_i c_j <env_j|env_i>, with every distinct
    # pair of environment states at the same overlap.
    gram = (1.0 - overlap) * np.eye(n) + overlap * np.ones((n, n))
    rho = np.outer(c, c) * gram
    w = np.linalg.eigvalsh(rho)
    w = w[w > 0]
    _close(out["coherence_norm"], abs(overlap), 1e-9, "coherence_norm")
    _close(out["entropy_nats"], float(-np.sum(w * np.log(w))), 1e-9, "entropy_nats")
    _close(out["purity"], float(np.sum(rho * rho)), 1e-9, "purity")


def _e_times_field_mev2(flags) -> float:
    """e E in natural units (MeV^2): 1 V/cm gives a unit charge 1e-6 MeV per cm."""
    return float(flags["efield-v-per-cm"]) * 1e-6 * HBAR_C_MEV_CM


def _check_field_factor(flags, report):
    out = report["outputs"]
    volume = float(flags["volume-cm3"]) / HBAR_C_MEV_CM**3
    exponent = volume * _e_times_field_mev2(flags) ** 2 / (512 * math.pi * M_ELECTRON_MEV)
    _rel_close(out["exponent"], exponent, FIELD_RTOL, "exponent")
    _rel_close(out["factor"], math.exp(-exponent), FIELD_RTOL, "factor")


def _check_coherence_length(flags, report):
    out = report["outputs"]
    threshold = float(flags.get("threshold", 1.0))
    l_cubed = 512 * math.pi * M_ELECTRON_MEV * threshold / _e_times_field_mev2(flags) ** 2
    length_cm = l_cubed ** (1 / 3) * HBAR_C_MEV_CM
    _rel_close(out["length_cm"], length_cm, FIELD_RTOL, "length_cm")
    if float(flags["efield-v-per-cm"]) == 1e7 and threshold == 1.0:
        _require(5.0e-4 < out["length_cm"] < 6.0e-4, "coherence length is not about 5.5e-4 cm")


def _check_validity_time(flags, report):
    t_s = M_ELECTRON_MEV / _e_times_field_mev2(flags) * HBAR_MEV_S
    _rel_close(report["outputs"]["t_min_s"], t_s, FIELD_RTOL, "t_min_s")


def _check_thermal(flags, report):
    rate = float(flags.get("lambda-cm2s", 100.0))
    length = 1.0 / math.sqrt(rate * float(flags["time-s"]))
    _rel_close(report["outputs"]["length_cm"], length, 1e-11, "length_cm")


_JSON_CHECKS = {
    "lattice superselect": _check_superselect,
    "lattice identity-check": _check_identity,
    "dephasing": _check_dephasing,
    "tripartite": _check_tripartite,
    "field factor": _check_field_factor,
    "field coherence-length": _check_coherence_length,
    "field validity-time": _check_validity_time,
    "thermal length": _check_thermal,
}


def check(argv: list[str], stdout: str) -> str | None:
    """Reason why ``stdout`` is not the right report for ``argv``, or None."""
    subcommand = " ".join(tok for tok in argv[:2] if not tok.startswith("--"))
    flags = _flags(argv)
    try:
        if flags.pop("format", "json") == "csv":
            _require(subcommand == "dephasing", f"no csv check for {subcommand!r}")
            _check_dephasing_csv(flags, stdout)
            return None
        report = json.loads(stdout)
        _require(report.get("subcommand") == subcommand,
                 f"report is for {report.get('subcommand')!r}")
        _JSON_CHECKS[subcommand](flags, report)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
