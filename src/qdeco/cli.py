"""The ``qdeco`` command: parsing, dispatch and deterministic reports.

Each runner takes the resolved parameters, which the report lists as its
inputs, and returns its outputs.  The physics is in the library; two runners
still reduce library results here.  ``lattice identity-check`` draws its gauge
functions with the standard library's Mersenne Twister, ``random.Random(seed)``,
and takes the largest residuals, because perfbench traces
``gauge_generator_diagonal`` as this module binds it.  ``dephasing`` takes the
largest deviation of the evolution from the closed-form oracle, a check that
compares two library results.  Reports have a stable key order and
12-significant-digit floats, so identical invocations are byte-identical.
The ``dephasing`` sweep leaves its runner as the curve's float64 columns by
name, in CSV order; only the renderer here turns them into rows.

Every layer is imported eagerly, because perfbench's tracer looks each one up
in ``sys.modules`` and wraps its functions where this module binds them; numpy
is executed only when a command first uses it (``qdeco._numpy``).  Start-up is
most of every command's time, so the records of all layers are namedtuples
(``units.CONSTANTS`` one namedtuple instance), not dataclasses: importing
``dataclasses``, which loads ``inspect``, ``ast`` and ``dis``, and building 17
frozen dataclasses took 17-24 ms of each start.

:func:`main`, the console script, runs OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is already set: no report needs a BLAS worker, and
starting one made ``import numpy`` 60-70 ms slower on two CPUs.  It ends
the process with ``os._exit`` once :func:`run` has written and flushed the
report, so no ``atexit`` handler and no interpreter teardown runs.  Code
that calls the command inside its own process uses :func:`run`, which sets
no variable and never exits.

Exit codes: 0 success, 1 validation failure (bad physics input) or out of
memory, 2 usage error or an unwritable report.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import random
import re
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__
from ._numpy import np
from .decoherence import (
    MAX_BATH_SIZE,
    NORM_TOL,
    SpinBathModel,
    build_correlated_state,
    entropy_curve,
    equal_overlap_spec,
    reduce_to_apparatus,
    spin_bath_coherence,
    spin_bath_evolve,
)
from .field_decoherence import (
    ThermalModel,
    coherence_length,
    decoherence_exponent,
    decoherence_factor,
    thermal_coherence_length,
    validity_time,
)
from .hilbert import coherence_norm, purity, von_neumann_entropy
from .lattice_qed import (
    ENUMERATION_LIMIT,
    GaugeFunction,
    LatticeSpec,
    boundary_decomposition_diagonals,
    charge_sectors,
    gauge_generator_diagonal,
    physical_subspace,
    sector_state,
    string_contrast,
    superselection_report,
    total_charge_diagonal,
)
from .units import SI, convert, si_efield_v_per_cm, si_time_s, si_volume_cm3

__all__ = ["run", "main"]

# ``lattice identity-check`` costs about 20 ns per configuration and trial
# (12-20 ns from flat_dim 3375 to 19 881) plus about 50 us of fixed work per
# trial (35-43 us at flat_dim 9 to 81), measured in process on a 2-vCPU x86_64
# with Python 3.11 and numpy 2.4.  A trial therefore counts as flat_dim + 2500
# entries, and 1.5e8 entries take at most about 3 s (whole commands just inside
# the bound took 1.2-2.0 s from (1,1) to (2,23)); the largest benchmark input,
# (4,1) with 200 trials, is 1.8e6 entries.  Since a cached configuration table
# skips its bound check, the fixed work measures 23-26 us per trial; the charge
# is kept, so the same inputs are admitted.
_IDENTITY_TRIAL_ENTRIES = 2500
_IDENTITY_ENTRY_BOUND = 150_000_000

# The ``dephasing`` report costs about 435 B per time step: the peak RSS of
# whole JSON commands with --spins 12 --coupling 1.0 --t-max 6, from 2000
# steps (31 MiB) to 475 107 (224 MiB), fits 35 MiB + 434.1 B per step on a
# 2-vCPU x86_64 with Python 3.11 and numpy 2.4.  The rows and the rendered
# sweep set the peak, not the evolution.  A report budget of 256 MiB bounds
# --steps at 617 093, far above the benchmark's 2000; there the JSON command
# peaked at 268 MiB in 1.4 s and the CSV one at 216 MiB in 1.0-1.1 s.
_DEPHASING_STEP_BYTES = 435
_DEPHASING_REPORT_BYTES = 256 * 2**20
_DEPHASING_STEP_BOUND = _DEPHASING_REPORT_BYTES // _DEPHASING_STEP_BYTES

# A bath phase phi = t_max N max|g| is held to about its unit roundoff, 1.1e-16
# phi, so at phi = 1e5 each cosine of the coherence is known to about 1e-11,
# inside the report's own 1e-10 ``oracle_match``.  Without the bound, over 4000
# random argvs (N 1-12, |g| 1e-2 to 3e2, t_max 1 to 1e5, 2-200 steps),
# perfbench/checks.py passed all 2889 reports with phi <= 3e5 and rejected 325
# above it, the first at phi = 4.7e5; with it, none of the 2586 admitted.  The
# benchmark and pinned inputs reach phi <= 120.
_DEPHASING_PHASE_BOUND = 1e5


class UsageError(Exception):
    """Bad flags or config keys; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` (one line, no usage block); subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_number(x) -> str:
    if isinstance(x, numbers.Integral):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x}")
    return format(x, ".12g")


class _Sweep(dict):
    """A sweep's float64 columns by name, in CSV order; ``_to_json`` writes one object per row."""


def _sweep_text(sweep: dict, keys: list, row: str, sep: str) -> str:
    """The sweep's rows, each filled into ``row`` (one ``%.12g`` per key), joined by ``sep``.

    The columns are stacked once and checked for finiteness once; the first
    non-finite value in CSV row order is refused with ``_format_number``'s
    message.  One format call fills the repeated row template from the values
    of the whole table, taken row by row with the columns in ``keys`` order.
    """
    table = np.column_stack(list(sweep.values()))
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"refusing to serialize non-finite value {table.flat[finite.argmin()]}")
    names = list(sweep)
    values = table[:, [names.index(k) for k in keys]].ravel().tolist()
    return sep.join([row] * len(table)) % tuple(values)


def _sweep_json(sweep: dict, indent: int) -> str:
    """``_to_json`` of one object per row, with the keys sorted."""
    keys = sorted(sweep)
    row_pad, key_pad = "  " * (indent + 1), "  " * (indent + 2)
    fields = ",\n".join(f"{key_pad}{json.dumps(k)}: %.12g" for k in keys)
    rows = _sweep_text(sweep, keys, f"{row_pad}{{\n{fields}\n{row_pad}}}", ",\n")
    return f"[\n{rows}\n{'  ' * indent}]" if rows else "[]"


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, _Sweep):
        return _sweep_json(obj, indent)
    if isinstance(obj, dict):
        parts = [
            f"{inner}{json.dumps(str(k))}: {_to_json(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, numbers.Real) and not isinstance(obj, bool):
        return _format_number(obj)
    return json.dumps(obj)  # str, bool and None; a TypeError for any other type


# ---------------------------------------------------------------------------
# parameter table


class Param(namedtuple("Param", "flag convert default help", defaults=(None, ""))):
    """One flag: ``convert`` turns its text into the value the runner takes.

    A flag without a default is required.
    """

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated floats, got {text!r}") from exc
    if not all(math.isfinite(x) for x in values):
        raise UsageError(f"expected comma-separated finite floats, got {text!r}")
    return values


def _float_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"expected a float, got {text!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"expected a finite float, got {text!r}")
    return value


def _int_value(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"expected an integer, got {text!r}") from exc


# A value such as -1e7 or -0.6,0.8 after a flag is a negative number, not a
# flag; argparse's own pattern knows only the forms -1 and -1.5.
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMBER}(?:,[-+]?{_NUMBER})*$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdeco",
        description="environment-induced decoherence experiments",
    )
    top = parser.add_subparsers(dest="_cmd0", required=True, metavar="command")
    groups: dict[str, argparse._SubParsersAction] = {}
    for key, info in COMMANDS.items():
        if len(key) == 1:
            leaf = top.add_parser(key[0], help=info["help"])
        else:
            if key[0] not in groups:
                grp = top.add_parser(key[0], help=f"{key[0]} experiments")
                groups[key[0]] = grp.add_subparsers(
                    dest="_cmd1", required=True, metavar="subcommand"
                )
            leaf = groups[key[0]].add_parser(key[1], help=info["help"])
        leaf._negative_number_matcher = _NEGATIVE_NUMBER
        for p in info["params"]:
            leaf.add_argument(p.flag, dest=p.dest, default=None, help=p.help)
        leaf.add_argument("--out", dest="_out", default=None, help="write report to file")
        leaf.add_argument("--format", dest="_format", default="json", choices=["json", "csv"])
        leaf.add_argument("--config", dest="_config", default=None,
                          help="key = value file; flags override")
        leaf.set_defaults(_key=key)
    return parser


def _read_config(path: str) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve_params(key: tuple[str, ...], args: argparse.Namespace) -> dict:
    params = COMMANDS[key]["params"]
    by_dest = {p.dest: p for p in params}

    config_raw: dict[str, str] = {}
    if args._config is not None:
        config_raw = _read_config(args._config)
        unknown = sorted(set(config_raw) - set(by_dest))
        if unknown:
            raise UsageError(
                f"unknown config keys for '{' '.join(key)}': {', '.join(unknown)}"
            )

    resolved: dict[str, object] = {}
    for dest, p in by_dest.items():
        raw = getattr(args, dest)
        if raw is None:
            raw = config_raw.get(dest)
        if raw is None:
            if p.default is None:
                raise UsageError(f"missing required parameter {p.flag}")
            resolved[dest] = p.default
        else:
            resolved[dest] = p.convert(raw)
    return resolved


# ---------------------------------------------------------------------------
# experiment runners: take the resolved values, return (outputs, sweep-or-None)


def _run_tripartite(v: dict):
    spec = equal_overlap_spec(v["coeffs"], v["env_overlap"])
    rho = reduce_to_apparatus(build_correlated_state(spec))
    outputs = {
        "coherence_norm": coherence_norm(rho),
        "entropy_nats": von_neumann_entropy(rho),
        "purity": purity(rho),
    }
    return outputs, None


def _run_dephasing(v: dict):
    n = v["spins"]
    if n < 1:
        raise ValueError("spins must be >= 1")
    if n > MAX_BATH_SIZE:  # before one coupling is repeated n times
        raise ValueError(f"bath_size {n} exceeds the 2^N bath-energy table bound {MAX_BATH_SIZE}")
    if len(v["coupling"]) == 1:
        v["coupling"] = v["coupling"] * n
    if len(v["coupling"]) != n:
        raise ValueError(f"need 1 or {n} couplings, got {len(v['coupling'])}")
    if v["steps"] < 1:
        raise ValueError("steps must be >= 1")
    if v["steps"] == 1 and v["t_max"] != 0:  # the grid would be [0.0] alone
        raise ValueError(
            f"one step samples only t = 0, not t_max = {v['t_max']}; use --steps >= 2"
        )
    if v["steps"] > _DEPHASING_STEP_BOUND:
        raise ValueError(
            f"{v['steps']} steps x {_DEPHASING_STEP_BYTES} B exceeds the"
            f" {_DEPHASING_REPORT_BYTES >> 20} MiB report bound of {_DEPHASING_STEP_BOUND} steps"
        )
    # formed as decoherence._checked_times forms it, so that a non-finite phase
    # still gets the library's overflow line
    phase = 2.0 * v["t_max"] * (n * (max(map(abs, v["coupling"])) / 2.0))
    if math.isfinite(phase) and phase > _DEPHASING_PHASE_BOUND:
        raise ValueError(
            f"bath phase t_max N max|g| = {phase:.12g} exceeds {_DEPHASING_PHASE_BOUND:g};"
            " double precision cannot resolve it to 1e-10"
        )
    model = SpinBathModel(bath_size=n, couplings=np.array(v["coupling"]))
    times = np.linspace(0.0, v["t_max"], v["steps"])
    curve = spin_bath_evolve(model, times)
    oracle = spin_bath_coherence(model, curve.times)
    check = entropy_curve(curve)
    outputs = {
        "max_oracle_deviation": float(np.max(np.abs(oracle - curve.coherence))),
        "entropy_max_deviation": check.max_deviation,
        "entropy_monotone_in_coherence": check.monotone_in_coherence,
        "final_coherence": float(curve.coherence[-1]),
        "final_entropy_nats": float(curve.entropy[-1]),
    }
    return outputs, {"t": curve.times, "coherence": curve.coherence, "entropy": curve.entropy}


def _run_lattice_superselect(v: dict):
    spec = LatticeSpec(sites=v["sites"], e_max=v["emax"], left_field=v["left_field"])
    decomp = charge_sectors(physical_subspace(spec))
    charges = decomp.charges()
    if 1 in decomp.sectors and -1 in decomp.sectors:
        q_plus, q_minus = 1, -1
    else:
        q_plus, q_minus = charges[-1], charges[0]
    report = superselection_report(
        spec, sector_state(decomp, q_plus), sector_state(decomp, q_minus)
    )
    outputs = {
        "physical_dim": report.physical_dim,
        "sectors": {str(q): size for q, size in decomp.sector_sizes().items()},
        "n_operators": report.n_operators,
        "max_cross": report.max_cross,
        "max_expectation_diff": report.max_expectation_diff,
        "sector_plus": report.sector_plus,
        "sector_minus": report.sector_minus,
        "wilson_contrast_cross": string_contrast(decomp),
    }
    return outputs, None


def _run_lattice_identity(v: dict):
    spec = LatticeSpec(sites=v["sites"], e_max=v["emax"], left_field=v["left_field"])
    if v["trials"] < 1:
        raise ValueError("trials must be >= 1")
    if v["seed"] < 0:
        raise ValueError("seed must be >= 0")
    # superselect's refusal, here before the trial charge and before any table
    dim = spec.checked_flat_dim(ENUMERATION_LIMIT, "enumeration")
    if v["trials"] * (dim + _IDENTITY_TRIAL_ENTRIES) > _IDENTITY_ENTRY_BOUND:
        raise ValueError(
            f"{v['trials']} trials x (flat dimension {dim} + {_IDENTITY_TRIAL_ENTRIES})"
            f" exceeds bound {_IDENTITY_ENTRY_BOUND}"
        )
    rng = random.Random(v["seed"])  # numpy.random would load secrets, hashlib and OpenSSL
    subspace = physical_subspace(spec)
    charge_phys = total_charge_diagonal(spec)[subspace.basis]

    max_identity = 0.0
    max_kernel = 0.0
    for _ in range(v["trials"]):
        xi = GaugeFunction(
            values=np.array([rng.uniform(-1.0, 1.0) for _ in range(spec.sites)]),
            left_value=rng.uniform(-1.0, 1.0),
            asymptotic_value=rng.uniform(-1.0, 1.0),
        )
        direct = gauge_generator_diagonal(spec, xi)
        surface, bulk = boundary_decomposition_diagonals(spec, xi)
        max_identity = max(max_identity, float(np.max(np.abs(direct - surface - bulk))))
        boundary_flux = (
            xi.asymptotic_value * charge_phys
            + (xi.asymptotic_value - xi.left_value) * spec.left_field
        )
        max_kernel = max(
            max_kernel, float(np.max(np.abs(direct[subspace.basis] - boundary_flux)))
        )

    outputs = {
        "max_identity_residual": max_identity,
        "max_kernel_residual": max_kernel,
        "physical_dim": subspace.dim,
        "flat_dim": spec.flat_dim,
    }
    return outputs, None


def _run_field_factor(v: dict):
    volume = si_volume_cm3(v["volume_cm3"])
    efield = si_efield_v_per_cm(v["efield_v_per_cm"])
    outputs = {
        "factor": decoherence_factor(volume, efield),
        "exponent": decoherence_exponent(volume, efield),
    }
    return outputs, None


def _run_field_coherence_length(v: dict):
    efield = si_efield_v_per_cm(v["efield_v_per_cm"])
    length = coherence_length(efield, threshold_exponent=v["threshold"])
    outputs = {
        "length_cm": convert(length, SI).magnitude,
        "length_natural_inv_mev": length.magnitude,
    }
    return outputs, None


def _run_field_validity_time(v: dict):
    efield = si_efield_v_per_cm(v["efield_v_per_cm"])
    t_min = validity_time(efield)
    outputs = {
        "t_min_s": convert(t_min, SI).magnitude,
        "t_min_natural_inv_mev": t_min.magnitude,
    }
    return outputs, None


def _run_thermal_length(v: dict):
    model = ThermalModel(localization_rate=v["lambda_cm2s"])
    length = thermal_coherence_length(si_time_s(v["time_s"]), model)
    return {"length_cm": length.magnitude}, None


COMMANDS: dict[tuple[str, ...], dict] = {
    ("tripartite",): {
        "help": "reduce a correlated system-apparatus-environment state",
        "params": [
            Param("--coeffs", _float_list, help="branch coefficients c0,c1,..."),
            Param("--env-overlap", _float_value,
                  help="pairwise overlap of distinct environment states"),
        ],
        "tolerances": {"state_norm": NORM_TOL},
        "run": _run_tripartite,
    },
    ("dephasing",): {
        "help": "central-spin dephasing curve with closed-form oracle",
        "params": [
            Param("--spins", _int_value, help="bath size"),
            Param("--coupling", _float_list,
                  help="coupling g, or comma list of per-spin couplings"),
            Param("--t-max", _float_value, help="final time"),
            Param("--steps", _int_value, help="number of time samples"),
        ],
        "tolerances": {"oracle_match": 1e-10, "entropy_check": 1e-9},
        "run": _run_dephasing,
    },
    ("lattice", "superselect"): {
        "help": "charge-sector indistinguishability report",
        "params": [
            Param("--sites", _int_value),
            Param("--emax", _int_value),
            Param("--left-field", _int_value),
        ],
        "tolerances": {"cross_element": 1e-12},
        "run": _run_lattice_superselect,
    },
    ("lattice", "identity-check"): {
        "help": "surface-plus-bulk identity for random gauge functions",
        "params": [
            Param("--sites", _int_value),
            Param("--emax", _int_value),
            Param("--seed", _int_value),
            Param("--left-field", _int_value, default=0),
            Param("--trials", _int_value, default=50),
        ],
        "tolerances": {"identity_residual": 1e-12},
        "run": _run_lattice_identity,
    },
    ("field", "factor"): {
        "help": "interference suppression factor for a field superposition",
        "params": [
            Param("--volume-cm3", _float_value),
            Param("--efield-v-per-cm", _float_value),
        ],
        "tolerances": {"conversion_round_trip": 1e-12},
        "run": _run_field_factor,
    },
    ("field", "coherence-length"): {
        "help": "length scale where field interference is suppressed",
        "params": [
            Param("--efield-v-per-cm", _float_value),
            Param("--threshold", _float_value, default=1.0,
                  help="suppression exponent defining 'decohered'"),
        ],
        "tolerances": {"conversion_round_trip": 1e-12},
        "run": _run_field_coherence_length,
    },
    ("field", "validity-time"): {
        "help": "time beyond which the closed-form suppression applies",
        "params": [
            Param("--efield-v-per-cm", _float_value),
        ],
        "tolerances": {"conversion_round_trip": 1e-12},
        "run": _run_field_validity_time,
    },
    ("thermal", "length"): {
        "help": "electron coherence length in thermal radiation",
        "params": [
            Param("--time-s", _float_value),
            Param("--lambda-cm2s", _float_value, default=100.0),
        ],
        "tolerances": {"conversion_round_trip": 1e-12},
        "run": _run_thermal_length,
    },
}


def _render(key, values, outputs, sweep, fmt: str) -> str:
    if fmt == "csv":
        if sweep is not None:
            row = ",".join(["%.12g"] * len(sweep)) + "\n"
            return ",".join(sweep) + "\n" + _sweep_text(sweep, list(sweep), row, "")
        flat: dict[str, object] = {}
        for k in sorted(outputs):
            val = outputs[k]
            if isinstance(val, dict):
                for kk in sorted(val, key=str):
                    flat[f"{k}_{kk}"] = val[kk]
            else:
                flat[k] = val
        return ",".join(flat) + "\n" + ",".join(map(_format_number, flat.values())) + "\n"

    report = {
        "tool": "qdeco",
        "subcommand": " ".join(key),
        "inputs": values,
        "outputs": outputs,
        "provenance": {
            "version": __version__,
            "seed": values.get("seed"),
            "tolerances": COMMANDS[key]["tolerances"],
        },
    }
    if sweep is not None:
        report["rows"] = _Sweep(sweep)
    return _to_json(report) + "\n"


def run(argv: list[str]) -> int:
    """Parse, dispatch, and emit a report; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        values = _resolve_params(args._key, args)
    except SystemExit as exc:  # -h printed the help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"qdeco: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"qdeco: error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        outputs, sweep = COMMANDS[args._key]["run"](values)
        text = _render(args._key, values, outputs, sweep, args._format)
    except ValueError as exc:
        print(f"qdeco: validation error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"qdeco: error: out of memory{detail}", file=sys.stderr)
        return 1

    try:
        if args._out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(args._out).write_text(text)
    except OSError as exc:  # a closed pipe, a full disk, a missing directory
        print(f"qdeco: error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    """The ``qdeco`` console script: :func:`run` on one OpenBLAS thread, no teardown."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy first executes
    code = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):  # -h leaves its help in the buffer
        try:
            stream.flush()
        except OSError:  # what is left of a report that run refused, or of the help
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
