"""The ``qdeco`` command: dispatch, strict config handling, deterministic reports.

Every numeric output is produced by exactly one library call; the CLI only
tags units, assembles the report, and serializes it with stable key order and
12-significant-digit floats, so identical invocations are byte-identical.

Exit codes: 0 success, 1 validation failure (bad physics input), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .decoherence import (
    CorrelatedStateSpec,
    SpinBathModel,
    entropy_curve,
    build_correlated_state,
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
from .hilbert import StateVector, TensorLayout, basis_state, coherence_norm, purity, von_neumann_entropy
from .lattice_qed import (
    GaugeFunction,
    LatticeSpec,
    boundary_decomposition_diagonals,
    charge_sectors,
    gauge_generator_diagonal,
    physical_subspace,
    superselection_report,
    total_charge_diagonal,
    _wilson_map,
)
from .units import si_efield_v_per_cm, si_time_s, si_volume_cm3

__all__ = ["run", "main", "emit_sweep"]


class UsageError(Exception):
    """Bad flags or config keys; maps to exit code 2."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_number(x) -> str:
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x}")
    return format(x, ".12g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
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
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit_sweep(rows, header, fmt: str = "csv") -> str:
    """Render numeric rows as CSV (header line first) or a JSON array of objects."""
    header = list(header)
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != len(header):
            raise ValueError(f"row width {len(r)} does not match header width {len(header)}")
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_format_number(v) for v in r) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        objs = [
            "  {" + ", ".join(f"{json.dumps(h)}: {_format_number(v)}" for h, v in zip(header, r)) + "}"
            for r in rows
        ]
        return "[\n" + ",\n".join(objs) + "\n]" + "\n" if objs else "[]\n"
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# parameter table


@dataclass(frozen=True)
class Param:
    flag: str
    convert: Callable[[str], object]
    required: bool = False
    default: object = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p != ""]
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


COMMANDS: dict[tuple[str, ...], dict] = {
    ("tripartite",): {
        "help": "reduce a correlated system-apparatus-environment state",
        "params": [
            Param("--coeffs", _float_list, required=True, help="branch coefficients c0,c1,..."),
            Param("--env-overlap", _float_value, required=True,
                  help="pairwise overlap of distinct environment states"),
        ],
        "tolerances": {"state_norm": 1e-9},
    },
    ("dephasing",): {
        "help": "central-spin dephasing curve with closed-form oracle",
        "params": [
            Param("--spins", _int_value, required=True, help="bath size"),
            Param("--coupling", _float_list, required=True,
                  help="coupling g, or comma list of per-spin couplings"),
            Param("--t-max", _float_value, required=True, help="final time"),
            Param("--steps", _int_value, required=True, help="number of time samples"),
        ],
        "tolerances": {"oracle_match": 1e-10, "entropy_check": 1e-9},
    },
    ("lattice", "superselect"): {
        "help": "charge-sector indistinguishability report",
        "params": [
            Param("--sites", _int_value, required=True),
            Param("--emax", _int_value, required=True),
            Param("--left-field", _int_value, required=True),
        ],
        "tolerances": {"cross_element": 1e-12},
    },
    ("lattice", "identity-check"): {
        "help": "surface-plus-bulk identity for random gauge functions",
        "params": [
            Param("--sites", _int_value, required=True),
            Param("--emax", _int_value, required=True),
            Param("--seed", _int_value, required=True),
            Param("--left-field", _int_value, default=0),
            Param("--trials", _int_value, default=50),
        ],
        "tolerances": {"identity_residual": 1e-12},
    },
    ("field", "factor"): {
        "help": "interference suppression factor for a field superposition",
        "params": [
            Param("--volume-cm3", _float_value, required=True),
            Param("--efield-v-per-cm", _float_value, required=True),
        ],
        "tolerances": {"conversion_round_trip": 1e-12},
    },
    ("field", "coherence-length"): {
        "help": "length scale where field interference is suppressed",
        "params": [
            Param("--efield-v-per-cm", _float_value, required=True),
            Param("--threshold", _float_value, default=1.0,
                  help="suppression exponent defining 'decohered'"),
        ],
        "tolerances": {"conversion_round_trip": 1e-12},
    },
    ("field", "validity-time"): {
        "help": "time beyond which the closed-form suppression applies",
        "params": [
            Param("--efield-v-per-cm", _float_value, required=True),
        ],
        "tolerances": {"conversion_round_trip": 1e-12},
    },
    ("thermal", "length"): {
        "help": "electron coherence length in thermal radiation",
        "params": [
            Param("--time-s", _float_value, required=True),
            Param("--lambda-cm2s", _float_value, default=100.0),
        ],
        "tolerances": {"conversion_round_trip": 1e-12},
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        for p in info["params"]:
            leaf.add_argument(p.flag, dest=p.dest, default=None, help=p.help)
        leaf.add_argument("--out", dest="_out", default=None, help="write report to file")
        leaf.add_argument("--format", dest="_format", default="json", choices=["json", "csv"])
        leaf.add_argument("--config", dest="_config", default=None,
                          help="key = value file; flags override")
        leaf.set_defaults(_key=key)
    return parser


def _read_config(path: str) -> dict[str, str]:
    text = Path(path).read_text()
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
            if p.required:
                raise UsageError(f"missing required parameter {p.flag}")
            resolved[dest] = p.default
        else:
            resolved[dest] = p.convert(raw)
    return resolved


# ---------------------------------------------------------------------------
# experiment runners: return (inputs, outputs, sweep-or-None, seed)


def _run_tripartite(v: dict):
    coeffs = np.asarray(v["coeffs"], dtype=np.complex128)
    overlap = float(v["env_overlap"])
    n = len(coeffs)
    if n < 2:
        raise ValueError("need at least two branches to discuss interference")

    gram = (1.0 - overlap) * np.eye(n) + overlap * np.ones((n, n))
    w, vecs = np.linalg.eigh(gram)
    if float(np.min(w)) < -1e-12:
        raise ValueError(
            f"overlap {overlap} does not define a valid environment family for {n} branches"
        )
    # rows of L are unit environment vectors with Gram matrix L L^T = gram
    factor = vecs @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    layout = TensorLayout((n,))
    envs = [StateVector(layout, factor[i].astype(np.complex128)) for i in range(n)]
    spec = CorrelatedStateSpec(
        coefficients=coeffs,
        system_states=[basis_state(n, i) for i in range(n)],
        apparatus_states=[basis_state(n, i) for i in range(n)],
        environment_states=envs,
    )
    rho = reduce_to_apparatus(build_correlated_state(spec))
    outputs = {
        "coherence_norm": coherence_norm(rho),
        "entropy_nats": von_neumann_entropy(rho),
        "purity": purity(rho),
    }
    inputs = {"coeffs": [float(c.real) for c in coeffs], "env_overlap": overlap}
    return inputs, outputs, None, None


def _run_dephasing(v: dict):
    n = int(v["spins"])
    couplings = v["coupling"]
    if len(couplings) == 1:
        couplings = couplings * n
    if len(couplings) != n:
        raise ValueError(f"need 1 or {n} couplings, got {len(couplings)}")
    if v["steps"] < 1:
        raise ValueError("steps must be >= 1")
    model = SpinBathModel(bath_size=n, couplings=np.array(couplings))
    times = np.linspace(0.0, float(v["t_max"]), int(v["steps"]))
    curve = spin_bath_evolve(model, times)
    oracle = np.array([spin_bath_coherence(model, t) for t in curve.times])
    check = entropy_curve(curve)
    outputs = {
        "max_oracle_deviation": float(np.max(np.abs(oracle - curve.coherence))),
        "entropy_max_deviation": check.max_deviation,
        "entropy_monotone_in_coherence": check.monotone_in_coherence,
        "final_coherence": float(curve.coherence[-1]),
        "final_entropy_nats": float(curve.entropy[-1]),
    }
    inputs = {
        "spins": n,
        "coupling": [float(g) for g in couplings],
        "t_max": float(v["t_max"]),
        "steps": int(v["steps"]),
    }
    sweep = (["t", "coherence", "entropy"], curve.rows())
    return inputs, outputs, sweep, None


def _uniform_sector_state(subspace, indices) -> StateVector:
    coords = np.zeros(subspace.dim, dtype=np.complex128)
    positions = np.searchsorted(subspace.basis, indices)
    coords[positions] = 1.0 / math.sqrt(len(indices))
    return subspace.embed(coords)


def _run_lattice_superselect(v: dict):
    spec = LatticeSpec(sites=v["sites"], e_max=v["emax"], left_field=v["left_field"])
    subspace = physical_subspace(spec)
    decomp = charge_sectors(subspace)
    charges = decomp.charges()
    if len(charges) < 2:
        raise ValueError("need at least two charge sectors for a superselection report")
    if 1 in decomp.sectors and -1 in decomp.sectors:
        q_plus, q_minus = 1, -1
    else:
        q_plus, q_minus = charges[-1], charges[0]
    psi_plus = _uniform_sector_state(subspace, decomp.sectors[q_plus])
    psi_minus = _uniform_sector_state(subspace, decomp.sectors[q_minus])
    report = superselection_report(spec, psi_plus, psi_minus)

    # Contrast: a string operator reaching the boundary connects adjacent sectors.
    adjacent = [(q, q + 1) for q in charges if q + 1 in decomp.sectors]
    wilson_cross = 0.0
    if adjacent:
        q_lo, q_hi = adjacent[0]
        lo = _uniform_sector_state(subspace, decomp.sectors[q_lo])
        hi = _uniform_sector_state(subspace, decomp.sectors[q_hi])
        for x in range(1, spec.sites + 1):
            src, dst = _wilson_map(spec, x)
            image = np.zeros_like(lo.amplitudes)
            image[dst] = lo.amplitudes[src]
            wilson_cross = max(wilson_cross, abs(np.vdot(hi.amplitudes, image)))

    outputs = {
        "physical_dim": subspace.dim,
        "sectors": {str(q): size for q, size in decomp.sector_sizes().items()},
        "n_operators": report.n_operators,
        "max_cross": report.max_cross,
        "max_expectation_diff": report.max_expectation_diff,
        "sector_plus": report.sector_plus,
        "sector_minus": report.sector_minus,
        "wilson_contrast_cross": wilson_cross,
    }
    inputs = {"sites": v["sites"], "emax": v["emax"], "left_field": v["left_field"]}
    return inputs, outputs, None, None


def _run_lattice_identity(v: dict):
    spec = LatticeSpec(sites=v["sites"], e_max=v["emax"], left_field=v["left_field"])
    trials = int(v["trials"])
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(int(v["seed"]))
    subspace = physical_subspace(spec)
    charge_phys = total_charge_diagonal(spec)[subspace.basis]

    max_identity = 0.0
    max_kernel = 0.0
    for _ in range(trials):
        xi = GaugeFunction(
            values=rng.uniform(-1.0, 1.0, size=spec.sites),
            left_value=float(rng.uniform(-1.0, 1.0)),
            asymptotic_value=float(rng.uniform(-1.0, 1.0)),
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
    inputs = {
        "sites": v["sites"],
        "emax": v["emax"],
        "left_field": v["left_field"],
        "seed": int(v["seed"]),
        "trials": trials,
    }
    return inputs, outputs, None, int(v["seed"])


def _run_field_factor(v: dict):
    volume = si_volume_cm3(v["volume_cm3"])
    efield = si_efield_v_per_cm(v["efield_v_per_cm"])
    outputs = {
        "factor": decoherence_factor(volume, efield),
        "exponent": decoherence_exponent(volume, efield),
    }
    inputs = {"volume_cm3": v["volume_cm3"], "efield_v_per_cm": v["efield_v_per_cm"]}
    return inputs, outputs, None, None


def _run_field_coherence_length(v: dict):
    efield = si_efield_v_per_cm(v["efield_v_per_cm"])
    length = coherence_length(efield, threshold_exponent=v["threshold"])
    outputs = {
        "length_cm": length.to("si").magnitude,
        "length_natural_inv_mev": length.magnitude,
    }
    inputs = {"efield_v_per_cm": v["efield_v_per_cm"], "threshold": v["threshold"]}
    return inputs, outputs, None, None


def _run_field_validity_time(v: dict):
    efield = si_efield_v_per_cm(v["efield_v_per_cm"])
    t_min = validity_time(efield)
    outputs = {
        "t_min_s": t_min.to("si").magnitude,
        "t_min_natural_inv_mev": t_min.magnitude,
    }
    inputs = {"efield_v_per_cm": v["efield_v_per_cm"]}
    return inputs, outputs, None, None


def _run_thermal_length(v: dict):
    model = ThermalModel(localization_rate=v["lambda_cm2s"])
    length = thermal_coherence_length(si_time_s(v["time_s"]), model)
    outputs = {"length_cm": length.magnitude}
    inputs = {"time_s": v["time_s"], "lambda_cm2s": v["lambda_cm2s"]}
    return inputs, outputs, None, None


RUNNERS = {
    ("tripartite",): _run_tripartite,
    ("dephasing",): _run_dephasing,
    ("lattice", "superselect"): _run_lattice_superselect,
    ("lattice", "identity-check"): _run_lattice_identity,
    ("field", "factor"): _run_field_factor,
    ("field", "coherence-length"): _run_field_coherence_length,
    ("field", "validity-time"): _run_field_validity_time,
    ("thermal", "length"): _run_thermal_length,
}


def _render(key, inputs, outputs, sweep, seed, fmt: str) -> str:
    if fmt == "csv":
        if sweep is not None:
            header, rows = sweep
            return emit_sweep(rows, header, "csv")
        flat: dict[str, object] = {}
        for k in sorted(outputs):
            val = outputs[k]
            if isinstance(val, dict):
                for kk in sorted(val, key=str):
                    flat[f"{k}_{kk}"] = val[kk]
            elif isinstance(val, bool):
                flat[k] = int(val)
            else:
                flat[k] = val
        return emit_sweep([tuple(flat.values())], list(flat.keys()), "csv")

    report = {
        "tool": "qdeco",
        "subcommand": " ".join(key),
        "inputs": inputs,
        "outputs": outputs,
        "provenance": {
            "version": __version__,
            "seed": seed,
            "tolerances": COMMANDS[key]["tolerances"],
        },
    }
    if sweep is not None:
        header, rows = sweep
        report["rows"] = [dict(zip(header, r)) for r in rows]
    return _to_json(report) + "\n"


def run(argv: list[str]) -> int:
    """Parse, dispatch, and emit a report; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help to the right stream
        return int(exc.code or 0)

    try:
        values = _resolve_params(args._key, args)
    except UsageError as exc:
        print(f"qdeco: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qdeco: error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        inputs, outputs, sweep, seed = RUNNERS[args._key](values)
        text = _render(args._key, inputs, outputs, sweep, seed, args._format)
    except UsageError as exc:
        print(f"qdeco: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"qdeco: validation error: {exc}", file=sys.stderr)
        return 1

    if args._out is not None:
        Path(args._out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
