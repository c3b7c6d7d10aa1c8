"""Every admitted argv against ``perfbench/checks.py``, an oracle that shares no code.

``checks.check`` derives each report field from the physics alone (charge
strings, closed forms, a small numpy eigenproblem) and imports nothing from
``qdeco``.  Hypothesis draws argvs of all eight subcommands over ranges that
reach both sides of each admission bound; every report that exits 0 must pass
the check, and every refusal must be one line on stderr with nothing on stdout.
The draws are derandomized and their number fixed, so the test is deterministic.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeco.cli import run

_CHECKS = Path(__file__).parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("qdeco_report_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

EXAMPLES = 50  # per subcommand


def _log_uniform(lo: float, hi: float):
    """10^x for x uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda x: 10.0**x)


def _signed(magnitude):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda p: p[0] * p[1])


@st.composite
def _lattice(draw, command: str):
    # (sites, emax) up to (4, 6): flat dimensions up to 2.3e6, far over the
    # 20 000-configuration enumeration bound
    sites, emax = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    left = draw(st.integers(-emax, emax))
    argv = ["lattice", command, "--sites", str(sites), "--emax", str(emax),
            "--left-field", str(left)]
    if command == "identity-check":
        # few trials, or enough that every lattice is over the 1.5e8-entry bound
        trials = draw(st.one_of(st.integers(1, 20), st.integers(60_000, 10**6)))
        argv += ["--seed", str(draw(st.integers(0, 2**32))), "--trials", str(trials)]
    return argv


@st.composite
def _dephasing(draw):
    spins = draw(st.integers(1, 13))  # 12 is the bath bound
    coupling = st.floats(-3.0, 3.0)
    couplings = draw(st.one_of(st.lists(coupling, min_size=1, max_size=1),
                               st.lists(coupling, min_size=spins, max_size=spins)))
    t_max = draw(st.one_of(st.floats(0.0, 20.0), _log_uniform(3.0, 7.0)))
    # up to 400 steps, or over the 617 093-step report bound
    steps = draw(st.one_of(st.integers(1, 400), st.integers(617_094, 10**9)))
    argv = ["dephasing", "--spins", str(spins), "--coupling", ",".join(map(repr, couplings)),
            "--t-max", repr(t_max), "--steps", str(steps)]
    return argv + draw(st.sampled_from([[], ["--format", "csv"]]))


@st.composite
def _tripartite(draw):
    n = draw(st.integers(2, 50))  # 45 branches is the dense bound
    overlap = draw(st.floats(-1.0 / (n - 1), 1.0))
    # nonzero coefficients: the checker expects |overlap| for coherence_norm, where
    # the program's empty-branch rule gives 0 beside a zero branch
    raw = draw(st.lists(_signed(st.floats(0.05, 1.0)), min_size=n, max_size=n))
    # the branches |n n> are orthogonal, so sum_n c_n |n n env_n> has norm^2 sum c^2
    norm = sum(c * c for c in raw) ** 0.5
    coeffs = [c / norm for c in raw]
    return ["tripartite", "--coeffs", ",".join(map(repr, coeffs)),
            "--env-overlap", repr(overlap)]


# magnitudes at which the checker's own arithmetic stays finite
_FIELD = st.one_of(_signed(_log_uniform(-100.0, 100.0)), st.just(0.0))
# the checker expects m/(eE) with the sign of E; the program reports the time m/(e|E|)
_FIELD_MAGNITUDE = st.one_of(_log_uniform(-100.0, 100.0), st.just(0.0))
# a positive parameter, or 0 or -1, which are refused
_PARAMETER = st.one_of(_log_uniform(-50.0, 50.0), st.sampled_from([0.0, -1.0]))


def _flags(**values):
    argv = []
    for flag, value in values.items():
        if value is not None:
            argv += ["--" + flag.replace("_", "-"), repr(value)]
    return argv


def _factor(volume, efield):
    return ["field", "factor", *_flags(volume_cm3=volume, efield_v_per_cm=efield)]


STRATEGIES = {
    "lattice superselect": _lattice("superselect"),
    "lattice identity-check": _lattice("identity-check"),
    "dephasing": _dephasing(),
    "tripartite": _tripartite(),
    # laboratory volumes and fields put the exponent V e^2 E^2 / (512 pi m) between
    # 1e-24 and 1e25, through the exponents of 10 to 745 at which the factor is
    # small but not zero; the wider draw reaches the overflow refusals
    "field factor": st.one_of(
        st.builds(_factor, _log_uniform(-20.0, 5.0), _signed(_log_uniform(0.0, 12.0))),
        st.builds(_factor, st.one_of(_log_uniform(-40.0, 40.0), st.sampled_from([0.0, -1.0])),
                  _FIELD),
    ),
    "field coherence-length": st.builds(
        lambda efield, threshold: ["field", "coherence-length",
                                   *_flags(efield_v_per_cm=efield, threshold=threshold)],
        _FIELD, st.one_of(st.none(), _PARAMETER)),
    "field validity-time": st.builds(
        lambda efield: ["field", "validity-time", *_flags(efield_v_per_cm=efield)],
        _FIELD_MAGNITUDE),
    "thermal length": st.builds(
        lambda time, rate: ["thermal", "length", *_flags(time_s=time, lambda_cm2s=rate)],
        st.one_of(_log_uniform(-100.0, 100.0), st.sampled_from([0.0, -1.0])),
        st.one_of(st.none(), _PARAMETER)),
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("subcommand", sorted(STRATEGIES))
def test_report_passes_the_checker_or_is_refused_in_one_line(subcommand):
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None)
    @given(STRATEGIES[subcommand])
    def check(argv):
        code, out, err = _run(argv)
        if code == 0:
            assert err == ""
            reason = checks.check(argv, out)
            assert reason is None, reason
        else:
            assert code in (1, 2)
            assert out == ""
            assert err.endswith("\n") and len(err.splitlines()) == 1, err

    check()
