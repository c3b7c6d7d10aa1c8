"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys

import pytest

import checks
import run
import workloads
from tracer import Span, Tracer, self_times

sys.path.insert(0, str(run.SRC))

import numpy  # noqa: E402
import qdeco.cli as cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argvs(workload):
    assert workloads.cycle(workload, 7) == workloads.cycle(workload, 7)
    assert len({tuple(a) for a in workloads.cycle(workload, 7)}) == len(workloads.cycle(workload, 7))


def test_seed_changes_the_seeded_values():
    assert sorted(workloads.cycle("identity", 7)) != sorted(workloads.cycle("identity", 8))
    assert sorted(workloads.cycle("reduce", 7)) != sorted(workloads.cycle("reduce", 8))


def test_percentile_interpolates_linearly():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert run.percentile(values, 0) == 1
    assert run.percentile(values, 50) == pytest.approx(5.5)
    assert run.percentile(values, 90) == pytest.approx(9.1)
    assert run.percentile(values, 100) == 10
    assert run.percentile([3.0], 90) == 3.0


def test_self_times_subtract_child_spans():
    spans = [
        Span(2, 1, 0, "c", 2.0, 3.0),
        Span(1, 0, 0, "b", 1.0, 4.0),
        Span(3, 0, 0, "b", 5.0, 6.0),
        Span(0, None, 0, "a", 0.0, 10.0),
        Span(5, 4, 1, "u", 21.0, 25.0),  # a layer calling itself
        Span(4, None, 1, "u", 20.0, 30.0),
    ]
    times = self_times(spans)
    assert times["a"].calls == 1 and times["a"].self_s == pytest.approx(6.0)
    assert times["b"].calls == 2 and times["b"].self_s == pytest.approx(3.0)
    assert times["c"].self_s == pytest.approx(1.0)
    assert times["u"].self_s == pytest.approx(10.0)
    assert times["u"].total_s == pytest.approx(10.0)
    assert times["a"].total_s == pytest.approx(10.0)


def _bindings():
    """Every function-valued binding the tracer may replace."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("qdeco") and module is not None:
            for key, value in vars(module).items():
                if callable(value):
                    found[(name, key)] = value
    found["DensityMatrix.__post_init__"] = vars(sys.modules["qdeco.hilbert"].DensityMatrix)[
        "__post_init__"]
    found["eigh"] = numpy.linalg.eigh
    found["eigvalsh"] = numpy.linalg.eigvalsh
    return found


def test_tracer_wraps_and_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert during[("qdeco.cli", "gauge_generator_diagonal")] is not before[
            ("qdeco.cli", "gauge_generator_diagonal")]
        assert during[("qdeco.field_decoherence", "to_natural")] is not before[
            ("qdeco.field_decoherence", "to_natural")]
        assert during["eigvalsh"] is not before["eigvalsh"]
        run._in_process(cli, ["tripartite", "--coeffs", "0.6,0.8", "--env-overlap", "0.3"])
    finally:
        tracer.restore()
    assert _bindings() == before
    assert tracer.missing == []
    times = tracer.layer_times()
    assert times["cli.run"].calls == 1
    assert times["hilbert.von_neumann_entropy"].calls == 1
    assert tracer.counters["hilbert.eig.calls"] >= 2
    assert sum(t.self_s for t in times.values()) == pytest.approx(times["cli.run"].total_s)


def _report(argv):
    code, out, err = run._in_process(cli, argv)
    assert code == 0 and err == ""
    assert checks.check(argv, out) is None, checks.check(argv, out)
    return out


def _edit(text, path, change):
    report = json.loads(text)
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return json.dumps(report)


JSON_CASES = [
    (["lattice", "superselect", "--sites", "2", "--emax", "1", "--left-field", "0"], [
        (("outputs", "physical_dim"), lambda v: v + 1),
        (("outputs", "sectors", "0"), lambda v: v + 1),
        (("outputs", "max_cross"), lambda v: 1e-6),
        (("outputs", "max_expectation_diff"), lambda v: 1e-6),
        (("outputs", "wilson_contrast_cross"), lambda v: 0),
    ]),
    (["lattice", "identity-check", "--sites", "3", "--emax", "2", "--seed", "3", "--trials", "3"], [
        (("outputs", "max_identity_residual"), lambda v: 1e-9),
        (("outputs", "max_kernel_residual"), lambda v: 1e-9),
        (("outputs", "flat_dim"), lambda v: v + 1),
        (("outputs", "physical_dim"), lambda v: v - 1),
    ]),
    (["dephasing", "--spins", "3", "--coupling", "0.5,1.0,1.5", "--t-max", "4", "--steps", "5"], [
        (("outputs", "final_coherence"), lambda v: v * 1.001),
        (("outputs", "max_oracle_deviation"), lambda v: 1e-6),
        (("outputs", "entropy_max_deviation"), lambda v: 1e-6),
        (("outputs", "entropy_monotone_in_coherence"), lambda v: False),
        (("rows", 2, "coherence"), lambda v: v + 1e-6),
        (("rows", 3, "entropy"), lambda v: v + 1e-6),
        (("rows",), lambda rows: rows[:-1]),
    ]),
    (["tripartite", "--coeffs", "0.6,0.8", "--env-overlap", "0.3"], [
        (("outputs", "coherence_norm"), lambda v: v + 1e-6),
        (("outputs", "entropy_nats"), lambda v: v + 1e-6),
        (("outputs", "purity"), lambda v: v + 1e-6),
    ]),
    (workloads.README_CLOSED_FORM[0], [
        (("outputs", "exponent"), lambda v: v * 1.01),
        (("outputs", "factor"), lambda v: v * 0.99),
    ]),
    (workloads.README_CLOSED_FORM[1], [(("outputs", "length_cm"), lambda v: v * 1.01)]),
    (workloads.README_CLOSED_FORM[2], [(("outputs", "t_min_s"), lambda v: v * 1.01)]),
    (workloads.README_CLOSED_FORM[3], [(("outputs", "length_cm"), lambda v: v * 1.01),
                                       (("subcommand",), lambda v: "field factor")]),
]


@pytest.mark.parametrize("argv,corruptions", JSON_CASES,
                         ids=[" ".join(argv[:2]) for argv, _ in JSON_CASES])
def test_checker_rejects_each_corrupted_report(argv, corruptions):
    good = _report(argv)
    for path, change in corruptions:
        assert checks.check(argv, _edit(good, path, change)) is not None, path
    assert checks.check(argv, good[:-10]) is not None


def test_checker_rejects_corrupted_csv():
    argv = [*workloads.README_DEPHASING, "--format", "csv"]
    good = _report(argv)
    lines = good.splitlines()
    t, coherence, entropy = lines[50].split(",")
    bad_coherence = lines[:50] + [f"{t},{float(coherence) + 1e-6!r},{entropy}"] + lines[51:]
    assert checks.check(argv, "\n".join(bad_coherence)) is not None
    assert checks.check(argv, "\n".join(lines[:-1])) is not None
    assert checks.check(argv, "\n".join(["t,c,s"] + lines[1:])) is not None


def test_charge_strings_count_physical_states():
    # One site, left field 0: any charge keeps |E_1| <= emax.
    assert checks.charge_string_sectors(1, 1, 0) == {-1: 1, 0: 1, 1: 1}
    # Two sites, left field 1, emax 1: E_1 = 1 + q_1 and E_2 = E_1 + q_2 stay in [-1, 1].
    assert checks.charge_string_sectors(2, 1, 1) == {0: 2, -1: 2, -2: 1}
