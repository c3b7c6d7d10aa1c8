import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import qdeco.cli as cli
import qdeco.lattice_qed as lattice_qed
from qdeco.cli import run
from qdeco.decoherence import NORM_TOL
from qdeco.hilbert import DENSE_OPERATOR_LIMIT
from qdeco.lattice_qed import ENUMERATION_LIMIT

from frontier import MAX_BRANCHES, lattice_shapes, superselect, tripartite
from oracles import brute_force_gauss_kernel, brute_operator_count

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


README_ARGVS = [
    ["tripartite", "--coeffs", "0.7071067811865476,0.7071067811865476", "--env-overlap", "0.2"],
    ["dephasing", "--spins", "8", "--coupling", "1.0", "--t-max", "6.0", "--steps", "100",
     "--format", "csv"],
    ["lattice", "superselect", "--sites", "2", "--emax", "1", "--left-field", "0"],
    ["lattice", "identity-check", "--sites", "3", "--emax", "2", "--seed", "42"],
    ["field", "factor", "--volume-cm3", "1e-12", "--efield-v-per-cm", "1e7"],
    ["field", "coherence-length", "--efield-v-per-cm", "1e7"],
    ["field", "validity-time", "--efield-v-per-cm", "1e7"],
    ["thermal", "length", "--time-s", "1"],
]


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def columns(rows, keys):
    """A sweep's float64 columns by name, from its rows."""
    return {k: np.array([float(r[i]) for r in rows]) for i, k in enumerate(keys)}


def render_csv(outputs, sweep=None):
    return cli._render(("dephasing",), {}, outputs, sweep, "csv")


class TestEmitSweep:
    """The sweep and the scalar row as the ``dephasing`` report renders them."""

    def test_single_row_csv(self):
        text = render_csv({}, columns([(1.0, 0.1)], ["t_s", "l_cm"]))
        assert text == "t_s,l_cm\n1,0.1\n"

    def test_empty_rows_header_only(self):
        empty = columns([], ["a", "b"])
        assert render_csv({}, empty) == "a,b\n"
        assert cli._to_json(cli._Sweep(empty)) == "[]"

    def test_csv_round_trip_at_12_digits(self):
        rows = [
            (t, math.cos(0.37 * t) ** 2, math.exp(-0.11 * t))
            for t in [k * 0.173 for k in range(100)]
        ]
        text = render_csv({}, columns(rows, ["t", "coherence", "entropy"]))
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 100
        for row, (t, c, s) in zip(parsed, rows):
            for key, ref in (("t", t), ("coherence", c), ("entropy", s)):
                assert format(float(row[key]), ".12g") == format(ref, ".12g")

    def test_non_finite_value_refused_first_in_row_order(self):
        for rows, first in [
            ([(1.0, 2.0), (3.0, math.inf), (math.nan, 4.0)], "inf"),
            ([(1.0, 2.0), (-math.inf, math.nan)], "-inf"),
            ([(1.0, math.nan), (math.inf, 4.0)], "nan"),
        ]:
            # "b" sorts before "z": JSON writes the columns in another order than CSV
            sweep = columns(rows, ["z", "b"])
            message = f"^refusing to serialize non-finite value {first}$"
            with pytest.raises(ValueError, match=message):
                render_csv({}, sweep)
            with pytest.raises(ValueError, match=message):
                cli._to_json({"rows": cli._Sweep(sweep)})

    def test_integers_keep_every_digit(self):
        assert render_csv({"n": 10**13, "x": 0.5}) == "n,x\n10000000000000,0.5\n"

    @pytest.mark.parametrize("rows", [
        [(0.0, 0.5, -1e-20), (1e300, -0.0, 0.1 + 0.2)],
        [(1, 2.5, 10**13)],
        [],
    ])
    def test_json_rows_match_one_object_per_row(self, rows):
        header = ["t", "coherence", "entropy"]
        objects = [dict(zip(header, map(float, r))) for r in rows]
        want = cli._to_json({"rows": objects, "tool": "qdeco"})
        sweep = cli._Sweep(columns(rows, header))
        assert cli._to_json({"rows": sweep, "tool": "qdeco"}) == want


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_capture(capsys, ["warp"])
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_capture(capsys, ["thermal", "length", "--time-s", "1", "--bogus", "2"])
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, err = run_capture(capsys, ["thermal", "length"])
        assert code == 2
        assert "--time-s" in err

    def test_unparseable_value(self, capsys):
        code, _, _ = run_capture(capsys, ["thermal", "length", "--time-s", "soon"])
        assert code == 2

    def test_validation_failure(self, capsys):
        code, _, err = run_capture(capsys, ["thermal", "length", "--time-s", "0"])
        assert code == 1
        assert "validation" in err

    def test_zero_field_is_validation_failure(self, capsys):
        code, _, _ = run_capture(capsys, ["field", "coherence-length", "--efield-v-per-cm", "0"])
        assert code == 1

    def test_success(self, capsys):
        code, out, _ = run_capture(capsys, ["thermal", "length", "--time-s", "1"])
        assert code == 0
        assert json.loads(out)["outputs"]["length_cm"] == 0.1

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "coherence-length", "--efield-v-per-cm", "inf"],
            ["field", "factor", "--volume-cm3", "1", "--efield-v-per-cm=-inf"],
            ["field", "validity-time", "--efield-v-per-cm", "nan"],
            ["thermal", "length", "--time-s", "inf"],
            ["thermal", "length", "--time-s", "1", "--lambda-cm2s", "nan"],
            ["tripartite", "--coeffs", "0.6,0.8", "--env-overlap", "nan"],
            ["tripartite", "--coeffs", "0.6,inf", "--env-overlap", "0.2"],
            ["dephasing", "--spins", "2", "--coupling", "1,nan", "--t-max", "1",
             "--steps", "3"],
            ["dephasing", "--spins", "1", "--coupling", "1", "--t-max", "inf",
             "--steps", "3"],
        ],
    )
    def test_non_finite_float_is_usage_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "finite" in err

    @pytest.mark.parametrize(
        "head,flag,value,tail",
        [
            (["field", "coherence-length"], "--efield-v-per-cm", "-1e7", []),
            (["field", "factor", "--volume-cm3", "1e-12"], "--efield-v-per-cm", "-1E+7", []),
            (["dephasing", "--spins", "2"], "--coupling", "-.5e1,2",
             ["--t-max", "1", "--steps", "3"]),
            (["tripartite", "--env-overlap", "-2e-1"], "--coeffs", "-0.6,8e-1", []),
        ],
    )
    def test_negative_number_after_a_flag(self, capsys, head, flag, value, tail):
        code, spaced, err = run_capture(capsys, [*head, flag, value, *tail])
        assert (code, err) == (0, "")
        code, joined, _ = run_capture(capsys, [*head, f"{flag}={value}", *tail])
        assert code == 0
        assert spaced == joined

    def test_unknown_flag_after_negative_value(self, capsys):
        code, out, _ = run_capture(
            capsys, ["field", "coherence-length", "--efield-v-per-cm", "-1e7", "-e7"]
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["warp"],
            ["lattice"],
            ["thermal", "length", "--time-s", "1", "--bogus", "2"],
            ["field", "coherence-length", "--efield-v-per-cm", "-inf"],
            ["thermal", "length", "--time-s", "1", "--format", "xml"],
        ],
        ids=["unknown-subcommand", "missing-subcommand", "unknown-flag", "-inf", "format-xml"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("qdeco: error: ")

    def test_help_still_prints_usage(self, capsys):
        code, out, err = run_capture(capsys, ["thermal", "length", "-h"])
        assert code == 0
        assert out.startswith("usage: qdeco thermal length")
        assert err == ""

    def test_memory_error_is_exit_1(self, capsys, monkeypatch):
        def exhausted(values):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setitem(cli.COMMANDS[("thermal", "length")], "run", exhausted)
        code, out, err = run_capture(capsys, ["thermal", "length", "--time-s", "1"])
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "out of memory" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_scalar_output_is_refused(self, capsys, monkeypatch, fmt):
        # no runner returns a non-finite scalar today; the renderer refuses one anyway
        def non_finite(values):
            return {"length_cm": math.nan}, None

        monkeypatch.setitem(cli.COMMANDS[("thermal", "length")], "run", non_finite)
        argv = ["thermal", "length", "--time-s", "1", "--format", fmt]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "qdeco: validation error: refusing to serialize non-finite value nan\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "coherence-length", "--efield-v-per-cm", "1e-291", "--threshold", "1e308"],
            ["field", "factor", "--volume-cm3", "1e300", "--efield-v-per-cm", "1e300"],
            ["field", "factor", "--volume-cm3", "0", "--efield-v-per-cm", "1e300"],
            ["field", "coherence-length", "--efield-v-per-cm", "3.5e-292", "--threshold", "1e308"],
            ["dephasing", "--spins", "2", "--coupling", "1e300", "--t-max", "1e10",
             "--steps", "3"],
            ["thermal", "length", "--time-s", "1e-310", "--lambda-cm2s", "1e-310"],
        ],
    )
    def test_out_of_range_result_is_one_validation_line(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("qdeco: validation error: ")
        assert "overflows" in err
        assert "serialize" not in err

    @pytest.mark.parametrize(
        "argv,key,expected",
        [
            (["field", "coherence-length", "--efield-v-per-cm", "1e300"], "length_cm",
             2.53129116816e-199),
            (["thermal", "length", "--time-s", "1e300", "--lambda-cm2s", "1e300"], "length_cm",
             1e-300),
        ],
    )
    def test_tiny_length_is_reported_not_zero(self, capsys, argv, key, expected):
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["outputs"][key] == pytest.approx(expected, rel=1e-11, abs=0)

    def test_huge_threshold_is_reported(self, capsys):
        argv = ["field", "coherence-length", "--efield-v-per-cm", "1e7", "--threshold", "1e305"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["outputs"]["length_cm"] == pytest.approx(2.53129116816e98, rel=1e-11)

    @pytest.mark.parametrize("command", ["coherence-length", "validity-time"])
    def test_field_lost_in_conversion_is_not_a_zero_field(self, capsys, command):
        code, out, err = run_capture(capsys, ["field", command, "--efield-v-per-cm", "1e-320"])
        assert (code, out) == (1, "")
        assert err == "qdeco: validation error: electric field underflows double precision\n"
        code, out, err = run_capture(capsys, ["field", command, "--efield-v-per-cm", "0"])
        assert (code, out) == (1, "")
        assert err.endswith("diverges for zero field\n")

    @pytest.mark.parametrize("command", ["coherence-length", "validity-time"])
    def test_subnormal_field_is_refused(self, capsys, command):
        # below about 3.4e-292 V/cm the field is a subnormal number of MeV^2
        code, out, err = run_capture(capsys, ["field", command, "--efield-v-per-cm", "1e-300"])
        assert (code, out) == (1, "")
        assert err == "qdeco: validation error: electric field underflows double precision\n"

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--seed", "-5", "seed must be >= 0"), ("--trials", "0", "trials must be >= 1")],
    )
    def test_identity_check_seed_and_trials_refused(self, capsys, flag, value, message):
        argv = ["lattice", "identity-check", "--sites", "2", "--emax", "1", "--seed", "3",
                flag, value]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"qdeco: validation error: {message}\n"

    def test_identity_check_over_its_cost_bound_refused_before_enumerating(
        self, capsys, monkeypatch
    ):
        # at about 0.1 ms per (4,1) trial, 1e8 trials would run for hours
        def enumerate_spec(spec):
            raise AssertionError("enumerated a refused spec")

        monkeypatch.setattr(lattice_qed, "_config_table", enumerate_spec)
        argv = ["lattice", "identity-check", "--sites", "4", "--emax", "1", "--seed", "1",
                "--trials", "100000000"]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            "qdeco: validation error: 100000000 trials x (flat dimension 6561 + 2500)"
            " exceeds bound 150000000\n"
        )

    def test_identity_check_cost_bound_admits_the_benchmark_inputs(self):
        # the largest benchmark input, (4,1) x 200 trials, by a wide margin
        largest = 200 * (6561 + cli._IDENTITY_TRIAL_ENTRIES)
        assert 50 * largest < cli._IDENTITY_ENTRY_BOUND

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["lattice", "superselect", "--sites", "1000000000", "--emax", "1",
              "--left-field", "0"],
             "flat dimension 9^1000000000 exceeds enumeration bound 20000"),
            (["lattice", "identity-check", "--sites", "1000000000", "--emax", "1",
              "--seed", "1"],
             "flat dimension 9^1000000000 exceeds enumeration bound 20000"),
            (["lattice", "superselect", "--sites", "60", "--emax", "1", "--left-field", "0"],
             "flat dimension 9^60 exceeds enumeration bound 20000"),
            (["lattice", "identity-check", "--sites", "1000", "--emax", "1", "--seed", "1"],
             "flat dimension 9^1000 exceeds enumeration bound 20000"),
        ],
        ids=["superselect-1e9", "identity-1e9", "superselect-60", "identity-1000"],
    )
    def test_oversized_lattice_refused_at_once_on_a_short_line(self, capsys, argv, message):
        # 3^N (2e+1)^N has about N digits: forming it takes seconds at 1e6 sites,
        # and Python prints no integer of more than 4300 digits
        start = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "")
        assert err == f"qdeco: validation error: {message}\n"
        assert len(err) <= 121  # one line of at most 120 characters
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "sites,emax,dim",
        [(5, 1, "9^5"), (4, 2, "50625"), (7, 1, "9^7"), (60, 1, "9^60"),
         (1000, 1, "9^1000"), (10**9, 1, "9^1000000000")],
    )
    def test_both_lattice_commands_refuse_an_oversized_lattice_alike(
        self, capsys, monkeypatch, sites, emax, dim
    ):
        line = f"qdeco: validation error: flat dimension {dim} exceeds enumeration bound 20000\n"
        spec = ["--sites", str(sites), "--emax", str(emax)]
        code, out, err = run_capture(
            capsys, ["lattice", "superselect", *spec, "--left-field", "0"])
        assert (code, out, err) == (1, "", line)

        def enumerate_spec(spec):
            raise AssertionError("enumerated a refused spec")

        # identity-check refuses before it asks for a configuration table
        monkeypatch.setattr(lattice_qed, "_config_table", enumerate_spec)
        code, out, err = run_capture(capsys, ["lattice", "identity-check", *spec, "--seed", "1"])
        assert (code, out, err) == (1, "", line)

    def test_dephasing_spins_below_one_refused(self, capsys):
        argv = ["dephasing", "--spins", "-5", "--coupling", "1", "--t-max", "1", "--steps", "3"]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "qdeco: validation error: spins must be >= 1\n"

    @pytest.mark.parametrize(
        "argv,code,line",
        [
            (["dephasing", "--spins", "3", "--coupling", "1,2", "--t-max", "1", "--steps", "5"],
             1, "qdeco: validation error: need 1 or 3 couplings, got 2"),
            (["dephasing", "--spins", "3", "--coupling", "1", "--t-max", "1", "--steps", "0"],
             1, "qdeco: validation error: steps must be >= 1"),
            (["tripartite", "--coeffs", "0.6,x", "--env-overlap", "0.2"],
             2, "qdeco: error: expected comma-separated floats, got '0.6,x'"),
            (["dephasing", "--spins", "x", "--coupling", "1", "--t-max", "1", "--steps", "5"],
             2, "qdeco: error: expected an integer, got 'x'"),
            (["tripartite", "--coeffs", "1e200,1e200", "--env-overlap", "0"],
             1, "qdeco: validation error: correlated state has norm inf, expected 1; "
                "adjust the coefficients for the given branch overlaps"),
            (["tripartite", "--coeffs", "0.6,,0.8", "--env-overlap", "0"],
             2, "qdeco: error: expected comma-separated floats, got '0.6,,0.8'"),
            (["tripartite", "--coeffs", "0.6,0.8,", "--env-overlap", "0"],
             2, "qdeco: error: expected comma-separated floats, got '0.6,0.8,'"),
            # finite bath phases whose cosines double precision no longer pins to 1e-10
            (["dephasing", "--spins", "12", "--coupling", "1e150", "--t-max", "1e150",
              "--steps", "3"],
             1, "qdeco: validation error: bath phase t_max N max|g| = 1.2e+301 exceeds 100000;"
                " double precision cannot resolve it to 1e-10"),
            (["dephasing", "--spins", "1", "--coupling", "-114.58988971867777",
              "--t-max", "6985.304390072021", "--steps", "51"],
             1, "qdeco: validation error: bath phase t_max N max|g| = 800445.25971 exceeds"
                " 100000; double precision cannot resolve it to 1e-10"),
        ],
        ids=["coupling-count", "zero-steps", "float-list", "integer", "norm-overflow",
             "empty-entry", "trailing-comma", "phase-1e301", "phase-8e5"],
    )
    def test_refusal_is_its_one_line(self, capsys, argv, code, line):
        assert run_capture(capsys, argv) == (code, "", line + "\n")

    def test_dephasing_over_the_bath_bound_refused_before_repeating_the_coupling(self, capsys):
        # one coupling repeated 1e9 times would take about 16 GB
        argv = ["dephasing", "--spins", "1000000000", "--coupling", "1", "--t-max", "1",
                "--steps", "3"]
        tracemalloc.start()
        try:
            code, out, err = run_capture(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (
            "qdeco: validation error: bath_size 1000000000 exceeds the 2^N bath-energy table"
            " bound 12\n"
        )
        assert peak < 2**20

    def test_dephasing_over_the_steps_bound_refused_before_the_time_grid(
        self, capsys, monkeypatch
    ):
        # 1e8 steps would take about 56 GB of report; the time grid alone 800 MB
        def evolve(model, times):
            raise AssertionError("evolved a refused input")

        monkeypatch.setattr(cli, "spin_bath_evolve", evolve)
        for steps in (cli._DEPHASING_STEP_BOUND + 1, 100_000_000):
            argv = ["dephasing", "--spins", "12", "--coupling", "1", "--t-max", "6",
                    "--steps", str(steps)]
            tracemalloc.start()
            try:
                code, out, err = run_capture(capsys, argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out) == (1, "")
            assert err == (
                f"qdeco: validation error: {steps} steps x 435 B exceeds the 256 MiB report"
                " bound of 617093 steps\n"
            )
            assert peak < 2**20

    def test_dephasing_steps_bound_admits_its_own_value(self, capsys, monkeypatch):
        class Admitted(Exception):
            pass

        def evolve(model, times):
            assert len(times) == cli._DEPHASING_STEP_BOUND
            raise Admitted

        monkeypatch.setattr(cli, "spin_bath_evolve", evolve)
        argv = ["dephasing", "--spins", "12", "--coupling", "1", "--t-max", "6",
                "--steps", str(cli._DEPHASING_STEP_BOUND)]
        with pytest.raises(Admitted):
            run(argv)

    def test_dephasing_one_step_refused_unless_t_max_is_zero(self, capsys, monkeypatch):
        # np.linspace(0, t_max, 1) is [0.0]: the report would end at t = 0, not t_max
        def evolve(model, times):
            raise AssertionError("evolved a refused input")

        monkeypatch.setattr(cli, "spin_bath_evolve", evolve)
        argv = ["dephasing", "--spins", "11", "--coupling", "-2.874411", "--t-max", "10.0803",
                "--steps", "1"]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            "qdeco: validation error: one step samples only t = 0, not t_max = 10.0803;"
            " use --steps >= 2\n"
        )
        monkeypatch.undo()
        argv[argv.index("--t-max") + 1] = "0"
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["outputs"]["final_coherence"] == 1

    @pytest.mark.parametrize("couplings,steps,energies", [
        # 1427 distinct bath energies x 475 107 times ran for about 12 s unbounded
        ("0.11,0.23,0.31,0.43,0.57,0.61,0.73,0.89,0.97,1.03,1.19,1.31", 475107, 1427),
        # no two signed sums equal: 2^12 energies, admitted up to 36 621 steps
        ("0.239188,0.386424,0.505545,0.710262,0.983419,1.142917,1.343306,1.518467,"
         "1.790003,1.975218,0.61,1.23", 36622, 4096),
    ], ids=["two-decimal", "generic"])
    def test_dephasing_over_the_phase_table_bound_refused_at_once(
        self, capsys, couplings, steps, energies
    ):
        argv = ["dephasing", "--spins", "12", "--coupling", couplings, "--t-max", "6",
                "--steps", str(steps)]
        start = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "")
        assert err == (
            f"qdeco: validation error: {energies} distinct bath energies x {steps} times"
            " exceeds bound 150000000\n"
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [
        ["dephasing", "--spins", "12", "--coupling", "1.470366", "--t-max", "6.0",
         "--steps", "2000"],
        ["dephasing", "--spins", "10", "--coupling",
         "0.239188,0.386424,0.505545,0.710262,0.983419,1.142917,1.343306,1.518467,1.790003,"
         "1.975218", "--t-max", "6.0", "--steps", "1000"],
        README_ARGVS[1],
    ], ids=["uniform-12", "distinct-10", "readme"])
    def test_dephasing_phase_table_bound_admits_the_benchmark_inputs(self, capsys, argv):
        # the distinct bath has K = 2^10 energies: 1.0e6 entries at 1000 times
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")

    def test_dephasing_steps_bound_admits_the_benchmark_inputs(self):
        # the benchmark's dephasing runs take at most 2000 steps
        assert 100 * 2000 < cli._DEPHASING_STEP_BOUND

    def test_unwritable_out_is_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_capture(
            capsys, ["thermal", "length", "--time-s", "1", "--out", str(target)]
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("qdeco: error: cannot write report: ")
        assert not target.exists()

    @staticmethod
    def _command(argv, stdout):
        """``qdeco argv`` as the console script runs it, in a fresh process, stdout buffered."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run([sys.executable, "-c", "from qdeco.cli import main; main()", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**env, "PYTHONPATH": SRC})

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_is_exit_2(self):
        # a report of a few hundred bytes stays in stdout's buffer until the flush
        with open("/dev/full", "w") as full:
            proc = self._command(["thermal", "length", "--time-s", "1"], full)
        assert proc.returncode == 2
        assert proc.stderr.startswith("qdeco: error: cannot write report: ")
        assert len(proc.stderr.splitlines()) == 1 and "No space left" in proc.stderr

    def test_closed_pipe_is_exit_2(self, capsys):
        argv = ["dephasing", "--spins", "8", "--coupling", "1.0", "--t-max", "6.0",
                "--steps", "2000", "--format", "csv"]
        code, out, _ = run_capture(capsys, argv)
        # more than a pipe holds, so the write must reach the reader
        assert code == 0 and len(out) > 2**16
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._command(argv, write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("qdeco: error: cannot write report: ")
        assert len(proc.stderr.splitlines()) == 1 and "Broken pipe" in proc.stderr


class TestReports:
    def test_coherence_length_report(self, capsys):
        code, out, _ = run_capture(
            capsys, ["field", "coherence-length", "--efield-v-per-cm", "1e7"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["tool"] == "qdeco"
        assert report["provenance"]["version"]
        assert report["subcommand"] == "field coherence-length"
        assert report["outputs"]["length_cm"] == pytest.approx(5.45e-4, rel=1e-2)
        assert report["inputs"]["efield_v_per_cm"] == 1e7

    def test_superselect_report(self, capsys):
        code, out, _ = run_capture(
            capsys, ["lattice", "superselect", "--sites", "2", "--emax", "1",
                     "--left-field", "0"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["physical_dim"] == 7
        assert report["outputs"]["max_cross"] <= 1e-12
        assert report["outputs"]["sectors"] == {"-1": 2, "0": 3, "1": 2}
        assert report["outputs"]["wilson_contrast_cross"] > 0.1

    def test_superselect_beyond_the_dense_bound(self, capsys):
        code, out, _ = run_capture(
            capsys, ["lattice", "superselect", "--sites", "3", "--emax", "1",
                     "--left-field", "0"]
        )
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["max_cross"] <= 1e-12
        assert outputs["physical_dim"] == len(brute_force_gauss_kernel(3, 1, 0))
        assert outputs["wilson_contrast_cross"] > 0

    def test_superselect_beyond_the_enumeration_bound(self, capsys):
        code, out, err = run_capture(
            capsys, ["lattice", "superselect", "--sites", "4", "--emax", "2",
                     "--left-field", "0"]
        )
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    def test_identity_check_report(self, capsys):
        code, out, _ = run_capture(
            capsys, ["lattice", "identity-check", "--sites", "2", "--emax", "1",
                     "--seed", "5"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["max_identity_residual"] <= 1e-12
        assert report["outputs"]["max_kernel_residual"] <= 1e-12
        assert report["provenance"]["seed"] == 5

    def test_dephasing_csv_sweep(self, capsys):
        code, out, _ = run_capture(
            capsys, ["dephasing", "--spins", "2", "--coupling", "1.0",
                     "--t-max", "1.0", "--steps", "4", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,coherence,entropy"
        assert len(lines) == 5

    def test_dephasing_json_has_rows_and_oracle(self, capsys):
        code, out, _ = run_capture(
            capsys, ["dephasing", "--spins", "3", "--coupling", "0.5,1.0,1.5",
                     "--t-max", "2.0", "--steps", "7"]
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 7
        assert report["outputs"]["max_oracle_deviation"] <= 1e-10
        assert report["outputs"]["entropy_max_deviation"] <= 1e-9

    def test_dephasing_largest_bath_json_and_csv_agree(self, capsys):
        argv = ["dephasing", "--spins", "12", "--coupling", "0.759641",
                "--t-max", "6.0", "--steps", "2000"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 2000
        assert report["outputs"]["max_oracle_deviation"] <= 1e-10
        code, out, _ = run_capture(capsys, [*argv, "--format", "csv"])
        assert code == 0
        csv_rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(out))]
        assert csv_rows == report["rows"]

    def test_tripartite_report(self, capsys):
        c = 1.0 / math.sqrt(2.0)
        code, out, _ = run_capture(
            capsys, ["tripartite", "--coeffs", f"{c},{c}", "--env-overlap", "0.2"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["coherence_norm"] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("n,code", [(MAX_BRANCHES, 0), (MAX_BRANCHES + 1, 1)])
    def test_tripartite_reduced_state_bound(self, capsys, n, code):
        # n branches give a (system, apparatus) dimension of n^2; the bound is 2048
        got, out, err = run_capture(capsys, tripartite(n))
        assert got == code
        if code:
            assert out == ""
            assert err == (
                f"qdeco: validation error: reduced state dimension {n * n}"
                f" exceeds dense bound {DENSE_OPERATOR_LIMIT}\n"
            )
        else:
            assert err == ""
            assert json.loads(out)["outputs"]["coherence_norm"] == pytest.approx(0.3, abs=1e-12)

    def test_tripartite_over_the_bound_refused_before_the_state(self, capsys):
        # 200 branches would build 200^3 complex amplitudes (128 MB) first;
        # 1000 would form a 1000 x 1000 Gram matrix and its eigh even before that
        for n, limit_mib in [(200, 16), (1000, 4)]:
            coeffs = ",".join([repr(n**-0.5)] * n)
            tracemalloc.start()
            try:
                got, out, err = run_capture(
                    capsys, ["tripartite", "--coeffs", coeffs, "--env-overlap", "0.3"]
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (got, out) == (1, "")
            assert err == (
                f"qdeco: validation error: reduced state dimension {n * n} "
                "exceeds dense bound 2048\n"
            )
            assert peak < limit_mib * 2**20

    def test_tripartite_bad_coeffs_is_validation_error(self, capsys):
        code, _, _ = run_capture(
            capsys, ["tripartite", "--coeffs", "1.0,1.0", "--env-overlap", "0.2"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv,name,constant",
        [
            (README_ARGVS[0], "state_norm", NORM_TOL),
        ],
    )
    def test_tolerances_are_the_library_constants(self, capsys, argv, name, constant):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        assert json.loads(out)["provenance"]["tolerances"][name] == constant

    def test_inputs_list_the_expanded_couplings(self, capsys):
        _, out, _ = run_capture(capsys, README_ARGVS[1][:-2])
        assert json.loads(out)["inputs"]["coupling"] == [1.0] * 8

    def test_scalar_csv_format(self, capsys):
        # a nested output, superselect's sectors, flattens to one column per key
        cases = [
            (["thermal", "length", "--time-s", "1"], ["length_cm", "0.1"]),
            (["lattice", "superselect", "--sites", "2", "--emax", "1", "--left-field", "0"],
             ["max_cross,max_expectation_diff,n_operators,physical_dim,sector_minus,"
              "sector_plus,sectors_-1,sectors_0,sectors_1,wilson_contrast_cross",
              "0,0,45,7,-1,1,2,3,2,0.816496580928"]),
        ]
        for argv, lines in cases:
            code, out, _ = run_capture(capsys, [*argv, "--format", "csv"])
            assert code == 0
            assert out.split("\n") == [*lines, ""]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "coherence-length", "--efield-v-per-cm", "1e7"],
            ["lattice", "identity-check", "--sites", "2", "--emax", "1", "--seed", "11"],
            ["dephasing", "--spins", "2", "--coupling", "1.0", "--t-max", "1.0",
             "--steps", "5", "--format", "csv"],
        ],
    )
    def test_repeat_invocations_identical(self, capsys, argv):
        _, out1, _ = run_capture(capsys, argv)
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2

    def test_identity_check_draws_from_the_seeded_mersenne_twister(self, capsys, monkeypatch):
        # per trial: the site values, then the left value, then the asymptotic value
        drawn = []
        generator = cli.gauge_generator_diagonal

        def recording(spec, xi):
            drawn.append((*xi.values.tolist(), xi.left_value, xi.asymptotic_value))
            return generator(spec, xi)

        monkeypatch.setattr(cli, "gauge_generator_diagonal", recording)
        argv = ["lattice", "identity-check", "--sites", "2", "--emax", "1", "--seed", "7",
                "--trials", "3"]
        assert run(argv) == run(argv) == 0
        capsys.readouterr()
        rng = random.Random(7)
        trials = [tuple(rng.uniform(-1.0, 1.0) for _ in range(4)) for _ in range(3)]
        assert drawn == trials + trials

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_capture(
            capsys, ["thermal", "length", "--time-s", "4"]
        )
        code2 = run(["thermal", "length", "--time-s", "4", "--out", str(path)])
        capsys.readouterr()
        assert code == code2 == 0
        assert path.read_text() == out

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_capture(capsys, ["thermal", "length", "--time-s", "1"])
        report = json.loads(out)
        assert list(report) == sorted(report)
        assert list(report["outputs"]) == sorted(report["outputs"])


class TestConfigFile:
    def test_values_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# thermal length\n\ntime_s = 1\nlambda_cm2s = 100  # default rate\n")
        code, out, _ = run_capture(capsys, ["thermal", "length", "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["outputs"]["length_cm"] == 0.1

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("time_s = 1\n")
        code, out, _ = run_capture(
            capsys, ["thermal", "length", "--config", str(cfg), "--time-s", "100"]
        )
        assert code == 0
        assert json.loads(out)["outputs"]["length_cm"] == pytest.approx(0.01)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("time_s = 1\ntemperature = 300\n")
        code, _, err = run_capture(capsys, ["thermal", "length", "--config", str(cfg)])
        assert code == 2
        assert "temperature" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_capture(
            capsys, ["thermal", "length", "--config", str(tmp_path / "nope.cfg")]
        )
        assert code == 2

    def test_byte_order_mark_is_not_part_of_the_first_key(self, capsys, tmp_path):
        # Windows editors may begin a UTF-8 file with the mark EF BB BF
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfsites = 2\nemax = 1\nleft_field = 0\n")
        argv = ["lattice", "superselect", "--sites", "2", "--emax", "1", "--left-field", "0"]
        code, from_flags, _ = run_capture(capsys, argv)
        assert code == 0
        code, from_config, err = run_capture(
            capsys, ["lattice", "superselect", "--config", str(cfg)])
        assert (code, err) == (0, "")
        assert from_config == from_flags

    def test_undecodable_config_refused_in_one_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"spins = 3\xff\n")
        code, out, err = run_capture(capsys, [
            "dephasing", "--config", str(cfg), "--coupling", "1", "--t-max", "1", "--steps", "3"])
        assert (code, out) == (2, "")
        assert err.startswith("qdeco: error: cannot read config: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", README_ARGVS, ids=[" ".join(a[:2]) for a in README_ARGVS])
    def test_config_report_matches_flags(self, capsys, tmp_path, argv):
        start = next(i for i, a in enumerate(argv) if a.startswith("--"))
        head, flags = argv[:start], dict(zip(argv[start::2], argv[start + 1::2]))
        fmt = ["--format", flags.pop("--format")] if "--format" in flags else []
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{f[2:].replace('-', '_')} = {v}\n" for f, v in flags.items()))
        code, from_flags, _ = run_capture(capsys, argv)
        assert code == 0
        code, from_config, err = run_capture(capsys, [*head, "--config", str(cfg), *fmt])
        assert (code, err) == (0, "")
        assert from_config == from_flags

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("time_s 1\n")
        code, _, _ = run_capture(capsys, ["thermal", "length", "--config", str(cfg)])
        assert code == 2


class TestTripartiteEdgeCases:
    def test_identical_environments_allowed(self, capsys):
        c = 1.0 / math.sqrt(2.0)
        code = run(["tripartite", "--coeffs", f"{c},{c}", "--env-overlap", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["outputs"]["coherence_norm"] == pytest.approx(1.0)

    def test_pure_state_reports_positive_zero_entropy(self, capsys):
        argv = ["tripartite", "--coeffs", "0.6,0.8", "--env-overlap", "1"]
        assert run(argv) == 0
        assert '"entropy_nats": 0,' in capsys.readouterr().out
        assert run([*argv, "--format", "csv"]) == 0
        assert "-0" not in capsys.readouterr().out

    def test_inadmissible_overlap_rejected(self, capsys):
        code = run(["tripartite", "--coeffs", "0.5,0.5,0.5,0.5", "--env-overlap", "-0.9"])
        capsys.readouterr()
        assert code == 1


class TestFrontier:
    """The largest admitted lattice of every shape finishes; one step past each is refused.

    ``TestReports.test_tripartite_reduced_state_bound`` does the same for
    ``tripartite``.
    """

    @pytest.mark.parametrize("sites,e_max", lattice_shapes())
    def test_superselect_at_the_enumeration_frontier(self, capsys, sites, e_max):
        code, out, err = run_capture(capsys, superselect(sites, e_max))
        assert (code, err) == (0, "")
        outputs = json.loads(out)["outputs"]
        assert outputs["n_operators"] == brute_operator_count(sites, e_max, 0)
        assert outputs["max_cross"] <= 1e-12

        past = (3 * (2 * e_max + 3)) ** sites  # the flat dimension at e_max + 1
        line = f"flat dimension {past} exceeds enumeration bound {ENUMERATION_LIMIT}"
        assert run_capture(capsys, superselect(sites, e_max + 1)) == (
            1, "", f"qdeco: validation error: {line}\n"
        )

    def test_superselect_refuses_every_field_one_site_past_the_frontier(self, capsys):
        sites = len(lattice_shapes()) + 1
        line = f"flat dimension 9^{sites} exceeds enumeration bound {ENUMERATION_LIMIT}"
        assert run_capture(capsys, superselect(sites, 1)) == (
            1, "", f"qdeco: validation error: {line}\n"
        )
