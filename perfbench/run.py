"""End-to-end and per-layer benchmark of the ``qdeco`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is not installed.

``--trace 0`` is a closed loop with one client: it repeats the workload's argv
cycle (see ``workloads.py``) as sequential ``qdeco`` subprocesses, started with
this interpreter and ``PYTHONPATH=src`` and nothing else changed in their
environment, until ``--seconds`` have passed and the last cycle is complete.
Every report is checked (``checks.py``) and compared byte for byte with the
first report of the same argv.

``--trace 1`` runs the same cycle in this process with the public functions of
each layer wrapped (``tracer.py``) and reports per-layer counts and self times.
It also times ``import qdeco.cli`` in fresh interpreters and probes the
``lattice superselect`` (3,1) command, which does not finish today, under a
time and memory budget.

The last line of standard output is one JSON object with the metrics that
``BENCHMARK.json`` names; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import workloads
from tracer import COUNTERS, TARGETS, WHOLE_MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# What the installed ``qdeco`` console script runs.
ENTRY = "import sys; from qdeco.cli import main; main()"
SETUP_REPEATS = 5
# A command still running after this is killed and counts as failed, so that a
# run ends in bounded time even if the program hangs.
COMMAND_SECONDS = 60
IMPORT_REPEATS = 5
TRACE_PASSES = 3
PROBE_ARGV = ["lattice", "superselect", "--sites", "3", "--emax", "1", "--left-field", "0"]
PROBE_SECONDS = 10
# Today the probe builds about 6 GB of dense candidate operators before it
# stalls; the limit turns that into a prompt MemoryError in the child.
PROBE_MEMORY_BYTES = 1 << 30


class SetupError(Exception):
    """The program cannot be started here; no result is printed."""


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Judge:
    """Counts commands and the ones that fail.

    A command fails on a non-zero exit, any stderr output, a report that
    differs from the first report of the same argv, or a failed output check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self._first: dict[tuple[str, ...], str] = {}
        self._verdicts: dict[tuple[str, ...], str | None] = {}

    def __call__(self, argv: list[str], code: int, out: str, err: str) -> bool:
        self.attempted += 1
        key = tuple(argv)
        if code != 0:
            reason = f"exit code {code}: {(err.strip().splitlines() or [''])[-1]}"
        elif err:
            reason = f"stderr: {err.strip().splitlines()[0]}"
        elif self._first.setdefault(key, out) != out:
            reason = "report differs from the first run of the same argv"
        else:
            if key not in self._verdicts:
                self._verdicts[key] = checks.check(argv, out)
            reason = self._verdicts[key]
        if reason is not None:
            self.failed += 1
            self.reasons[f"{' '.join(argv[:2])}: {reason}"] += 1
        return reason is None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args: list[str], env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              timeout=COMMAND_SECONDS)
    except subprocess.TimeoutExpired as exc:  # the child has been killed and reaped
        proc = subprocess.CompletedProcess(exc.cmd, -9, exc.stdout or b"",
                                           f"killed after {COMMAND_SECONDS} s".encode())
    return time.perf_counter() - start, proc


def _import_qdeco(env) -> float:
    wall, proc = _spawn(["-c", "import qdeco.cli"], env)
    if proc.returncode != 0 or proc.stderr:
        raise SetupError(f"import qdeco.cli failed: {proc.stderr.decode(errors='replace').strip()}")
    return wall


def _short(argv: list[str], width: int = 90) -> str:
    text = " ".join(argv)
    return text if len(text) <= width else text[: width - 3] + "..."


def run_subprocesses(workload: str, seed: int, seconds: float):
    env = child_env()
    argvs = workloads.cycle(workload, seed)
    setup = [_import_qdeco(env)]  # also fails early when the program cannot start

    judge = Judge()
    walls: list[list[float]] = [[] for _ in argvs]
    completed = 0
    setup_in_loop = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 - setup_in_loop < seconds:
        # One set-up sample per cycle, so that the samples span the run as the commands do.
        setup.append(_import_qdeco(env))
        setup_in_loop += setup[-1]
        for i, argv in enumerate(argvs):
            wall, proc = _spawn(["-c", ENTRY, *argv], env)
            walls[i].append(wall)
            completed += judge(argv, proc.returncode, proc.stdout.decode(), proc.stderr.decode())
    elapsed = time.perf_counter() - t0 - setup_in_loop
    while len(setup) < SETUP_REPEATS:
        setup.append(_import_qdeco(env))

    samples = [w for ws in walls for w in ws]
    beyond_p90 = sum(w > percentile(samples, 90) for w in samples)
    lines = [f"closed loop, 1 client, {len(samples)} commands in {elapsed:.2f} s "
             f"({len(samples) // len(argvs)} cycles of {len(argvs)}); "
             f"{beyond_p90} samples above cmd_ms.p90"]
    lines += [f"  n={len(ws):3d}  median {statistics.median(ws) * 1e3:8.1f} ms  {_short(argv)}"
              for argv, ws in zip(argvs, walls)]
    lines.append(f"  setup: import qdeco.cli x{len(setup)}: median {statistics.median(setup):.3f} s, "
                 f"range {min(setup):.3f} to {max(setup):.3f} s")
    metrics = {
        "cmd_per_s": completed / elapsed,
        "cmd_ms.p50": percentile(samples, 50) * 1e3,
        "cmd_ms.p90": percentile(samples, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "pass_ratio": (judge.attempted - judge.failed) / judge.attempted,
        "setup_s": statistics.median(setup),
    }
    return metrics, judge, lines


# ---------------------------------------------------------------------------
# traced run


def _in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _pass(cli, argvs, tracer: Tracer | None):
    outputs = []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.request = i
        outputs.append(_in_process(cli, argv))
    return time.perf_counter() - start, outputs


def _span_names() -> list[str]:
    return [name for _, _, name, _ in TARGETS if name] + list(WHOLE_MODULES.values())


def layer_metrics(tracer: Tracer, outputs) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers the pass never entered read 0."""
    metrics: dict[str, float] = {name: 0 for name in COUNTERS}
    times = tracer.layer_times()
    for name in _span_names():
        layer = times.get(name)
        metrics[f"{name}.calls"] = layer.calls if layer else 0
        metrics[f"{name}.self_ms"] = layer.self_s * 1e3 if layer else 0.0
        metrics[f"{name}.total_ms"] = layer.total_s * 1e3 if layer else 0.0
    metrics.update(tracer.counters)
    metrics["hilbert.DensityMatrix.validations"] = metrics["hilbert.DensityMatrix.calls"]
    metrics["cli.report_bytes"] = sum(len(out.encode()) for _, out, _ in outputs)
    metrics["trace.inprocess_ms"] = 1e3 * sum(
        s.end - s.start for s in tracer.spans if s.parent is None
    )
    return metrics


def _probe(env, judge: Judge) -> tuple[int, str]:
    limit = (f"import resource; resource.setrlimit(resource.RLIMIT_DATA, "
             f"({PROBE_MEMORY_BYTES}, {PROBE_MEMORY_BYTES})); ")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", limit + ENTRY, *PROBE_ARGV], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=PROBE_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return 0, f"killed at the {PROBE_SECONDS} s budget"
    wall = time.perf_counter() - start
    err_text = err.decode(errors="replace")
    if proc.returncode != 0 and "MemoryError" in err_text:
        return 0, f"stopped at the {PROBE_MEMORY_BYTES >> 20} MiB memory budget after {wall:.2f} s"
    ok = judge(PROBE_ARGV, proc.returncode, out.decode(), err_text)
    return int(ok), f"exit {proc.returncode} after {wall:.2f} s, report {'ok' if ok else 'failed'}"


def _import_ms(env) -> float:
    code = ("import time; t = time.perf_counter(); import qdeco.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    times = []
    for _ in range(IMPORT_REPEATS):
        _, proc = _spawn(["-c", code], env)
        if proc.returncode != 0:
            raise SetupError(f"import qdeco.cli failed: {proc.stderr.decode(errors='replace')}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_traced(workload: str, seed: int):
    env = child_env()
    sys.path.insert(0, str(SRC))
    import qdeco.cli as cli

    argvs = workloads.cycle(workload, seed)
    judge = Judge()
    passes: list[dict[str, float]] = []
    plain_walls, traced_walls = [], []
    missing: list[str] = []
    # The first pass lets numpy and BLAS finish their lazy set-up.
    _, warm = _pass(cli, argvs, None)
    for argv, (code, out, err) in zip(argvs, warm):
        judge(argv, code, out, err)
    for _ in range(TRACE_PASSES):
        wall, plain = _pass(cli, argvs, None)
        plain_walls.append(wall)
        tracer = Tracer()
        tracer.install()
        try:
            wall, traced = _pass(cli, argvs, tracer)
        finally:
            tracer.restore()
        traced_walls.append(wall)
        missing = tracer.missing
        passes.append(layer_metrics(tracer, traced))
        for outputs in (plain, traced):
            for argv, (code, out, err) in zip(argvs, outputs):
                judge(argv, code, out, err)

    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics["cli.import_ms"] = _import_ms(env)
    metrics["lattice_qed.probe_3_1.finished"], probe_note = _probe(env, judge)

    total = metrics["trace.inprocess_ms"]
    lines = [f"in-process cycle of {len(argvs)} argvs, {TRACE_PASSES} traced passes: "
             f"{total:.1f} ms traced, overhead x{metrics['trace.overhead_ratio']:.3f}",
             "  share of the traced pass, self and total (with the spans it calls):"]
    shares = sorted(((metrics[f"{n}.self_ms"], metrics[f"{n}.total_ms"], n)
                     for n in _span_names()), reverse=True)
    lines += [f"    {ms / total:6.1%} {ms_total / total:6.1%}  {ms:9.2f} ms  {name}"
              for ms, ms_total, name in shares if ms_total > 0]
    lines.append(f"  probe {' '.join(PROBE_ARGV)}: {probe_note}")
    if missing:
        lines.append(f"  not found, reported as 0: {', '.join(missing)}")
    return metrics, judge, lines


# ---------------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(workload: str, seed: int) -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "qdeco" / "cli.py").is_file():
        print(f"perfbench: no qdeco sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, judge, lines = run_traced(args.workload, args.seed)
        else:
            metrics, judge, lines = run_subprocesses(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for reason, count in sorted(judge.reasons.items()):
        print(f"  FAILED x{count}: {reason}")
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
