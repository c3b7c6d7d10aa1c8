"""The log-only measurements of the CI workflow, one subcommand each.

Run from the repository root as ``python bench/ci.py STEP``, with the
``PYTHONPATH`` that the step's line in ``.github/workflows/tests.yml`` sets.
None of them is a gate; each prints a log.

- ``digest``: one SHA-256 over (argv, exit code, stdout, stderr) of
  ``cli.run`` in process, each argv in JSON and CSV.  A change that claims
  byte-identical reports compares this line with its parent's, on the same
  Python version.
- ``lines``: the code lines of each ``src/qdeco`` module, the size figure
  CHANGES.md quotes, then each public name that no other file mentions.
- ``unexecuted``: tier-1 in process under a line tracer limited to
  ``src/qdeco``, then every line that holds bytecode and never ran.  Code
  that only a subprocess runs shows here too: the numpy loader of
  ``_numpy.py`` and ``main()``.
- ``frontier``: the largest input each admission bound lets through
  (``tests/frontier.py``), each run once as a subprocess through ``main()``,
  with its exit code, wall time and peak RSS (``ru_maxrss`` of ``os.wait4``).
- ``importtime``: the 15 largest ``-X importtime`` self times (us) of
  importing the command, then of one closed-form command through ``main()``.

Each step imports what it needs itself: a child's ``ru_maxrss`` starts from
the spawner's own high-water mark, which ``frontier`` prints first, so the
spawner stays a bare interpreter.
"""

import sys


def digest_argvs() -> list[list[str]]:
    """The argvs of the digest.

    The pinned argvs, the benchmark workload cycles at seeds 1, 13 and 909
    (``perfbench/workloads.py`` is only imported), and every ``lattice
    superselect`` spec with N <= 4, e <= 6 and |left field| <= e.
    """
    import json
    import pathlib

    import workloads

    pinned = pathlib.Path(__file__).resolve().parents[1] / "tests" / "pinned"
    argvs = [json.loads(p.read_text())["argv"] for p in sorted(pinned.glob("*.json"))]
    argvs += [argv for seed in (1, 13, 909) for w in workloads.WORKLOADS
              for argv in workloads.cycle(w, seed)]
    argvs += [["lattice", "superselect", "--sites", str(n), "--emax", str(e), "--left-field", str(left)]
              for n in range(1, 5) for e in range(1, 7) for left in range(-e, e + 1)]
    return argvs


def digest(argvs: list[list[str]]) -> str:
    """The digest line of ``argvs``, each run in JSON and in CSV."""
    import contextlib
    import hashlib
    import io
    import json

    from qdeco.cli import run

    sha = hashlib.sha256()
    for argv in [[*a, "--format", fmt] for a in argvs for fmt in ("json", "csv")]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        sha.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    return f"{2 * len(argvs)} argvs  sha256 {sha.hexdigest()}"


def code_lines(text: str) -> set[int]:
    """The code lines of a module's source.

    A code line holds a token other than a comment or a newline and is not
    part of a module, class or function docstring.
    """
    import ast
    import io
    import tokenize

    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.ENCODING,
            tokenize.ENDMARKER, tokenize.INDENT, tokenize.DEDENT}
    docs = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            found.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, docs) and ast.get_docstring(node, clean=False) is not None:
            found -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return found


def lines():
    """Code lines per ``src/qdeco`` module, then the candidates for deletion.

    A candidate is an ``__all__`` name, or a public method or property of a
    ``src/qdeco`` class, that no other file under src/, bench/, demos/,
    tests/ or perfbench/ mentions as a word.
    """
    import ast
    import pathlib
    import re

    paths = sorted(pathlib.Path("src/qdeco").glob("*.py"))
    total = 0
    for path in paths:
        count = len(code_lines(path.read_text(encoding="utf-8")))
        print(f"{count:6d}  {path}")
        total += count
    print(f"{total:6d}  total")
    own = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
                own.update((name, path) for name in ast.literal_eval(node.value))
            elif isinstance(node, ast.ClassDef):
                own.update((f.name, path) for f in node.body
                           if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
    texts = {p: p.read_text(encoding="utf-8")
             for d in ("src", "bench", "demos", "tests", "perfbench") for p in pathlib.Path(d).rglob("*.py")}
    for name, path in own.items():
        if not any(re.search(rf"\b{name}\b", text) for p, text in texts.items() if p != path):
            print(f"not used elsewhere: {name}  ({path})")


def bytecode_lines(text: str) -> set[int]:
    """Every line of a module's source that holds bytecode, nested code objects included."""
    found, codes = set(), [compile(text, "<source>", "exec")]
    while codes:
        code = codes.pop()
        found.update(n for _, _, n in code.co_lines() if n is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def unexecuted():
    """Each line of ``src/qdeco`` that holds bytecode and that tier-1, run in process, never runs."""
    import os
    import pathlib

    import pytest

    root = pathlib.Path("src/qdeco").resolve()
    ran, ours = set(), {}

    def line(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = pathlib.Path(os.path.realpath(name)).parent == root
        return line(frame, event, arg) if ours[name] else None

    sys.settrace(call)
    pytest.main(["-q", "--continue-on-collection-errors"])
    sys.settrace(None)
    ran = {(pathlib.Path(os.path.realpath(f)), n) for f, n in ran}
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        for n in sorted(bytecode_lines(text) - {n for f, n in ran if f == path}):
            print(f"not executed by tier-1: src/qdeco/{path.name}:{n}: {source[n - 1].strip()}")


def frontier():
    """Each frontier input as a subprocess, after the spawner's own peak.

    A reading not above the spawner's peak is marked "<=": it may be the
    spawner's, not the child's.
    """
    import os
    import resource
    import time

    from frontier import frontier_argvs

    argvs = frontier_argvs()
    spawner = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"spawner peak {spawner:6.1f} MiB")
    # os.posix_spawn, not subprocess: importing subprocess raises that mark by about 0.6 MiB
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    for argv in argvs:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "from qdeco.cli import main; main()",
                                              *argv], os.environ, file_actions=devnull)
        _, status, usage = os.wait4(pid, 0)
        peak, text = usage.ru_maxrss / 1024, " ".join(argv)
        print(f"exit {os.waitstatus_to_exitcode(status)}  wall {time.perf_counter() - start:5.2f} s"
              f"  peak {peak:6.1f} MiB {'<=' if peak <= spawner else '  '}"
              f"  {text[:72]}{'...' if len(text) > 72 else ''}")


def importtime_rows(stderr: str) -> list[str]:
    """The rows of ``-X importtime`` output, largest self time first, without the header."""
    rows = [row for row in stderr.splitlines()
            if row.startswith("import time:") and row[12:].split("|")[0].strip().isdigit()]
    return sorted(rows, key=lambda row: int(row[12:].split("|")[0]), reverse=True)


def importtime():
    """The 15 largest self times of importing the command, then of a closed-form command."""
    import subprocess

    for code, argv in [("import qdeco.cli", []),
                       ("from qdeco.cli import main; main()",
                        ["field", "factor", "--volume-cm3", "1e-12", "--efield-v-per-cm", "1e7"])]:
        child = subprocess.run([sys.executable, "-X", "importtime", "-c", code, *argv],
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for row in importtime_rows(child.stderr)[:15]:
            print(row)


STEPS = {
    "digest": lambda: print(digest(digest_argvs())),
    "lines": lines,
    "unexecuted": unexecuted,
    "frontier": frontier,
    "importtime": importtime,
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in STEPS:
        sys.exit(f"usage: python bench/ci.py {{{'|'.join(STEPS)}}}")
    STEPS[sys.argv[1]]()
