"""The argv mixes of the four benchmark workloads.

A workload is one cycle of ``qdeco`` argvs; the benchmark repeats the cycle
in a closed loop.  The argv shapes are fixed, the values that do not change
the cost (seeds, coupling values, branch weights, overlaps, the order of the
cycle) come from the workload seed, so every seed costs the same.

Where an argv appears with two seeded variants (the N=10 dephasing run), the
weight is there so that the median and the 90th percentile of a cycle fall
inside one argv's group of samples instead of on the edge between two.
"""

from __future__ import annotations

import random

WORKLOADS = ("superselect", "identity", "dephasing", "reduce")

README_TRIPARTITE = [
    "tripartite", "--coeffs", "0.7071067811865476,0.7071067811865476", "--env-overlap", "0.2",
]
README_DEPHASING = [
    "dephasing", "--spins", "8", "--coupling", "1.0", "--t-max", "6.0", "--steps", "100",
]
README_CLOSED_FORM = [
    ["field", "factor", "--volume-cm3", "1e-12", "--efield-v-per-cm", "1e7"],
    ["field", "coherence-length", "--efield-v-per-cm", "1e7"],
    ["field", "validity-time", "--efield-v-per-cm", "1e7"],
    ["thermal", "length", "--time-s", "1"],
]


def _floats(values) -> str:
    return ",".join(repr(v) for v in values)


def _superselect(rng: random.Random) -> list[list[str]]:
    return [
        ["lattice", "superselect", "--sites", str(n), "--emax", str(e), "--left-field", str(left)]
        for n, e, left in ((2, 2, 0), (2, 1, 0), (2, 1, 1), (1, 3, 0))
    ]


def _identity(rng: random.Random) -> list[list[str]]:
    shapes = ((4, 1, ["--trials", "200"]), (3, 3, []), (3, 2, ["--trials", "50"]))
    return [
        ["lattice", "identity-check", "--sites", str(n), "--emax", str(e),
         "--seed", str(rng.randrange(2**31)), *trials]
        for n, e, trials in shapes
    ]


def _distinct_couplings(rng: random.Random, n: int) -> list[float]:
    values: set[float] = set()
    while len(values) < n:
        values.add(round(rng.uniform(0.2, 2.0), 6))
    return sorted(values)


def _dephasing(rng: random.Random) -> list[list[str]]:
    uniform = ["dephasing", "--spins", "12", "--coupling", repr(round(rng.uniform(0.5, 1.5), 6)),
               "--t-max", "6.0", "--steps", "2000"]
    distinct = [
        ["dephasing", "--spins", "10", "--coupling", _floats(_distinct_couplings(rng, 10)),
         "--t-max", "6.0", "--steps", "1000"]
        for _ in range(2)
    ]
    return [uniform, *distinct, list(README_DEPHASING), [*README_DEPHASING, "--format", "csv"]]


def _tripartite(coeffs: list[float], overlap: float) -> list[str]:
    return ["tripartite", "--coeffs", _floats(coeffs), "--env-overlap", repr(overlap)]


def _reduce(rng: random.Random) -> list[list[str]]:
    equal = [28 ** -0.5] * 28
    weights = [rng.uniform(0.2, 1.0) for _ in range(20)]
    norm = sum(w * w for w in weights) ** 0.5
    random_branches = [w / norm for w in weights]
    return [
        _tripartite(equal, round(rng.uniform(0.05, 0.95), 6)),
        _tripartite(random_branches, round(rng.uniform(0.05, 0.95), 6)),
        list(README_TRIPARTITE),
        *[list(argv) for argv in README_CLOSED_FORM],
    ]


_BUILDERS = {
    "superselect": _superselect,
    "identity": _identity,
    "dephasing": _dephasing,
    "reduce": _reduce,
}


def cycle(workload: str, seed: int) -> list[list[str]]:
    """One cycle of the workload's argvs, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    argvs = _BUILDERS[workload](rng)
    rng.shuffle(argvs)
    return argvs
