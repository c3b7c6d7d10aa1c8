#!/usr/bin/env python3
"""How an environment turns a superposition into an apparent mixture.

Walks through the three-party pipeline: build a correlated
system-apparatus-environment state, trace the environment out, and watch the
off-diagonal (interference) terms shrink exactly in proportion to the overlap
of the environment branches.  A central-spin bath then shows the same physics
dynamically, including the finite-size revival that reminds us the global
state never stopped being pure.
"""

import math

import numpy as np

from qdeco.decoherence import (
    SpinBathModel,
    build_correlated_state,
    entropy_curve,
    environment_overlap,
    equal_overlap_spec,
    reduce_to_apparatus,
    spin_bath_coherence,
    spin_bath_evolve,
)
from qdeco.hilbert import coherence_norm, von_neumann_entropy

INV_SQRT2 = 1.0 / math.sqrt(2.0)


print("=" * 72)
print("1. Off-diagonals are controlled by the environment overlap")
print("=" * 72)
print()
print("A two-branch measurement-like state: the apparatus copies the system,")
print("and the environment 'reads' the apparatus with varying fidelity.")
print()
print(f"{'<E0|E1>':>10} {'off-diagonal':>14} {'coherence':>11} {'entropy (nats)':>15}")
for overlap in (1.0, 0.8, 0.5, 0.2, 0.0):
    # system and apparatus copy the branch; the environments overlap by `overlap`
    spec = equal_overlap_spec([INV_SQRT2, INV_SQRT2], overlap)
    rho = reduce_to_apparatus(build_correlated_state(spec))
    block = abs(rho.entries[0, 3])  # between branches |00> and |11>
    print(
        f"{environment_overlap(spec, 0, 1).real:10.3f} "
        f"{block:14.6f} {coherence_norm(rho):11.6f} "
        f"{von_neumann_entropy(rho):15.6f}"
    )
print()
print("Perfect overlap: full interference survives.  Orthogonal environments:")
print("the reduced state is an exact 50/50 mixture and the local entropy is")
print(f"ln 2 = {math.log(2):.6f} even though the global state is pure.")

print()
print("=" * 72)
print("2. Many weakly-distinguishing probes multiply up")
print("=" * 72)
print()
print("With K product factors each of overlap 0.9, the branch overlap is")
print("0.9^K: individually poor probes decohere almost perfectly in bulk.")
print()
print(f"{'K':>4} {'overlap 0.9^K':>15}")
for k in (1, 5, 10, 20, 40):
    print(f"{k:4d} {0.9**k:15.10f}")

print()
print("=" * 72)
print("3. A solvable dephasing bath: exact dynamics vs closed form")
print("=" * 72)
print()
n_spins = 8
rng = np.random.default_rng(2026)
model = SpinBathModel(bath_size=n_spins, couplings=rng.uniform(0.2, 1.8, size=n_spins))
times = np.linspace(0.0, 4.0, 9)
curve = spin_bath_evolve(model, times)
check = entropy_curve(curve)

print(f"{n_spins} bath spins, random couplings, equal system weights.")
print()
print(f"{'t':>6} {'|r(t)| evolved':>15} {'|r(t)| closed':>15} {'entropy':>10}")
for t, c, s in curve.rows():
    print(f"{t:6.2f} {c:15.10f} {spin_bath_coherence(model, t):15.10f} {s:10.6f}")
print()
print(f"entropy matches h((1-|r|)/2) to {check.max_deviation:.2e};")
print(f"monotone in coherence: {check.monotone_in_coherence}")

print()
commensurate = SpinBathModel(bath_size=6, couplings=np.ones(6))
revival = spin_bath_evolve(commensurate, [math.pi]).coherence[0]
print("Commensurate couplings revive completely at t = pi/g:")
print(f"|r(pi)| = {revival:.12f}  (decoherence delocalizes, it does not destroy)")
