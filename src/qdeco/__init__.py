"""Numerical laboratory for environment-induced decoherence.

Modules:

- :mod:`qdeco.hilbert`: tensor-product states, density matrices kept on their
  support, spectra.
- :mod:`qdeco.decoherence`: correlated-state pipeline and the solvable
  central-spin dephasing bath.
- :mod:`qdeco.lattice_qed`: truncated-link 1D electrodynamics, Gauss
  constraints, charge sectors, superselection checks.
- :mod:`qdeco.units` / :mod:`qdeco.field_decoherence`: natural-unit engine and
  the closed-form field-coherence estimates.
- :mod:`qdeco.cli`: the ``qdeco`` command.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
