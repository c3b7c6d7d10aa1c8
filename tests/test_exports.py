"""Every name a ``qdeco`` module exports exists, so ``import *`` works on each."""

import importlib

import pytest

MODULES = ["hilbert", "decoherence", "lattice_qed", "units", "field_decoherence", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_is_live(name):
    module = importlib.import_module(f"qdeco.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from qdeco.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
