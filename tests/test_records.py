"""The library's records: immutable, validated on construction, equal specs hash equal.

Records are ``collections.namedtuple`` subclasses, or for ``CONSTANTS`` a
namedtuple instance, so these tests pin what callers rely on: no field can be
assigned, every validating record refuses bad input with its own message and
comes back equal from a copy or a pickle, equal specs share one configuration
table, and ``DensityMatrix`` validates once per construction, through
``__post_init__``.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from qdeco.cli import Param
from qdeco.decoherence import (
    CorrelatedStateSpec,
    DephasingCurve,
    EntropyCheck,
    SpinBathModel,
    build_correlated_state,
    equal_overlap_spec,
    reduce_to_apparatus,
)
from qdeco.field_decoherence import ThermalModel
from qdeco.hilbert import (
    DensityMatrix,
    Operator,
    StateVector,
    TensorLayout,
    basis_state,
)
from qdeco.lattice_qed import (
    GaugeFunction,
    LatticeSpec,
    SuperselectionReport,
    _config_table,
    charge_sectors,
    physical_subspace,
)
from qdeco.units import CONSTANTS, LENGTH, SI, PhysicalQuantity

QUBIT = TensorLayout((2,))

# each record, built, and one of its fields
RECORDS = {
    "TensorLayout": (lambda: TensorLayout((2, 3)), "dims"),
    "StateVector": (lambda: basis_state(2, 0), "amplitudes"),
    "Operator": (lambda: Operator(QUBIT, np.eye(2)), "entries"),
    "DensityMatrix": (lambda: DensityMatrix(QUBIT, np.diag([0.5, 0.5])), "block"),
    "CorrelatedStateSpec": (lambda: equal_overlap_spec([0.6, 0.8], 0.2), "coefficients"),
    "SpinBathModel": (lambda: SpinBathModel(2, [1.0, 0.5]), "couplings"),
    "DephasingCurve": (lambda: DephasingCurve([0.0], [1.0], [0.0]), "times"),
    "EntropyCheck": (lambda: EntropyCheck(0.0, True), "max_deviation"),
    "LatticeSpec": (lambda: LatticeSpec(2, 1), "sites"),
    "GaugeFunction": (lambda: GaugeFunction([0.1, 0.2]), "values"),
    "_ConfigTable": (lambda: _config_table(LatticeSpec(1, 1)), "charges"),
    "PhysicalSubspace": (lambda: physical_subspace(LatticeSpec(1, 1)), "basis"),
    "SectorDecomposition": (
        lambda: charge_sectors(physical_subspace(LatticeSpec(1, 1))), "sectors"),
    "SuperselectionReport": (
        lambda: SuperselectionReport(3, 1, -1, 5, 0.0, 0.0), "max_cross"),
    "ConstantsTable": (lambda: CONSTANTS, "m_electron"),
    "PhysicalQuantity": (lambda: PhysicalQuantity(1.0, LENGTH, SI), "magnitude"),
    "ThermalModel": (lambda: ThermalModel(), "localization_rate"),
    "Param": (lambda: Param("--sites", int), "flag"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_added(name):
    build, field = RECORDS[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}
# a reduced state, whose spectrum was validated on its factor's Gram matrix
ROUND_TRIP_RECORDS = {
    **{name: build for name, (build, _) in RECORDS.items()},
    "DensityMatrix": lambda: reduce_to_apparatus(
        build_correlated_state(equal_overlap_spec([0.6, 0.8], 0.2))),
}


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", [
    "LatticeSpec", "GaugeFunction", "TensorLayout", "StateVector", "Operator", "DensityMatrix",
    "CorrelatedStateSpec", "SpinBathModel", "DephasingCurve", "PhysicalQuantity", "ThermalModel",
])
def test_validating_records_survive_copy_and_pickle(name, route):
    record = ROUND_TRIP_RECORDS[name]()
    copied = ROUND_TRIPS[route](record)
    assert type(copied) is type(record)
    fields = record._fields
    if name == "DensityMatrix":
        # rebuilt through validation, so the spectrum is recomputed from the block
        assert not copied.spectrum.flags.writeable
        np.testing.assert_allclose(copied.spectrum, record.spectrum, rtol=0, atol=1e-12)
        fields = fields[:-1]
    for field in fields:
        _assert_same(getattr(copied, field), getattr(record, field))


def _state(dim: int) -> StateVector:
    return basis_state(dim, 0)


REFUSALS = [
    (lambda: TensorLayout((2, 0)), "all dimensions must be >= 1, got (2, 0)"),
    (lambda: TensorLayout(()), "all dimensions must be >= 1, got ()"),
    (lambda: StateVector(QUBIT, [1.0, 0.0, 0.0]),
     "amplitude length 3 does not match layout dimension 2"),
    (lambda: StateVector(QUBIT, [[1.0]]), "amplitudes must be one-dimensional, got shape (1, 1)"),
    (lambda: Operator(QUBIT, np.eye(3)), "matrix dimension 3 does not match layout dimension 2"),
    (lambda: Operator(QUBIT, np.ones((2, 3))),
     "entries must be a square matrix, got shape (2, 3)"),
    (lambda: DensityMatrix(QUBIT, np.eye(2) / 2, support=[0]),
     "matrix dimension 2 does not match support size 1"),
    (lambda: DensityMatrix(QUBIT, np.eye(2) / 2, support=[1, 0]),
     "support must ascend strictly within layout dimension 2"),
    (lambda: DensityMatrix(QUBIT, np.eye(2)), "density matrix trace (2+0j) differs from 1"),
    (lambda: CorrelatedStateSpec([], [], [], []), "need at least one branch"),
    (lambda: CorrelatedStateSpec([1.0], [], [_state(2)], [_state(2)]),
     "system list length 0 does not match 1 coefficients"),
    (lambda: CorrelatedStateSpec([0.6, 0.8], [_state(2)] * 2, [_state(2), _state(3)],
                                 [_state(2)] * 2),
     "apparatus states have inconsistent dimensions [2, 3]"),
    (lambda: SpinBathModel(0, []), "bath_size must be >= 1"),
    (lambda: SpinBathModel(2, [1.0]), "need 2 couplings, got 1"),
    (lambda: SpinBathModel(1, [math.nan]), "couplings must be finite"),
    (lambda: DephasingCurve([0.0, 1.0], [1.0], [0.0]),
     "times, coherence and entropy must have equal lengths"),
    (lambda: DephasingCurve([0.0], [1.5], [0.0]), "coherence values must lie in [0, 1]"),
    (lambda: DephasingCurve([0.0], [1.0], [1.0]), "entropy values must lie in [0, ln 2]"),
    (lambda: LatticeSpec(0, 1), "need at least one site"),
    (lambda: LatticeSpec(1, 0), "field truncation must be >= 1"),
    (lambda: LatticeSpec(1, 1, -2), "left boundary field -2 outside truncation [-1, 1]"),
    (lambda: GaugeFunction([0.0, math.inf]), "gauge function values must be finite"),
    (lambda: GaugeFunction([0.0], asymptotic_value=math.nan),
     "gauge function values must be finite"),
    (lambda: PhysicalQuantity(1.0, "mass", SI), "unsupported dimension 'mass'"),
    (lambda: PhysicalQuantity(1.0, LENGTH, "cgs"), "unknown unit system 'cgs'"),
    (lambda: ThermalModel(0.0), "localization rate must be positive"),
]

# NaN fails every comparison, so each check is written to fail on it
NAN_REFUSALS = [
    (lambda: DephasingCurve([0.0], [math.nan], [0.0]), "coherence values must lie in [0, 1]"),
    (lambda: DephasingCurve([0.0], [1.0], [math.nan]), "entropy values must lie in [0, ln 2]"),
    (lambda: ThermalModel(math.nan), "localization rate must be positive"),
]


@pytest.mark.parametrize("build,message", REFUSALS + NAN_REFUSALS,
                         ids=[m for _, m in REFUSALS] + [f"nan: {m}" for _, m in NAN_REFUSALS])
def test_validating_records_refuse_with_their_message(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert type(refused.value) is ValueError
    assert str(refused.value) == message


def test_records_keep_their_converted_fields():
    assert TensorLayout([np.int64(2), 3.0]).dims == (2, 3)
    assert type(TensorLayout([np.int64(2)]).dims[0]) is int
    model = SpinBathModel(bath_size=2, couplings=[[1, 2]])
    assert model.couplings.dtype == np.float64 and model.couplings.shape == (2,)
    assert type(PhysicalQuantity(3, LENGTH, SI).magnitude) is float
    rho = DensityMatrix(QUBIT, [[0.5, 0], [0, 0.5]], support=[0, 1])
    assert rho._fields == ("layout", "block", "support", "spectrum")
    assert rho.block.dtype == np.complex128 and rho.support.dtype == np.intp
    assert Param("--trials", int, default=50).dest == "trials"
    assert Param._fields == ("flag", "convert", "default", "help")
    assert Param("--left-field", int) == Param("--left-field", int, None, "")


def test_equal_specs_share_one_configuration_table():
    a, b = LatticeSpec(2, 1), LatticeSpec(sites=2, e_max=1, left_field=0)
    assert a == b and hash(a) == hash(b)
    assert LatticeSpec(2, 1, 1) != a
    _config_table.cache_clear()
    physical_subspace(a)
    physical_subspace(b)
    info = _config_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_density_matrix_validates_once_per_construction(monkeypatch):
    calls = []
    validate = DensityMatrix.__post_init__

    def counted(self, factor):
        calls.append(factor is not None)
        return validate(self, factor)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    rho = DensityMatrix(QUBIT, np.diag([0.25, 0.75]))
    assert calls == [False]
    np.testing.assert_allclose(rho.spectrum, [0.25, 0.75])
    reduce_to_apparatus(build_correlated_state(equal_overlap_spec([0.6, 0.8], 0.2)))
    assert calls == [False, True]
