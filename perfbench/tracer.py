"""In-process spans around the public functions of each ``qdeco`` layer.

The tracer replaces each traced function with a wrapper in its defining
module and in every ``qdeco`` module that imported it by name, records one
span per call (name, start, end, parent span, request) and restores the
originals on ``restore()``.  Spans stay in memory; self times are computed
once the run is over.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float


@dataclass
class LayerTime:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def self_times(spans) -> dict[str, LayerTime]:
    """Calls, self time and total time per span name.

    Self time is a span's duration minus the part its child spans cover; spans
    nest strictly (one thread), so that part is the sum of the direct children's
    durations.  Total time adds the durations of the outermost spans of a name,
    so a layer that calls itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    covered: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, LayerTime] = {}
    for s in spans:
        layer = out.setdefault(s.name, LayerTime())
        layer.calls += 1
        layer.self_s += (s.end - s.start) - covered[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            layer.total_s += s.end - s.start
    return out


# ---------------------------------------------------------------------------
# counters computed from the arguments and results at the boundary


def _flat_dim(counters, args, result):
    counters["lattice_qed.configs_enumerated"] += getattr(args[0], "flat_dim", 0)


def _operators(counters, args, result):
    n_ops = len(result)
    counters["lattice_qed.n_operators"] += n_ops
    dense = n_ops * args[0].flat_dim ** 2 * 16
    counters["lattice_qed.dense_operator_bytes"] = max(
        counters["lattice_qed.dense_operator_bytes"], dense
    )


def _amplitude_steps(counters, args, result):
    model, times = args[0], args[1]
    counters["decoherence.spin_bath_evolve.amplitude_steps"] += 2 ** (model.bath_size + 1) * len(times)


def _eig(counters, args, result):
    n = args[0].shape[-1]
    counters["hilbert.eig.calls"] += 1
    counters["hilbert.eig.dim3_sum"] += n**3


COUNTERS = (
    "lattice_qed.configs_enumerated",
    "lattice_qed.n_operators",
    "lattice_qed.dense_operator_bytes",
    "decoherence.spin_bath_evolve.amplitude_steps",
    "hilbert.eig.calls",
    "hilbert.eig.dim3_sum",
)


# (module, attribute, span name, counter hook). An attribute "Class.method" is
# patched on the class. A span name of None counts without a span.
TARGETS: list[tuple[str, str, str | None, Callable | None]] = [
    ("qdeco.cli", "run", "cli.run", None),
    ("qdeco.lattice_qed", "gauge_invariant_local_basis",
     "lattice_qed.gauge_invariant_local_basis", _operators),
    ("qdeco.lattice_qed", "superselection_report", "lattice_qed.superselection_report", None),
    ("qdeco.lattice_qed", "wilson_line", "lattice_qed.wilson_line", _flat_dim),
    ("qdeco.lattice_qed", "charge_sectors", "lattice_qed.charge_sectors", None),
    ("qdeco.lattice_qed", "gauss_diagonal", "lattice_qed.gauss_diagonal", _flat_dim),
    ("qdeco.lattice_qed", "gauge_generator_diagonal",
     "lattice_qed.gauge_generator_diagonal", _flat_dim),
    ("qdeco.lattice_qed", "boundary_decomposition_diagonals",
     "lattice_qed.boundary_decomposition_diagonals", _flat_dim),
    ("qdeco.lattice_qed", "total_charge_diagonal", "lattice_qed.total_charge_diagonal", _flat_dim),
    ("qdeco.lattice_qed", "physical_subspace", "lattice_qed.physical_subspace", _flat_dim),
    ("qdeco.decoherence", "spin_bath_evolve", "decoherence.spin_bath_evolve", _amplitude_steps),
    ("qdeco.decoherence", "spin_bath_coherence", "decoherence.spin_bath_coherence", None),
    ("qdeco.decoherence", "entropy_curve", "decoherence.entropy_curve", None),
    ("qdeco.decoherence", "build_correlated_state", "decoherence.build_correlated_state", None),
    ("qdeco.decoherence", "reduce_to_apparatus", "decoherence.reduce_to_apparatus", None),
    ("qdeco.hilbert", "DensityMatrix.__post_init__", "hilbert.DensityMatrix", None),
    ("qdeco.hilbert", "von_neumann_entropy", "hilbert.von_neumann_entropy", None),
    ("qdeco.hilbert", "coherence_norm", "hilbert.coherence_norm", None),
    ("qdeco.hilbert", "purity", "hilbert.purity", None),
    ("numpy.linalg", "eigh", None, _eig),
    ("numpy.linalg", "eigvalsh", None, _eig),
]
# Every public function of these modules is one span named after the module.
WHOLE_MODULES = {"qdeco.units": "units", "qdeco.field_decoherence": "field_decoherence"}


class Tracer:
    """Wraps the traced functions while installed; ``request`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.request = 0
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str | None, hook: Callable | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                sid = next(tracer._ids)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer._stack.append(sid)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans.append(Span(sid, parent, tracer.request, name, start, end))
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install_function(self, module, attr: str, name: str | None, hook):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self._wrap(fn, name, hook)
        homes = [module]
        if module.__name__.startswith("qdeco"):
            homes += [m for n, m in sorted(sys.modules.items())
                      if n.startswith("qdeco") and m is not module and m is not None]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is fn:
                    self._patch(home, key, wrapped)

    def install(self):
        """Wrap every target; the ``qdeco`` modules must already be imported."""
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or method not in vars(cls):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patch(cls, method, self._wrap(vars(cls)[method], name, hook))
            else:
                self._install_function(module, attr, name, hook)
        for module_name, layer in WHOLE_MODULES.items():
            module = sys.modules[module_name]
            for attr in getattr(module, "__all__", []):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module_name:
                    self._install_function(module, attr, layer, None)

    def restore(self):
        """Put back every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_times(self) -> dict[str, LayerTime]:
        return self_times(self.spans)
