"""Per-layer tracing by wrapping the program's public functions from outside.

While installed, a `Tracer` replaces each traced function or method with a
wrapper that records a span (name, start, end, parent) per call, and for a
few calls a count taken from the returned value. Functions imported by name
into other modules are replaced wherever the module holds the original
object, so calls between layers are seen too. `uninstall` puts every
original back. A traced name the program no longer has is listed in
`absent` and reported with zero calls; that is not an error.

Self time of a span is its duration minus the time its direct children
cover. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np


def _matrices_bytes(result) -> float:
    return float(sum(np.prod(m.shape) * m.dtype.itemsize for m in result))


def _ridge_fallbacks(result) -> float:
    return float(result[1].ridge_applied)


# (span name, module, attribute path); a path with a dot names a method
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.ncm_predict", "core", "ncm_predict"),
    ("core.PrototypeTable", "core", "PrototypeTable.__init__"),
    ("core.PrototypeTable.merged_with", "core", "PrototypeTable.merged_with"),
    ("core.compute_prototypes", "core", "compute_prototypes"),
    ("queues.QueuePair.push", "queues", "QueuePair.push"),
    ("queues.init_with_pseudo_features", "queues", "init_with_pseudo_features"),
    ("queues.QueuePair.matrices", "queues", "QueuePair.matrices"),
    ("projector.solve_analytic", "projector", "solve_analytic"),
    ("projector.mean_squared_residual", "projector", "mean_squared_residual"),
    ("projector.evolve_prototypes", "projector", "evolve_prototypes"),
    ("engine.run_engine", "engine", "run_engine"),
    ("engine.run_task_cycle", "engine", "run_task_cycle"),
    ("engine.replay_audit", "engine", "replay_audit"),
    ("drift_sim.generate_scenario", "drift_sim", "generate_scenario"),
    ("toy.train_task", "toy", "train_task"),
    ("dump.read_dump", "dump", "read_dump"),
    ("sources.DumpSource", "sources", "DumpSource.__init__"),
    ("sources.test_pairs", "sources", "SyntheticSource.test_pairs"),
    ("sources.test_pairs", "sources", "ToySource.test_pairs"),
    ("sources.test_pairs", "sources", "DumpSource.test_pairs"),
    ("sources.train_records", "sources", "SyntheticSource.train_records"),
    ("sources.train_records", "sources", "ToySource.train_records"),
    ("sources.train_records", "sources", "DumpSource.train_records"),
    ("results.emit_results", "results", "emit_results"),
)
# span name -> (quantity, function of the returned value added up per call)
COUNTERS = {
    "queues.QueuePair.matrices": ("bytes", _matrices_bytes),
    "projector.solve_analytic": ("ridge_fallbacks", _ridge_fallbacks),
}
# generator functions: one span per item, the time spent inside the generator
GENERATORS = frozenset({"dump.read_dump"})

# reported quantities per span name: calls, self_s (self time), s (inclusive)
REPORTED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("core.ncm_predict", ("calls", "self_s")),
    ("core.PrototypeTable", ("calls", "self_s")),
    ("core.PrototypeTable.merged_with", ("self_s",)),
    ("core.compute_prototypes", ("self_s",)),
    ("queues.QueuePair.push", ("self_s",)),
    ("queues.init_with_pseudo_features", ("self_s",)),
    ("queues.QueuePair.matrices", ("calls", "self_s", "bytes")),
    ("projector.solve_analytic", ("calls", "self_s", "ridge_fallbacks")),
    ("projector.mean_squared_residual", ("self_s",)),
    ("projector.evolve_prototypes", ("self_s",)),
    ("engine.run_task_cycle", ("self_s",)),
    ("engine.replay_audit", ("s",)),
    ("drift_sim.generate_scenario", ("s",)),
    ("toy.train_task", ("s",)),
    ("dump.read_dump", ("s",)),
    ("sources.DumpSource", ("s",)),
    ("sources.test_pairs", ("s",)),
    ("sources.train_records", ("s",)),
    ("results.emit_results", ("s",)),
)

UNITS = {"calls": "count", "self_s": "s", "s": "s", "bytes": "B", "ridge_fallbacks": "count"}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{name}.{q}": UNITS[q] for name, quantities in REPORTED for q in quantities}
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    def __init__(self):
        self.spans: List[list] = []          # [name, start, end, parent index]
        self.counters: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        quantity, count = COUNTERS.get(name, (None, None))

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.counters[f"{name}.{quantity}"] += count(result)
            return result
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item
        return traced

    # -- installing

    def install(self, package: str = "driftcomp") -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap_generator(name, original) if name in GENERATORS \
                else self._wrap(name, original)
            if owners:   # a method: replace it on its class
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:   # a function: replace every imported reference
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        # None: the class inherits the method, so uninstalling deletes it again
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reporting

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0.0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def metrics(self) -> Dict[str, float]:
        """Values of every reported per-layer metric except the overhead."""
        totals = self.totals()
        out = {}
        for name, quantities in REPORTED:
            for q in quantities:
                if q in ("calls", "s", "self_s"):
                    out[f"{name}.{q}"] = totals[name][q] if name in totals else 0.0
                else:
                    out[f"{name}.{q}"] = self.counters.get(f"{name}.{q}", 0.0)
        return out

    def write_spans(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
