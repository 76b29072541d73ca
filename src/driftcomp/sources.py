"""Feature sources: uniform access to per-task train features and paired
old/new test features, backed by the synthetic simulator, the toy trainer,
or a feature dump file.

Each source gives `classes_of_task(t)` and `train_matrix(t, c)`, class c's
train features in task t's space as an (n, d) array; `_Source` derives the
seen classes and the train records from those.

Canonical test ordering within one task stream is ascending class id, then
sample index; every source and the dump writer follow it, which is what
makes dump round-trips reproduce in-memory runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig
from .core import FeatureRecord, PrototypeTable, class_means
from .drift_sim import GeneratedScenario, generate_scenario
from .dump import SPLIT_TEST, SPLIT_TRAIN, read_dump, read_dump_header, write_dump
from .errors import DumpFormatError
from .toy import LossWeights, ToyModel, train_task

# one stream item: (class_id, old-space feature or None, new-space feature)
TestPair = Tuple[int, Optional[np.ndarray], np.ndarray]


class _Source:
    def seen_classes(self, t: int) -> Tuple[int, ...]:
        return tuple(c for i in range(1, t + 1) for c in self.classes_of_task(i))

    def train_records(self, t: int) -> Sequence[FeatureRecord]:
        return [FeatureRecord(vec, c, t)
                for c in self.classes_of_task(t) for vec in self.train_matrix(t, c)]


class SyntheticSource(_Source):
    """Source backed by a generated scenario with known drift maps."""

    def __init__(self, scenario: GeneratedScenario):
        self.scenario = scenario

    @classmethod
    def from_config(cls, config: RunConfig, seed: Optional[int] = None) -> "SyntheticSource":
        return cls(generate_scenario(config.scenario(seed)))

    @property
    def num_tasks(self) -> int:
        return self.scenario.num_tasks

    @property
    def dimension(self) -> int:
        return self.scenario.dimension

    def classes_of_task(self, t: int) -> Tuple[int, ...]:
        return self.scenario.classes_of_task(t)

    def train_matrix(self, t: int, c: int) -> np.ndarray:
        return self.scenario.train_matrix(t, c)

    def test_pairs(self, t: int) -> List[TestPair]:
        out: List[TestPair] = []
        for c in sorted(self.seen_classes(t)):
            new = self.scenario.test_matrix(t, c)
            old = self.scenario.test_matrix(t - 1, c) if t > 1 else None
            for i in range(new.shape[0]):
                out.append((c, None if old is None else old[i], new[i]))
        return out

    def reference_drifted_prototypes(self, t: int, old_table: PrototypeTable) -> PrototypeTable:
        """Ground-truth drift map applied to the old prototypes."""
        dmap = self.scenario.drift_map(t)
        entries = {
            c: (dmap.apply(old_table.prototype(c)), old_table.aligned_task(c) + 1)
            for c in old_table.class_ids
        }
        return PrototypeTable(entries)


class ToySource(_Source):
    """Source backed by sequentially trained toy extractors.

    Input blobs for every class live in a fixed input space; drift arises
    genuinely from re-training the extractor on each task.
    """

    def __init__(self, config: RunConfig, seed: Optional[int] = None):
        self.config = config
        seed = config.seed if seed is None else seed
        rng = np.random.default_rng([seed, 9151])
        counts = config.class_counts()
        self._task_classes: List[Tuple[int, ...]] = []
        next_class = 0
        for count in counts:
            self._task_classes.append(tuple(range(next_class, next_class + count)))
            next_class += count
        total = next_class
        d_in = config.toy_input_dim

        means = config.toy_input_separation * rng.standard_normal((total, d_in))
        self._train_x = {
            c: means[c] + rng.standard_normal((config.train_per_class, d_in)) for c in range(total)
        }
        self._test_x = {
            c: means[c] + rng.standard_normal((config.test_per_class, d_in)) for c in range(total)
        }

        weights = LossWeights(config.toy_lambda1, config.toy_lambda2, config.toy_tau)
        self.snapshots: List[ToyModel] = []
        model = ToyModel.init(d_in, config.toy_hidden, config.dimension,
                              len(self._task_classes[0]), rng)
        prev: Optional[ToyModel] = None
        for t, classes in enumerate(self._task_classes, start=1):
            if t > 1:
                model = model.extend_head(len(classes), rng)
            from .core import TaskDataset  # local import to avoid cycle noise
            records = tuple(
                FeatureRecord(vec, c, t) for c in classes for vec in self._train_x[c]
            )
            task = TaskDataset(records, (), frozenset(classes))
            model = train_task(
                model, prev, task, weights,
                epochs=config.toy_epochs, base_lr=config.toy_base_lr,
                batch_size=config.toy_batch_size, seed=seed + t,
            )
            self.snapshots.append(model)
            prev = model

    @property
    def num_tasks(self) -> int:
        return len(self._task_classes)

    @property
    def dimension(self) -> int:
        return self.config.dimension

    def classes_of_task(self, t: int) -> Tuple[int, ...]:
        return self._task_classes[t - 1]

    def model(self, t: int) -> ToyModel:
        return self.snapshots[t - 1]

    def train_matrix(self, t: int, c: int) -> np.ndarray:
        return self.model(t).features(self._train_x[c])

    def test_pairs(self, t: int) -> List[TestPair]:
        f_t = self.model(t)
        f_prev = self.model(t - 1) if t > 1 else None
        out: List[TestPair] = []
        for c in sorted(self.seen_classes(t)):
            new = f_t.features(self._test_x[c])
            old = f_prev.features(self._test_x[c]) if f_prev is not None else None
            for i in range(new.shape[0]):
                out.append((c, None if old is None else old[i], new[i]))
        return out

    def reference_drifted_prototypes(self, t: int, old_table: PrototypeTable) -> PrototypeTable:
        """Empirical drifted prototypes: old-class training inputs pushed
        through the current extractor (the "real drift" reference)."""
        return class_means({c: self.train_matrix(t, c) for c in old_table.class_ids}, t)


class DumpSource(_Source):
    """Source backed by a feature dump file.

    Train records at task_id=t are the task's train features in space t.
    Test records at task_id=t are test features in space t; pairs are formed
    by index between spaces t-1 and t of the same class.
    """

    def __init__(self, path):
        self.path = path
        _, self._dim, _ = read_dump_header(path)
        self._train: Dict[Tuple[int, int], List[np.ndarray]] = {}
        self._test: Dict[Tuple[int, int], List[np.ndarray]] = {}
        task_of_class: Dict[int, int] = {}
        for class_id, task_id, split, vector in read_dump(path):
            key = (task_id, class_id)
            if split == SPLIT_TRAIN:
                if class_id in task_of_class and task_of_class[class_id] != task_id:
                    raise DumpFormatError(
                        "class_task",
                        f"class {class_id} has train records in tasks "
                        f"{task_of_class[class_id]} and {task_id}",
                    )
                task_of_class[class_id] = task_id
                self._train.setdefault(key, []).append(vector)
            else:
                self._test.setdefault(key, []).append(vector)
        if not self._train:
            raise DumpFormatError("empty", "dump contains no train records")
        self._num_tasks = max(t for t, _ in self._train)
        self._task_classes: List[Tuple[int, ...]] = [
            tuple(sorted(c for c, t_of in task_of_class.items() if t_of == t))
            for t in range(1, self._num_tasks + 1)
        ]
        for t, classes in enumerate(self._task_classes, start=1):
            if not classes:
                raise DumpFormatError("class_task", f"task {t} has no classes")

    @property
    def num_tasks(self) -> int:
        return self._num_tasks

    @property
    def dimension(self) -> int:
        return self._dim

    def classes_of_task(self, t: int) -> Tuple[int, ...]:
        return self._task_classes[t - 1]

    def train_matrix(self, t: int, c: int) -> np.ndarray:
        return np.array(self._train.get((t, c), []), dtype=np.float64)

    def test_pairs(self, t: int) -> List[TestPair]:
        out: List[TestPair] = []
        for c in sorted(self.seen_classes(t)):
            new = self._test.get((t, c), [])
            if t == 1:
                out.extend((c, None, vec) for vec in new)
                continue
            old = self._test.get((t - 1, c), [])
            if len(old) != len(new):
                raise DumpFormatError(
                    "pairing",
                    f"class {c} has {len(old)} test records in space {t - 1} "
                    f"but {len(new)} in space {t}",
                )
            out.extend((c, old[i], new[i]) for i in range(len(new)))
        return out


def write_source_dump(source, path) -> int:
    """Serialize any source to the dump format, preserving pair ordering."""
    records = []
    for t in range(1, source.num_tasks + 1):
        for rec in source.train_records(t):
            records.append((rec.class_id, t, SPLIT_TRAIN, rec.vector))
        new_at_t = set(source.classes_of_task(t))
        pairs = source.test_pairs(t)
        for class_id, z_old, z_new in pairs:
            # space t-1 features of classes introduced at t are not covered
            # by any earlier task's stream, so they are emitted here
            if t > 1 and class_id in new_at_t and z_old is not None:
                records.append((class_id, t - 1, SPLIT_TEST, z_old))
        for class_id, _, z_new in pairs:
            records.append((class_id, t, SPLIT_TEST, z_new))
    return write_dump(path, source.dimension, records)


def open_source(config: RunConfig, seed: Optional[int] = None):
    if config.source == "synthetic":
        return SyntheticSource.from_config(config, seed)
    if config.source == "toy":
        return ToySource(config, seed)
    return DumpSource(config.dump_path)
