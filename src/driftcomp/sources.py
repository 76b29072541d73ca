"""Feature sources: uniform access to per-task train features and paired
old/new test features, backed by the synthetic simulator, the toy trainer,
or a feature dump file.

Each source gives `classes_of_task(t)`, `train_matrix(t, c)` and
`test_matrix(t, c)`, class c's train or test features in task t's space as
an (n, d) array; `_Source` derives the seen classes, the train records and
the paired test stream from those.

Canonical test ordering within one task stream is ascending class id, then
sample index; every source and the dump writer follow it, which is what
makes dump round-trips reproduce in-memory runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import RunConfig
from .core import PrototypeTable, class_means
from .drift_sim import GeneratedScenario, generate_scenario, task_class_ids
from .dump import SPLIT_TEST, SPLIT_TRAIN, load_dump, write_dump
from .errors import DumpFormatError
from .toy import LossWeights, ToyModel, train_task

# one stream item: (class_id, old-space feature or None, new-space feature)
TestPair = Tuple[int, Optional[np.ndarray], np.ndarray]


class _Source:
    def seen_classes(self, t: int) -> Tuple[int, ...]:
        return tuple(c for i in range(1, t + 1) for c in self.classes_of_task(i))

    def train_records(self, t: int) -> np.recarray:
        """Task t's train features, class by class in `classes_of_task(t)`
        order, as one record array of `vector`, `class_id` and `task_id`."""
        classes = self.classes_of_task(t)
        matrices = [self.train_matrix(t, c) for c in classes]
        counts = [len(m) for m in matrices]
        records = np.recarray(sum(counts), dtype=[("vector", np.float64, (self.dimension,)),
                                                  ("class_id", np.int64), ("task_id", np.int64)])
        records.vector = np.concatenate(matrices)
        records.class_id = np.repeat(classes, counts)
        records.task_id = t
        return records

    def test_pairs(self, t: int) -> List[TestPair]:
        """Every seen class's test features in space t, each paired by index
        with the same sample in space t-1 (None at t=1)."""
        out: List[TestPair] = []
        for c in sorted(self.seen_classes(t)):
            new = self.test_matrix(t, c)
            old = self.test_matrix(t - 1, c) if t > 1 else None
            if old is not None and old.shape[0] != new.shape[0]:
                raise DumpFormatError(
                    "pairing",
                    f"class {c} has {old.shape[0]} test records in space {t - 1} "
                    f"but {new.shape[0]} in space {t}",
                )
            for i in range(new.shape[0]):
                out.append((c, None if old is None else old[i], new[i]))
        return out


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

    def test_matrix(self, t: int, c: int) -> np.ndarray:
        return self.scenario.test_matrix(t, c)

    def reference_drifted_prototypes(self, t: int, old_table: PrototypeTable) -> PrototypeTable:
        """Ground-truth drift map applied to the old prototypes."""
        dmap = self.scenario.drift_map(t)
        return PrototypeTable(old_table.class_ids,
                              [dmap.apply(old_table.prototype(c)) for c in old_table.class_ids])


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
        self._task_classes = task_class_ids(counts)
        total = sum(counts)
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
            x = np.vstack([self._train_x[c] for c in classes])
            labels = np.repeat(classes, config.train_per_class)
            model = train_task(
                model, prev, x, labels, weights,
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

    def test_matrix(self, t: int, c: int) -> np.ndarray:
        return self.model(t).features(self._test_x[c])

    def reference_drifted_prototypes(self, t: int, old_table: PrototypeTable) -> PrototypeTable:
        """Empirical drifted prototypes: old-class training inputs pushed
        through the current extractor (the "real drift" reference)."""
        return class_means({c: self.train_matrix(t, c) for c in old_table.class_ids})


class DumpSource(_Source):
    """Source backed by a feature dump file.

    Train records at task_id=t are the task's train features in space t;
    tasks are numbered from 1, and a train record at task 0 is an error.
    Test records at task_id=t are test features in space t; pairs are formed
    by index between spaces t-1 and t of the same class.
    """

    def __init__(self, path):
        self.path = path
        class_ids, task_ids, splits, vectors = load_dump(path)
        if not np.any(splits == SPLIT_TRAIN):
            raise DumpFormatError("empty", "dump contains no train records")
        self._dim = vectors.shape[1]
        # rows grouped once per (split, task, class), file order kept within each
        order = np.lexsort((class_ids, task_ids, splits))
        keys = np.stack([splits, task_ids, class_ids], axis=1)[order]
        starts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
        self._rows: Dict[Tuple[int, int, int], np.ndarray] = {
            tuple(keys[first].tolist()): rows
            for first, rows in zip(np.r_[0, starts], np.split(vectors[order], starts))
        }
        task_of_class: Dict[int, int] = {}
        for split, t, c in self._rows:
            if split == SPLIT_TRAIN:
                if t < 1:
                    raise DumpFormatError(
                        "class_task", f"class {c} has train records at task {t}; tasks start at 1"
                    )
                if c in task_of_class:
                    raise DumpFormatError(
                        "class_task",
                        f"class {c} has train records in tasks {task_of_class[c]} and {t}",
                    )
                task_of_class[c] = t
        self._num_tasks = max(task_of_class.values())
        self._task_classes: List[Tuple[int, ...]] = [
            tuple(sorted(c for c, t_of in task_of_class.items() if t_of == t))
            for t in range(1, self._num_tasks + 1)
        ]
        for t, classes in enumerate(self._task_classes, start=1):
            if not classes:
                raise DumpFormatError("class_task", f"task {t} has no classes")
        for t in range(1, self._num_tasks + 1):
            if not any((SPLIT_TEST, t, c) in self._rows for c in self.seen_classes(t)):
                raise DumpFormatError("empty", f"task {t} has no test records in space {t}")

    @property
    def num_tasks(self) -> int:
        return self._num_tasks

    @property
    def dimension(self) -> int:
        return self._dim

    def classes_of_task(self, t: int) -> Tuple[int, ...]:
        return self._task_classes[t - 1]

    def _matrix(self, split: int, t: int, c: int) -> np.ndarray:
        rows = self._rows.get((split, t, c))
        return np.empty((0, self._dim)) if rows is None else rows

    def train_matrix(self, t: int, c: int) -> np.ndarray:
        return self._matrix(SPLIT_TRAIN, t, c)

    def test_matrix(self, t: int, c: int) -> np.ndarray:
        return self._matrix(SPLIT_TEST, t, c)


def write_source_dump(source, path) -> int:
    """Serialize any source to the dump format, preserving pair ordering."""
    blocks = []   # (class, task, split, rows), in file order
    for t in range(1, source.num_tasks + 1):
        new_at_t = sorted(source.classes_of_task(t))
        blocks += [(c, t, SPLIT_TRAIN, source.train_matrix(t, c)) for c in new_at_t]
        # space t-1 features of classes introduced at t are not covered by
        # any earlier task's stream, so they are emitted here
        if t > 1:
            blocks += [(c, t - 1, SPLIT_TEST, source.test_matrix(t - 1, c)) for c in new_at_t]
        blocks += [(c, t, SPLIT_TEST, source.test_matrix(t, c))
                   for c in sorted(source.seen_classes(t))]
    counts = [len(rows) for *_, rows in blocks]
    class_ids, task_ids, splits = (np.repeat([b[i] for b in blocks], counts) for i in range(3))
    vectors = np.concatenate([rows for *_, rows in blocks])
    return write_dump(path, class_ids, task_ids, splits, vectors)


def open_source(config: RunConfig, seed: Optional[int] = None):
    if config.source == "synthetic":
        return SyntheticSource.from_config(config, seed)
    if config.source == "toy":
        return ToySource(config, seed)
    return DumpSource(config.dump_path)
