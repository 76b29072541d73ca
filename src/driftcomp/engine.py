"""Streaming evolution engine.

Per task: compute fresh prototypes, then per arriving test sample push the
paired features into the task's fit, re-fit the projector, evolve the old
prototypes from their original previous-space values, and classify by
cosine nearest class mean over the union of evolved old and fresh new
prototypes. Every solver, and the offline GD oracle, is a `_Fit` from
`_make_fit` whose `solve()` this one loop calls; the oracle streams nothing
and solves once, before the first prediction. A task without old classes,
or with solver "none", has no fit and classifies against the stale table.

The union is held per task in a chunk of slots (`_TaskLayout`), one per
staged sample: each solve writes the evolved rows, mapped by one gemm, into
the next sample's slot. Predictions do not feed back into the fit, so the
layout classifies its samples a chunk at a time, by stacked products that
give each the bits and the errors of classifying it alone, in order, and
hands them back at task end; an error raised by the fit classifies the
staged samples first, so an earlier sample's error wins. The table handed
to the drift similarity and the next task is built once, at task end, by
`projector.evolve_prototypes` under the last W, row by row. The replay
audit stages the logged samples through the same layout.

Each task's record logs the W of every solve in a `projector.SnapshotLog`:
a full W for a direct solve, the descent solvers and the oracle, and for
every other window solve the rank-m update by which the window moved its
own W in place, from which the log replays the same bits, in one pass for
the audit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .config import RunConfig
from .core import PrototypeTable, _nearest_class, _row_norms, class_means
from .drift_sim import true_drift_similarity
from .errors import DegenerateInputError
from .projector import SnapshotLog, SolveCounts, WindowSolver, _Descent, evolve_prototypes
from .queues import LatestPair, QueuePair, init_with_pseudo_features

PHASES = ("queue", "solve", "predict")
OFFLINE_MAX_STEPS = 20000
OFFLINE_GRAD_TOL = 1e-10


# One classified test arrival per record element; w_index points into the
# task's projector snapshots (-1 = no projector involved).
SAMPLE_FIELDS = np.dtype([("class_id", np.int64), ("predicted", np.int64),
                          ("w_index", np.int64), ("excluded", np.bool_)])


@dataclass
class TaskRunRecord:
    task: int
    old_table: Optional[PrototypeTable]
    fresh_table: PrototypeTable
    samples: np.recarray = field(default_factory=lambda: np.recarray(0, dtype=SAMPLE_FIELDS))
    projector_snapshots: SnapshotLog = field(default_factory=SnapshotLog)
    features_new: List[np.ndarray] = field(default_factory=list)
    drift_similarity: Optional[Dict[int, float]] = None
    phase_seconds: Dict[str, float] = field(default_factory=lambda: {p: 0.0 for p in PHASES})
    n_stream_samples: int = 0
    solve_counts: SolveCounts = field(default_factory=SolveCounts)   # analytic solves

    @property
    def accuracy(self) -> float:
        n = len(self.samples)
        return np.count_nonzero(self.samples.predicted == self.samples.class_id) / n if n else 0.0

    def per_class_accuracy(self) -> Dict[int, float]:
        """Accuracy per class, the classes in order of first arrival."""
        ids, first, inverse = np.unique(self.samples.class_id, return_index=True,
                                        return_inverse=True)
        hits = np.bincount(inverse[self.samples.predicted == self.samples.class_id],
                           minlength=len(ids))
        order = np.argsort(first)
        return dict(zip(ids[order].tolist(), (hits / np.bincount(inverse))[order].tolist()))


@dataclass
class RunResult:
    config: RunConfig
    seed: int
    tasks: List[TaskRunRecord]
    oracle: bool = False

    @property
    def per_task_accuracy(self) -> List[float]:
        return [rec.accuracy for rec in self.tasks]

    @property
    def last_accuracy(self) -> float:
        """Mean over per-class accuracies at the final stage."""
        per_class = self.tasks[-1].per_class_accuracy()
        return float(np.mean(list(per_class.values())))

    def class_group_accuracy(self, classes) -> float:
        per_class = self.tasks[-1].per_class_accuracy()
        vals = [per_class[c] for c in classes if c in per_class]
        return float(np.mean(vals)) if vals else float("nan")

    def old_new_accuracy(self, source) -> Tuple[float, float]:
        """(old, new) class accuracy at the final stage, split per the
        cold/warm convention in the config."""
        t_last = len(self.tasks)
        if self.config.split_style == "warm":
            old = source.classes_of_task(1)
            new = [c for c in source.seen_classes(t_last) if c not in old]
        else:
            new = source.classes_of_task(t_last)
            new_set = set(new)
            old = [c for c in source.seen_classes(t_last) if c not in new_set]
        return self.class_group_accuracy(old), self.class_group_accuracy(new)

    def mean_phase_seconds(self) -> Dict[str, float]:
        n = sum(rec.n_stream_samples for rec in self.tasks)
        return {p: sum(rec.phase_seconds[p] for rec in self.tasks) / n if n else 0.0
                for p in PHASES}

    @property
    def mean_sample_seconds(self) -> float:
        return sum(self.mean_phase_seconds().values())


@dataclass
class _Fit:
    """One task's projector fit. `push` stages each (old, new) pair and
    pushes the staged pairs into `queue` every `update_stride` pairs; the
    stream calls `solve()` every `resolve_stride` pairs for (W, update), the
    arguments of `SnapshotLog.append`. `counts` tallies analytic solves."""

    solve: Callable[[], Tuple[np.ndarray, Optional[tuple]]]
    queue: QueuePair | LatestPair | None = None
    update_stride: int = 1
    resolve_stride: int = 1
    counts: SolveCounts = field(default_factory=SolveCounts)
    pending: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def push(self, z_old: np.ndarray, z_new: np.ndarray) -> None:
        self.pending.append((z_old, z_new))
        if len(self.pending) >= self.update_stride:
            old, new = zip(*self.pending)
            self.pending.clear()
            self.queue.push(old, new)


def _make_fit(config: RunConfig, old_table: Optional[PrototypeTable], rng_seed: int,
              oracle: bool = False, pairs=(), selected=None) -> Optional[_Fit]:
    """One task's fit, None without old classes or for solver "none". The
    oracle's, whatever the solver, runs `_offline_gd` on the selected
    `pairs` (all when none is), in their order, which sets the Gram's bits.
    "analytic" solves by a WindowSolver over a queue pre-filled with
    pseudo-features from `rng_seed`, and "gd_with_queue" by `gd_steps`
    descent steps on its rows; "gd" steps on a `LatestPair`, so it
    descends on each pair alone, at every pair, whatever the strides."""
    if old_table is None or not oracle and config.solver == "none":
        return None
    lr, optimizer = config.gd_learning_rate, config.gd_optimizer
    if oracle:
        fit_pairs = [p for p in pairs if selected is None or p[0] in selected] or pairs
        q_old, q_new = (np.vstack([p[k] for p in fit_pairs]) for k in (1, 2))
        return _Fit(lambda: (_offline_gd(q_old, q_new, lr, optimizer), None))
    strides = (config.update_stride, config.resolve_stride)
    if config.solver == "gd":
        queue, strides = LatestPair(), (1, 1)
    else:
        queue = init_with_pseudo_features(old_table, capacity=config.queue_capacity,
                                          noise_scale=config.noise_scale, rng_seed=rng_seed)
    if config.solver == "analytic":
        window = WindowSolver(queue, config.ridge, singular_policy=config.singular_policy,
                              min_ridge=config.min_ridge)
        return _Fit(lambda: (window.solve()[0], window.update), queue, *strides, window.counts)
    descent = _Descent(np.eye(old_table.dimension), lr, optimizer)

    def descend() -> Tuple[np.ndarray, None]:
        q_old, q_new = queue.matrices()
        for _ in range(config.gd_steps):   # the gradient of ||Q_old W - Q_new||^2 / n
            residual = q_old @ descent.weights - q_new
            descent.step((2.0 / q_old.shape[0]) * (q_old.T @ residual))
        return descent.weights, None
    return _Fit(descend, queue, *strides)


def _stream_order(n: int, seed: int, task: int) -> np.ndarray:
    return np.random.default_rng([seed, 7919, task]).permutation(n)


def _selected_classes(source, config: RunConfig) -> Optional[frozenset]:
    """Class subset driving the unbalanced test stream (None = balanced)."""
    if config.test_balance != "unbalanced":
        return None
    all_classes = sorted(source.seen_classes(source.num_tasks))
    k = max(1, int(round(config.unbalanced_fraction * len(all_classes))))
    rng = np.random.default_rng([config.seed, 104729])
    picked = rng.choice(len(all_classes), size=k, replace=False)
    return frozenset(all_classes[i] for i in picked)


def run_engine(source, config: RunConfig, *, oracle: bool = False) -> RunResult:
    """Run the full task sequence at `config.seed` and collect metrics; with
    `oracle`, each task is the offline oracle's (see `run_gd_oracle`)."""
    selected = _selected_classes(source, config)
    table: Optional[PrototypeTable] = None
    records: List[TaskRunRecord] = []
    for t in range(1, source.num_tasks + 1):
        table, rec = run_task_cycle(source, config, t, table, selected, oracle=oracle)
        records.append(rec)
    return RunResult(config=config, seed=config.seed, tasks=records, oracle=oracle)


def run_gd_oracle(source, config: RunConfig) -> RunResult:
    """Offline oracle: each task's projector is fitted once, by gradient
    descent to convergence, before any prediction (see `run_task_cycle`).
    Explicitly non-online; the result is labeled as an oracle."""
    return run_engine(source, config, oracle=True)


def _fresh_table(source, t: int) -> PrototypeTable:
    """Class means of task t's train features."""
    return class_means({c: source.train_matrix(t, c) for c in source.classes_of_task(t)})


def run_task_cycle(
    source,
    config: RunConfig,
    t: int,
    old_table: Optional[PrototypeTable],
    selected: Optional[frozenset] = None,
    *,
    oracle: bool = False,
) -> Tuple[PrototypeTable, TaskRunRecord]:
    """One task's test stage at `config.seed`; returns (prototype table for
    the next task, metrics record). The fit from `_make_fit` takes each
    streamed pair by `push` and solves every `resolve_stride` pairs, each W
    logged and evolving the layout; the oracle's solves once, before every
    pair is classified, in `source.test_pairs(t)` order. Pairs of classes
    outside `selected` are classified against the final state and flagged
    `excluded`. The table handed on is `evolve_prototypes` of the old
    classes no fresh class overrides, under the last W, and the fresh."""
    rec = TaskRunRecord(task=t, old_table=old_table, fresh_table=_fresh_table(source, t))
    pairs = source.test_pairs(t)
    layout = _TaskLayout(rec)
    fit = _make_fit(config, old_table, config.seed * 1000 + t, oracle, pairs, selected)
    last = None   # the W of the last solve

    def solve() -> None:
        nonlocal last
        last, update = fit.solve()
        rec.projector_snapshots.append(last, update)
        layout.evolve(last)

    streamed, tail = [], pairs
    if not oracle:
        streamed = [pairs[i] for i in _stream_order(len(pairs), config.seed, t)]
        tail = [p for p in streamed if selected is not None and p[0] not in selected]
        streamed = [p for p in streamed if selected is None or p[0] in selected]
    elif fit is not None:
        solve()   # the oracle's one fit, before its first prediction

    staged: List[Tuple[int, int]] = []   # (class id, w_index) per staged sample

    def predict(class_id: int, z_new: np.ndarray) -> None:
        staged.append((class_id, len(rec.projector_snapshots) - 1))
        start = time.perf_counter()
        layout.stage(z_new)
        rec.phase_seconds["predict"] += time.perf_counter() - start
        rec.features_new.append(np.asarray(z_new, dtype=np.float64))

    for i, (class_id, z_old, z_new) in enumerate(streamed):
        if config.predict_before_update:
            predict(class_id, z_new)
        if fit is not None:
            start = time.perf_counter()
            try:
                fit.push(z_old, z_new)
                pushed = time.perf_counter()
                if (i + 1) % fit.resolve_stride == 0:
                    solve()
            except Exception:
                layout.predictions()   # an earlier sample's error wins
                raise
            rec.phase_seconds["queue"] += pushed - start
            rec.phase_seconds["solve"] += time.perf_counter() - pushed
        if not config.predict_before_update:
            predict(class_id, z_new)
    # the per-sample timings divide by this count, so an oracle task, which
    # streams nothing, counts 0 and its timing.csv rows read 0
    rec.n_stream_samples = len(streamed)

    # the tail, the excluded classes' pairs (every pair for the oracle), is
    # evaluated against the final state without contributing to queue updates
    for class_id, _, z_new in tail:
        predict(class_id, z_new)
    start = time.perf_counter()
    predicted = layout.predictions()
    rec.phase_seconds["predict"] += time.perf_counter() - start
    rec.samples = samples = np.recarray(len(staged), dtype=SAMPLE_FIELDS)
    samples.class_id, samples.w_index = np.array(staged, dtype=np.int64).reshape(-1, 2).T
    samples.predicted = predicted
    samples.excluded = selected is not None and ~np.isin(samples.class_id, list(selected))

    table = rec.fresh_table
    if last is not None:
        kept = [c for c in old_table.class_ids if c not in table]
        table = evolve_prototypes(old_table, last, kept).merged_with(table)
    elif old_table is not None:
        table = old_table.merged_with(table)
    if fit is not None:
        rec.solve_counts = fit.counts
    if fit is not None and hasattr(source, "reference_drifted_prototypes"):
        rec.drift_similarity = true_drift_similarity(
            table.restricted_to(old_table.class_ids),
            source.reference_drifted_prototypes(t, old_table), old_table)
    return table, rec


# A layout stages at most this many samples, and at most this many bytes of
# their matrices, before it classifies them.
CHUNK_SAMPLES = 64
CHUNK_BYTES = 512 * 1024


class _TaskLayout:
    """The table a task classifies against, its old prototypes carried
    through one projector W and merged with the task's fresh prototypes,
    held per staged sample so that a chunk of samples is classified at once.

    What depends only on class ids is built once per task: the ascending
    class ids, the stale merged matrix, and the old rows that no fresh
    prototype overrides with their positions in the matrix. The positions
    are a slice when those rows are one block, as they always are in
    class-incremental order, and an index array otherwise. A chunk of
    slots, each a copy of the stale matrix with a row of norms holding the
    per-task norms, is filled once per task.

    `evolve` writes the old rows' images under a W into the next slot, by
    one (k, d) @ (d, d) gemm at every d, within 2 d eps (|P| |W|) of the
    per-row products, which only pick an argmax. `stage` takes the next
    sample's feature and, if no evolve wrote its slot, copies the current
    images into it; `predictions` returns the classes of the samples staged
    since its last call, in staging order. A chunk is classified when it is
    full and when `predictions` is called, each sample against its own
    slot, by a few stacked products: the images' norms in one last-axis
    reduce (the other rows, and the stale rows until a W moves them, keep
    the per-task norms), the feature norms by a stacked dot and the
    similarities by a stacked gemv. Each stacked product runs the kernel
    the per-sample call ran on its slice, so every prediction has the bits
    of `core._nearest_class` on that slot
    (tests/test_engine.py::TestStackedKernels). A chunk with a zero or
    non-finite norm or a zero or non-finite feature norm is classified slot
    by slot, in order, through the images' non-finite check and
    `_nearest_class`, so it raises the error of its first sample that has
    one. A feature of the wrong shape first classifies the staged samples,
    then raises `_nearest_class`'s error on its own slot.
    """

    def __init__(self, rec: TaskRunRecord):
        old, fresh = rec.old_table, rec.fresh_table
        stale = fresh if old is None else old.merged_with(fresh)
        self.class_ids = stale.class_ids
        self.ids = np.array(self.class_ids)
        self.stale = stale.matrix()
        size = max(1, min(CHUNK_SAMPLES, CHUNK_BYTES // self.stale.nbytes))
        self.slots = np.empty((size,) + self.stale.shape)
        self.slots[:] = self.stale
        self.norms = np.empty(self.slots.shape[:2])
        self.norms[:] = _row_norms(self.stale)
        self.features = np.empty((size, self.stale.shape[1]))
        kept = [] if old is None else [c for c in old.class_ids if c not in fresh]
        positions = np.searchsorted(self.class_ids, kept)
        # ascending positions are one block iff they span exactly their count
        if kept and positions[-1] - positions[0] == len(kept) - 1:
            positions = slice(positions[0], positions[-1] + 1)
        self.positions = positions
        self.old_rows = self.stale[positions]
        self.moved = False    # whether any evolve has written images under a W
        self.count = 0        # staged samples not yet classified
        self.source = 0       # the slot that holds the current images
        self.predicted: List[int] = []   # classified since the last `predictions`

    def evolve(self, weights: Optional[np.ndarray]) -> None:
        """Write the old rows' images under the projector `weights` (None
        restores the stale rows) into the next sample's slot."""
        n = self.count
        if weights is None:
            self.slots[n, self.positions] = self.old_rows
        else:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if isinstance(self.positions, slice):   # the gemm writes the slot's block
                np.matmul(self.old_rows, weights, out=self.slots[n, self.positions])
            else:
                self.slots[n, self.positions] = self.old_rows @ weights
            self.moved = True
        self.source = n

    def stage(self, feature: np.ndarray) -> None:
        """Stage `feature` to be classified against the current images."""
        n = self.count
        if self.source != n:
            self.slots[n, self.positions] = self.slots[self.source, self.positions]
            self.source = n
        feature = np.asarray(feature, dtype=np.float64)
        if feature.shape != self.features.shape[1:]:
            self._classify()   # an earlier sample's error wins
            _nearest_class(feature, self.class_ids, *self._held(n))   # raises on the shape
        self.features[n] = feature
        self.count = n + 1
        if self.count == len(self.slots):
            self._classify()

    def predictions(self) -> List[int]:
        """The predicted class of every sample staged since the last call, in
        staging order."""
        self._classify()
        predicted, self.predicted = self.predicted, []
        return predicted

    def _classify(self) -> None:
        """Classify the staged samples, each against its own slot, into
        `predicted`."""
        n, self.count = self.count, 0
        if not n:
            return
        norms = self.norms[:n]
        if self.moved:   # else every slot holds the stale rows, whose norms the buffer holds
            images = self.slots[:n, self.positions]
            norms[:, self.positions] = np.sqrt(np.add.reduce(images * images, axis=-1))
        features = self.features[:n, :, None]
        fnorms = np.sqrt(features.transpose(0, 2, 1) @ features)[:, 0]
        if norms.min() > 0.0 and fnorms.min() > 0.0 and max(norms.max(), fnorms.max()) < np.inf:
            sims = (self.slots[:n] @ features)[:, :, 0] / (norms * fnorms)
            # argmax returns the first maximum, the smallest class id among ties
            self.predicted += self.ids[sims.argmax(axis=1)].tolist()
        else:   # one by one, as the per-sample path did, raising the first error
            self.predicted += [_nearest_class(self.features[i], self.class_ids, *self._held(i))
                               for i in range(n)]

    def _held(self, i: int) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Slot i's matrix, its row norms and whether one of them is zero;
        raises DegenerateInputError if an image is non-finite."""
        matrix = self.slots[i]
        images = matrix[self.positions]
        norms = self.norms[i]
        norms[self.positions] = _row_norms(images)
        # a non-finite image has a non-finite norm, so the images are
        # scanned only when some norm is zero, overflows or is NaN
        low = norms.min()
        if not (low > 0.0 and norms.max() < np.inf) and not np.isfinite(images).all():
            raise DegenerateInputError("evolved prototype contains non-finite components")
        return matrix, norms, not low > 0.0


def _offline_gd(q_old: np.ndarray, q_new: np.ndarray, learning_rate: float,
                optimizer: str) -> np.ndarray:
    """Full-batch descent on precomputed Gram products until the gradient
    norm falls below OFFLINE_GRAD_TOL, for at most OFFLINE_MAX_STEPS steps."""
    n, d = q_old.shape
    gram = q_old.T @ q_old / n
    rhs = q_old.T @ q_new / n
    descent = _Descent(np.eye(d), learning_rate, optimizer)
    for _ in range(OFFLINE_MAX_STEPS):
        grad = 2.0 * (gram @ descent.weights - rhs)
        # False for a non-finite grad, which step rejects
        if np.linalg.norm(grad) < OFFLINE_GRAD_TOL:
            break
        descent.step(grad)
    return descent.weights


def replay_audit(result: RunResult) -> bool:
    """Re-evaluate every logged prediction from the logged projector
    snapshots and base tables; returns True iff all match exactly, so a
    task whose logged features and samples differ in number fails. Each
    task's log is replayed in one pass, in sample order, through its
    buffer, and its samples are staged through a layout of their own, as
    the stream staged them; stored full entries are read as they are."""
    for rec in result.tasks:
        if len(rec.features_new) != len(rec.samples):
            return False
        layout, w_index, view = _TaskLayout(rec), -1, rec.projector_snapshots.view
        for logged, z_new in zip(rec.samples.w_index.tolist(), rec.features_new):
            if logged != w_index:
                w_index = logged
                layout.evolve(None if w_index < 0 else view(w_index))
            layout.stage(z_new)
        if not np.array_equal(layout.predictions(), rec.samples.predicted):
            return False
    return True
