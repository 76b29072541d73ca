"""Streaming evolution engine.

Per task: compute fresh prototypes, pre-fill the paired queues with noised
old prototypes, then per arriving test sample push the paired features,
re-fit the projector, evolve the old prototypes from their original
previous-space values, and classify by cosine nearest class mean over the
union of evolved old and fresh new prototypes. A task without old classes,
or a run with solver "none", fits nothing and classifies against the stale
old prototypes.

The union is held per task as one matrix and its row norms (`_TaskLayout`):
each solve overwrites the evolved rows, mapped by one gemm, and their norms
in place, and each sample is classified against those arrays. A
`PrototypeTable` is built once, at task end, for the drift similarity and
the next task, from the old rows mapped again row by row. The replay audit
and the offline oracle classify through the same layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import RunConfig
from .core import PrototypeTable, _nearest_class, _row_norms, class_means
from .drift_sim import true_drift_similarity
from .errors import DegenerateInputError
from .projector import SolveCounts, WindowSolver, _Descent, _map_rows, _queue_gradient
from .queues import init_with_pseudo_features

PHASES = ("queue", "solve", "predict")


@dataclass
class SampleLog:
    """One classified test arrival; w_index points into the task's projector
    snapshots (-1 = no projector involved)."""

    class_id: int
    predicted: int
    w_index: int
    excluded: bool = False


@dataclass
class TaskRunRecord:
    task: int
    old_table: Optional[PrototypeTable]
    fresh_table: PrototypeTable
    samples: List[SampleLog] = field(default_factory=list)
    projector_snapshots: List[np.ndarray] = field(default_factory=list)
    features_new: List[np.ndarray] = field(default_factory=list)
    drift_similarity: Optional[Dict[int, float]] = None
    phase_seconds: Dict[str, float] = field(default_factory=lambda: {p: 0.0 for p in PHASES})
    n_stream_samples: int = 0
    solve_counts: SolveCounts = field(default_factory=SolveCounts)   # analytic solves

    @property
    def accuracy(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.predicted == s.class_id for s in self.samples) / len(self.samples)

    def per_class_accuracy(self) -> Dict[int, float]:
        hits: Dict[int, int] = {}
        totals: Dict[int, int] = {}
        for s in self.samples:
            totals[s.class_id] = totals.get(s.class_id, 0) + 1
            hits[s.class_id] = hits.get(s.class_id, 0) + (s.predicted == s.class_id)
        return {c: hits[c] / totals[c] for c in totals}


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
        totals = {p: 0.0 for p in PHASES}
        n = 0
        for rec in self.tasks:
            for p in PHASES:
                totals[p] += rec.phase_seconds[p]
            n += rec.n_stream_samples
        if n == 0:
            return {p: 0.0 for p in PHASES}
        return {p: totals[p] / n for p in PHASES}

    @property
    def mean_sample_seconds(self) -> float:
        return sum(self.mean_phase_seconds().values())


class _StreamFit:
    """Drift-projector fit over one task's stream of (old, new) feature pairs.

    "analytic" and "gd_with_queue" push through a WindowSolver into paired
    queues pre-filled with pseudo-features and re-solve every
    `resolve_stride` samples, "analytic" by the window's solve and
    "gd_with_queue" from the queued rows; "gd" descends on each pair alone,
    as a one-row queue, at every sample.
    """

    def __init__(self, config: RunConfig, old_table: PrototypeTable, rng_seed: int):
        self.config = config
        self.descent = _Descent(np.eye(old_table.dimension), config.gd_learning_rate,
                                config.gd_optimizer)
        self.window = None
        if config.solver != "gd":
            queue = init_with_pseudo_features(
                old_table, capacity=config.queue_capacity,
                noise_scale=config.noise_scale, rng_seed=rng_seed,
            )
            self.window = WindowSolver(queue, config.ridge,
                                       singular_policy=config.singular_policy,
                                       min_ridge=config.min_ridge)
        self.pending: List[Tuple[np.ndarray, np.ndarray]] = []

    def push(self, z_old: np.ndarray, z_new: np.ndarray) -> None:
        self.pending.append((z_old, z_new))
        if self.window is None:
            del self.pending[:-1]   # gd keeps the latest pair only
        elif len(self.pending) >= self.config.update_stride:
            old, new = zip(*self.pending)
            self.pending.clear()
            self.window.push(old, new)   # which stacks each side's rows once

    def solve(self, i: int) -> Optional[np.ndarray]:
        """Re-fitted weights after the i-th pair, or None when no solve is due."""
        cfg = self.config
        if cfg.solver == "gd":
            q_old, q_new = (np.asarray(rows, dtype=np.float64)[None] for rows in self.pending[0])
        elif (i + 1) % cfg.resolve_stride:
            return None
        elif cfg.solver == "analytic":
            return self.window.solve()[0]
        else:
            q_old, q_new = self.window.queue.matrices()
        for _ in range(cfg.gd_steps):
            self.descent.step(_queue_gradient(q_old, q_new, self.descent.weights))
        return self.descent.weights


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


def run_engine(source, config: RunConfig) -> RunResult:
    """Run the full task sequence at `config.seed` and collect metrics."""
    selected = _selected_classes(source, config)
    table: Optional[PrototypeTable] = None
    records: List[TaskRunRecord] = []
    for t in range(1, source.num_tasks + 1):
        table, rec = run_task_cycle(source, config, t, table, selected)
        records.append(rec)
    return RunResult(config=config, seed=config.seed, tasks=records)


def _fresh_table(source, t: int) -> PrototypeTable:
    """Class means of task t's train features."""
    return class_means({c: source.train_matrix(t, c) for c in source.classes_of_task(t)})


def run_task_cycle(
    source,
    config: RunConfig,
    t: int,
    old_table: Optional[PrototypeTable],
    selected: Optional[frozenset] = None,
) -> Tuple[PrototypeTable, TaskRunRecord]:
    """One task's test stage at `config.seed`; returns (prototype table for
    the next task, metrics record)."""
    seed = config.seed
    fresh = _fresh_table(source, t)
    pairs = source.test_pairs(t)
    streamed = [pairs[i] for i in _stream_order(len(pairs), seed, t)]
    excluded: List = []
    if selected is not None:
        excluded = [p for p in streamed if p[0] not in selected]
        streamed = [p for p in streamed if p[0] in selected]

    rec = TaskRunRecord(task=t, old_table=old_table, fresh_table=fresh)
    fit = None
    if old_table is not None and config.solver != "none":
        fit = _StreamFit(config, old_table, rng_seed=seed * 1000 + t)
    layout = _TaskLayout(rec)
    w_index = -1

    def predict(class_id: int, z_new: np.ndarray, is_excluded: bool) -> None:
        start = time.perf_counter()
        pred = layout.predict(z_new)
        rec.phase_seconds["predict"] += time.perf_counter() - start
        rec.samples.append(SampleLog(class_id, int(pred), w_index, excluded=is_excluded))
        rec.features_new.append(np.asarray(z_new, dtype=np.float64))

    for i, (class_id, z_old, z_new) in enumerate(streamed):
        if config.predict_before_update:
            predict(class_id, z_new, False)
        if fit is not None:
            start = time.perf_counter()
            fit.push(z_old, z_new)
            pushed = time.perf_counter()
            weights = fit.solve(i)
            if weights is not None:
                rec.projector_snapshots.append(weights)
                w_index = len(rec.projector_snapshots) - 1
                layout.evolve(w_index)
            rec.phase_seconds["queue"] += pushed - start
            rec.phase_seconds["solve"] += time.perf_counter() - pushed
        if not config.predict_before_update:
            predict(class_id, z_new, False)
    rec.n_stream_samples = len(streamed)

    # excluded classes are evaluated against the final state without
    # contributing to queue updates
    for class_id, _, z_new in excluded:
        predict(class_id, z_new, True)

    table = layout.table()
    if fit is not None:
        if fit.window is not None:
            rec.solve_counts = fit.window.counts
        _record_drift_similarity(rec, source, table)
    return table, rec


class _TaskLayout:
    """The table a task classifies against, held as arrays updated in place:
    its old prototypes carried through one projector snapshot, merged with
    the task's fresh prototypes.

    What depends only on class ids is built once per task: the ascending
    class ids, a writable copy of the stale merged matrix with its row norms
    and zero-norm flag, the old rows that no fresh prototype overrides with
    their positions in the matrix, and whether any other row has zero norm.
    The positions are a slice when those rows are one block, as they always
    are in class-incremental order, and an index array otherwise. `evolve`
    writes those rows' images under a snapshot, and their norms, over the
    held ones; `predict` classifies against the held arrays.

    `evolve` maps the old rows by one (k, d) @ (d, d) gemm at every d, within
    2 d eps (|P| |W|) of the per-row products, which only pick an argmax.
    `table`, which seeds the next task, maps them again through
    `projector._map_rows`, so the rows a task hands on keep its per-row bits
    below HELD_MIN_DIMENSION: "gd_with_queue" turns a last-bit difference
    there into a different projector (CHANGES.md).
    """

    def __init__(self, rec: TaskRunRecord):
        self.snapshots = rec.projector_snapshots
        old, fresh = rec.old_table, rec.fresh_table
        stale = fresh if old is None else old.merged_with(fresh)
        self.class_ids = stale.class_ids
        self.matrix = stale.matrix().copy()
        self.norms = _row_norms(self.matrix)
        self.zero_norm = bool((self.norms == 0.0).any())
        kept = [] if old is None else [c for c in old.class_ids if c not in fresh]
        positions = np.searchsorted(self.class_ids, kept)
        self.fixed_zero_norm = bool((np.delete(self.norms, positions) == 0.0).any())
        # ascending positions are one block iff they span exactly their count
        if kept and positions[-1] - positions[0] == len(kept) - 1:
            positions = slice(positions[0], positions[-1] + 1)
        self.positions = positions
        self.old_rows = self.matrix[positions].copy()   # a slice is a view of what evolve writes
        self.weights: Optional[np.ndarray] = None       # the last evolve's, None for the stale rows

    def evolve(self, w_index: int) -> None:
        """Map the old rows through snapshot `w_index` (-1 restores them);
        raises DegenerateInputError, and writes nothing, if an image is
        non-finite."""
        if w_index < 0:
            weights, images = None, self.old_rows
        else:
            weights = np.ascontiguousarray(self.snapshots[w_index], dtype=np.float64)
            images = self.old_rows @ weights
        norms = _row_norms(images)
        # a non-finite image has a non-finite norm, so the images are
        # scanned only when some norm is zero, overflows or is NaN
        low = np.minimum.reduce(norms, initial=np.inf)
        if (not (low > 0.0 and np.maximum.reduce(norms, initial=0.0) < np.inf)
                and not np.isfinite(images).all()):
            raise DegenerateInputError("evolved prototype contains non-finite components")
        self.matrix[self.positions] = images
        self.norms[self.positions] = norms
        self.zero_norm = self.fixed_zero_norm or not low > 0.0
        self.weights = weights

    def predict(self, feature: np.ndarray) -> int:
        return _nearest_class(feature, self.class_ids, self.matrix, self.norms, self.zero_norm)

    def table(self) -> PrototypeTable:
        """The held table as a PrototypeTable of its own, with the old rows
        mapped by `_map_rows` under the last evolve's snapshot."""
        matrix = self.matrix.copy()
        if self.weights is not None:
            matrix[self.positions] = _map_rows(self.old_rows, self.weights)
        return PrototypeTable._from_checked_rows(self.class_ids, matrix)


def _record_drift_similarity(rec: TaskRunRecord, source, table: PrototypeTable) -> None:
    if not hasattr(source, "reference_drifted_prototypes"):
        return
    old = rec.old_table
    rec.drift_similarity = true_drift_similarity(
        table.restricted_to(old.class_ids), source.reference_drifted_prototypes(rec.task, old), old
    )


def run_gd_oracle(source, config: RunConfig) -> RunResult:
    """Offline oracle: the projector is optimized by gradient descent to
    convergence on the full paired test stream before any prediction.

    Explicitly non-online; the result is labeled as an oracle."""
    selected = _selected_classes(source, config)
    table: Optional[PrototypeTable] = None
    records: List[TaskRunRecord] = []
    for t in range(1, source.num_tasks + 1):
        pairs = source.test_pairs(t)
        rec = TaskRunRecord(task=t, old_table=table, fresh_table=_fresh_table(source, t))
        w_index = -1
        if table is not None:
            fit_pairs = pairs if selected is None else [p for p in pairs if p[0] in selected]
            if not fit_pairs:
                fit_pairs = pairs
            q_old = np.vstack([p[1] for p in fit_pairs])
            q_new = np.vstack([p[2] for p in fit_pairs])
            rec.projector_snapshots.append(_offline_gd(q_old, q_new, config.gd_learning_rate,
                                                       config.gd_optimizer))
            w_index = 0
        layout = _TaskLayout(rec)
        layout.evolve(w_index)
        table = layout.table()
        if w_index == 0:
            _record_drift_similarity(rec, source, table)
        for class_id, _, z_new in pairs:
            pred = layout.predict(z_new)
            is_excluded = selected is not None and class_id not in selected
            rec.samples.append(SampleLog(class_id, int(pred), w_index, excluded=is_excluded))
            rec.features_new.append(np.asarray(z_new, dtype=np.float64))
        rec.n_stream_samples = len(pairs)
        records.append(rec)
    return RunResult(config=config, seed=config.seed, tasks=records, oracle=True)


def _offline_gd(q_old: np.ndarray, q_new: np.ndarray, learning_rate: float,
                optimizer: str, max_steps: int = 20000, grad_tol: float = 1e-10) -> np.ndarray:
    """Full-batch descent on precomputed Gram products until the gradient
    norm falls below tolerance."""
    n, d = q_old.shape
    gram = q_old.T @ q_old / n
    rhs = q_old.T @ q_new / n
    descent = _Descent(np.eye(d), learning_rate, optimizer)
    for _ in range(max_steps):
        grad = 2.0 * (gram @ descent.weights - rhs)
        if np.linalg.norm(grad) < grad_tol:   # False for a non-finite grad, which step rejects
            break
        descent.step(grad)
    return descent.weights


def replay_audit(result: RunResult) -> bool:
    """Re-evaluate every logged prediction from the stored projector
    snapshots and base tables; returns True iff all match exactly."""
    for rec in result.tasks:
        layout, w_index = _TaskLayout(rec), -1
        for sample, z_new in zip(rec.samples, rec.features_new):
            if sample.w_index != w_index:
                w_index = sample.w_index
                layout.evolve(w_index)
            if layout.predict(z_new) != sample.predicted:
                return False
    return True
