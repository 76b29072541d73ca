"""Correctness checks run after each workload, outside the timed region.

Every check recomputes what the engine should have produced with plain
numpy, from the source's own data (scenario features and drift maps,
extractor features) and the public fields of a run result: per-sample
predictions and projector snapshots. None compares against a stored copy
of earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def cosine_ncm(features: np.ndarray, class_ids: Sequence[int], prototypes: np.ndarray) -> np.ndarray:
    """Cosine nearest class mean; ties go to the smallest class id."""
    order = np.argsort(class_ids, kind="stable")
    ids = np.asarray(class_ids)[order]
    protos = prototypes[order]
    f = features / np.linalg.norm(features, axis=1, keepdims=True)
    p = protos / np.linalg.norm(protos, axis=1, keepdims=True)
    return ids[np.argmax(f @ p.T, axis=1)]


def engine_accuracy(record, class_ids: np.ndarray) -> float:
    """Accuracy of one task's logged predictions, after checking that the
    task classified exactly the expected test samples once each."""
    labels = np.array([s.class_id for s in record.samples])
    predicted = np.array([s.predicted for s in record.samples])
    if not np.array_equal(np.sort(labels), np.sort(class_ids)):
        raise CheckFailed(f"task {record.task}: logged samples are not the task's test samples")
    return float(np.mean(predicted == labels))


def synthetic_reference_accuracies(scenario) -> List[Dict[str, float]]:
    """Per task, the oracle accuracy (train class means carried through the
    ground-truth drift maps) and the stale one (class means left where they
    were computed), both by cosine NCM on the task's test features."""
    out = []
    for t in range(1, scenario.num_tasks + 1):
        seen = sorted(scenario.seen_classes(t))
        task_of = {c: k for k in range(1, t + 1) for c in scenario.classes_of_task(k)}
        stale = np.vstack([scenario.train_matrix(task_of[c], c).mean(axis=0) for c in seen])
        oracle = stale.copy()
        for row, c in enumerate(seen):
            for j in range(task_of[c] + 1, t + 1):
                oracle[row] = oracle[row] @ scenario.drift_map(j).projector_target
        features = np.vstack([scenario.test_matrix(t, c) for c in seen])
        labels = np.concatenate([np.full(scenario.test_matrix(t, c).shape[0], c) for c in seen])
        out.append({
            "labels": labels,
            "oracle": float(np.mean(cosine_ncm(features, seen, oracle) == labels)),
            "stale": float(np.mean(cosine_ncm(features, seen, stale) == labels)),
        })
    return out


@dataclass(frozen=True)
class SyntheticLimits:
    """Stated tolerances of the synthetic checks.

    oracle_margin: every task's accuracy may trail the oracle by at most this.
    min_lift: on every task where the stale classifier trails the oracle by
        more than this, the engine must beat stale by at least this much; the
        last task must be such a task, or the workload exercises no drift.
    projector_tolerance: bound on ||W - W_true||_F / ||W_true||_F for each
        task's final projector snapshot.
    """

    oracle_margin: float
    min_lift: float
    projector_tolerance: float


# d=32, capacity 150: every task from the second on streams at least 200
# real pairs, so the pseudo-features are flushed early and the fit tracks the
# drift map closely.
REF_LIMITS = SyntheticLimits(oracle_margin=0.02, min_lift=0.05, projector_tolerance=0.25)
# d=128, capacity 1000, 800 pairs in task 2: the queue never holds real pairs
# only, so the pseudo-features pull the fit towards the identity all task
# long and early samples are classified almost as stale ones.
WIDE_LIMITS = SyntheticLimits(oracle_margin=0.40, min_lift=0.10, projector_tolerance=0.40)


def check_synthetic(scenario, result, limits: SyntheticLimits, float32: bool = False) -> None:
    """Predictions replay from the snapshots; accuracy and the final
    projectors agree with the scenario's ground truth within `limits`."""
    check_predictions(result, synthetic_fresh_means(scenario, float32))
    refs = synthetic_reference_accuracies(scenario)
    if len(result.tasks) != len(refs):
        raise CheckFailed(f"run has {len(result.tasks)} tasks, scenario has {len(refs)}")
    for t, (rec, ref) in enumerate(zip(result.tasks, refs), start=1):
        acc = engine_accuracy(rec, ref["labels"])
        if acc < ref["oracle"] - limits.oracle_margin:
            raise CheckFailed(f"task {t}: accuracy {acc:.4f} trails the oracle "
                              f"{ref['oracle']:.4f} by more than {limits.oracle_margin}")
        if ref["oracle"] - ref["stale"] > limits.min_lift and acc < ref["stale"] + limits.min_lift:
            raise CheckFailed(f"task {t}: accuracy {acc:.4f} is not {limits.min_lift} above "
                              f"the stale accuracy {ref['stale']:.4f}")
        if t == 1:
            continue
        if not rec.projector_snapshots:
            raise CheckFailed(f"task {t}: no projector snapshot")
        target = scenario.drift_map(t).projector_target
        distance = projector_distance(rec.projector_snapshots[-1], target)
        if distance > limits.projector_tolerance:
            raise CheckFailed(f"task {t}: final projector is {distance:.4f} (relative) from the "
                              f"drift map, over {limits.projector_tolerance}")
    if refs[-1]["oracle"] - refs[-1]["stale"] <= limits.min_lift:
        raise CheckFailed("the last task's drift costs the stale classifier no more than "
                          f"{limits.min_lift}; the workload does not exercise compensation")


def projector_distance(weights: np.ndarray, target: np.ndarray) -> float:
    return float(np.linalg.norm(weights - target) / np.linalg.norm(target))


def _f32(matrix: np.ndarray) -> np.ndarray:
    return np.asarray(matrix, dtype=np.float32).astype(np.float64)


def check_dump_matches_scenario(source, scenario) -> None:
    """Every vector the dump source holds equals the float32 rounding of the
    generating scenario's feature, with the same class and pairing."""
    if source.num_tasks != scenario.num_tasks or source.dimension != scenario.dimension:
        raise CheckFailed("dump source shape differs from the scenario")
    for t in range(1, scenario.num_tasks + 1):
        classes = scenario.classes_of_task(t)
        records = source.train_records(t)
        want = _f32(np.vstack([scenario.train_matrix(t, c) for c in classes]))
        want_ids = np.concatenate([np.full(scenario.train_matrix(t, c).shape[0], c) for c in classes])
        got = np.vstack([r.vector for r in records])
        if not (np.array_equal(got, want) and np.array_equal([r.class_id for r in records], want_ids)):
            raise CheckFailed(f"task {t}: dump train vectors differ from the scenario's")
        seen = sorted(scenario.seen_classes(t))
        pairs = source.test_pairs(t)
        if [p[0] for p in pairs] != [c for c in seen for _ in range(scenario.test_matrix(t, c).shape[0])]:
            raise CheckFailed(f"task {t}: dump test pairs have the wrong classes or counts")
        new_want = _f32(np.vstack([scenario.test_matrix(t, c) for c in seen]))
        if not np.array_equal(np.vstack([p[2] for p in pairs]), new_want):
            raise CheckFailed(f"task {t}: dump test vectors differ from the scenario's")
        if t > 1:
            old_want = _f32(np.vstack([scenario.test_matrix(t - 1, c) for c in seen]))
            if not np.array_equal(np.vstack([p[1] for p in pairs]), old_want):
                raise CheckFailed(f"task {t}: dump previous-space vectors differ from the scenario's")


def check_toy(source, result) -> None:
    """Predictions replay from the snapshots, and the final accuracy beats
    the stale NCM accuracy: each class's prototype computed under the
    extractor snapshot of its own task, test features under the last one."""
    fresh = toy_fresh_means(source)
    check_predictions(result, fresh)
    for t, rec in enumerate(result.tasks, start=1):   # every task's sample set is checked
        labels = np.array([p[0] for p in source.test_pairs(t)])
        acc = engine_accuracy(rec, labels)
    stale = {c: m for means in fresh for c, m in means.items()}
    ids = sorted(stale)
    features = np.vstack([p[2] for p in source.test_pairs(source.num_tasks)])
    stale_acc = float(np.mean(cosine_ncm(features, ids, np.array([stale[c] for c in ids])) == labels))
    if acc <= stale_acc:
        raise CheckFailed(f"final accuracy {acc:.4f} does not beat the stale accuracy {stale_acc:.4f}")


# Cosine similarities are recomputed in another order than the program's, so
# a logged prediction may trail the best class by rounding error only.
SIMILARITY_TOLERANCE = 1e-9
_CHUNK = 64   # samples whose projectors are applied at once, to bound memory


def check_predictions(result, fresh_means: List[Dict[int, np.ndarray]]) -> None:
    """Every logged prediction is a cosine nearest class mean under the
    projector snapshot it names.

    The prototypes are rebuilt from `fresh_means` (per task, class -> mean of
    its train features) and the snapshots alone: a task's old prototypes are
    the previous task's, carried through that task's last snapshot, next to
    its fresh ones.
    """
    old: Dict[int, np.ndarray] = {}
    for rec, fresh in zip(result.tasks, fresh_means):
        old_ids, fresh_ids = sorted(old), sorted(fresh)
        position = {c: i for i, c in enumerate(old_ids + fresh_ids)}
        fresh_matrix = np.array([fresh[c] for c in fresh_ids])
        old_matrix = np.array([old[c] for c in old_ids]).reshape(len(old_ids), fresh_matrix.shape[1])
        features = np.array(rec.features_new)
        columns = np.array([position.get(s.predicted, -1) for s in rec.samples])
        w_index = np.array([s.w_index for s in rec.samples])
        for lo in range(0, len(rec.samples), _CHUNK):
            rows = np.arange(lo, min(lo + _CHUNK, len(rec.samples)))
            evolved = np.repeat(old_matrix[None], len(rows), axis=0)
            for j, w in enumerate(w_index[rows]):
                if w >= 0:
                    evolved[j] = old_matrix @ rec.projector_snapshots[w]
            fresh_rows = np.repeat(fresh_matrix[None], len(rows), axis=0)
            protos = np.concatenate([evolved, fresh_rows], axis=1)
            protos /= np.linalg.norm(protos, axis=2, keepdims=True)
            f = features[rows] / np.linalg.norm(features[rows], axis=1, keepdims=True)
            sims = np.einsum("scd,sd->sc", protos, f)
            chosen = np.where(columns[rows] >= 0, sims[np.arange(len(rows)), columns[rows]], -np.inf)
            wrong = chosen < sims.max(axis=1) - SIMILARITY_TOLERANCE
            if np.any(wrong):
                bad = rows[np.argmax(wrong)]
                raise CheckFailed(f"task {rec.task}: sample {bad} predicted "
                                  f"{rec.samples[bad].predicted}, not the nearest class mean "
                                  "under its projector")
        if rec.projector_snapshots and old_ids:
            old_matrix = old_matrix @ rec.projector_snapshots[-1]
        old = {c: old_matrix[i] for i, c in enumerate(old_ids)}
        old.update(fresh)


def synthetic_fresh_means(scenario, float32: bool = False) -> List[Dict[int, np.ndarray]]:
    """Per task, the mean train feature of each of its classes, in its own
    space; `float32` rounds the features first, as a feature dump does."""
    def features(t, c):
        m = scenario.train_matrix(t, c)
        return _f32(m) if float32 else m
    return [{c: features(t, c).mean(axis=0) for c in scenario.classes_of_task(t)}
            for t in range(1, scenario.num_tasks + 1)]


def toy_fresh_means(source) -> List[Dict[int, np.ndarray]]:
    """Per task, the mean feature of each class's train inputs under the
    extractor snapshot of that task."""
    out = []
    for t in range(1, source.num_tasks + 1):
        records = source.train_records(t)
        out.append({c: np.mean([r.vector for r in records if r.class_id == c], axis=0)
                    for c in source.classes_of_task(t)})
    return out
