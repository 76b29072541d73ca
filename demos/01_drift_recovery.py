"""Recovering a hidden feature-space drift from paired features.

Generates a two-stage scenario whose boundary applies a known linear map,
fits the closed-form projector on paired old/new features, and shows that
the estimated map and the per-class prototype drift directions match the
ground truth almost exactly.
"""

import numpy as np

from driftcomp import (
    DriftSpec,
    PrototypeTable,
    QueuePair,
    SyntheticScenario,
    class_means,
    evolve_prototypes,
    generate_scenario,
    solve_normal_equations,
    true_drift_similarity,
)

spec = SyntheticScenario(
    num_tasks=2,
    classes_per_task=(5, 5),
    dimension=16,
    train_per_class=40,
    test_per_class=10,
    drift_schedule=(DriftSpec(kind="general_affine", magnitude=0.6),),
    seed=7,
)
scenario = generate_scenario(spec)
dmap = scenario.drift_map(2)

q_old = np.vstack([scenario.train_matrix(1, c) for c in range(10)])
q_new = np.vstack([scenario.train_matrix(2, c) for c in range(10)])
pair = QueuePair(spec.dimension, q_old.shape[0])
pair.push(q_old, q_new)

weights, gram_condition, _ = solve_normal_equations(pair.gram, pair.cross)
rel = np.linalg.norm(weights - dmap.projector_target) / np.linalg.norm(dmap.projector_target)
residual = np.sum((q_old @ weights - q_new) ** 2) / q_old.shape[0]
print(f"fitted {q_old.shape[0]} paired features in d={spec.dimension}")
print(f"relative error vs true map: {rel:.2e}")
print(f"fit residual: {residual:.2e}  gram condition: {gram_condition:.1f}")

old_table = class_means({c: scenario.train_matrix(1, c) for c in scenario.classes_of_task(1)}, 1)
evolved = evolve_prototypes(old_table, weights, old_table.class_ids)
reference = PrototypeTable(
    {c: (dmap.apply(old_table.prototype(c)), 2) for c in old_table.class_ids}
)
sims = true_drift_similarity(evolved, reference, old_table)
print("per-class drift cosine vs ground truth:")
for c, s in sims.items():
    print(f"  class {c}: {s:.6f}")
