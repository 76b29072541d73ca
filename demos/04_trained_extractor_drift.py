"""Drift from actual sequential training, not a synthetic map.

Trains the small tanh feature extractor on two tasks in a row (with
distillation and contrastive terms) and measures how much the first task's
class prototypes move between the two snapshots, then lets the engine
compensate that genuine drift.
"""

import numpy as np

from driftcomp import RunConfig, class_means, run_engine
from driftcomp.sources import ToySource

config = RunConfig(
    source="toy", num_tasks=3, classes_per_task="3", dimension=12,
    train_per_class=30, test_per_class=10,
    toy_input_dim=16, toy_hidden=24, toy_epochs=12, toy_base_lr=0.05,
    toy_lambda1=10.0, toy_lambda2=0.1, toy_tau=0.1,
    queue_capacity=80, seed=1,
)

print("training 3 sequential tasks of 3 classes each...")
source = ToySource(config)

f1, f2 = source.model(1), source.model(2)
for c in source.classes_of_task(1):
    x = source._train_x[c]
    p_old = class_means({c: f1.features(x)}).prototype(c)
    p_new = class_means({c: f2.features(x)}).prototype(c)
    shift = np.linalg.norm(p_new - p_old)
    print(f"  class {c}: prototype moved {shift:.3f} between extractor snapshots")

print()
for solver in ("none", "analytic"):
    result = run_engine(source, config.replace(solver=solver))
    accs = " ".join(f"{a:.3f}" for a in result.per_task_accuracy)
    print(f"{solver:>9}: per-stage [{accs}]  final {result.last_accuracy:.4f}")
print()
print("here the drift is whatever retraining produced; the linear projector")
print("is an approximation, so compensation helps but is not exact")
