"""driftcomp: streaming semantic-drift compensation for class-incremental
feature streams.

Library layers:
  core       feature records, prototypes, cosine nearest-class-mean
  queues     paired bounded FIFO queues with pseudo-feature initialization
  projector  closed-form least-squares drift projector + GD comparison
  toy        desk-scale trainer with distillation / contrastive losses
  drift_sim  synthetic scenarios with ground-truth drift maps
  engine     streaming task-cycle orchestration and metrics
  dump       binary feature-dump format
  cli        command-line entry points
"""

from .config import RunConfig, load_config, parse_config_text, write_config
from .core import (
    FeatureRecord,
    PrototypeTable,
    TaskDataset,
    compute_prototypes,
    cosine_similarity,
    ncm_predict,
    ncm_predict_batch,
)
from .drift_sim import (
    DriftSpec,
    GeneratedScenario,
    SyntheticScenario,
    generate_scenario,
    true_drift_similarity,
)
from .engine import RunResult, replay_audit, run_engine, run_gd_oracle, run_task_cycle
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    DriftCompError,
    DumpFormatError,
    SingularGramError,
)
from .projector import (
    Projector,
    SolveReport,
    evolve_prototypes,
    solve_analytic,
    solve_gradient_descent,
)
from .queues import FeatureQueue, QueuePair, init_with_pseudo_features
from .toy import LossWeights, ToyModel, ce_loss, kd_loss, scl_loss, train_task

__version__ = "0.1.0"
