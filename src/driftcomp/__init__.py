"""driftcomp: streaming semantic-drift compensation for class-incremental
feature streams.

Library layers:
  core       prototype tables (class ids and one matrix), class means,
             cosine nearest-class-mean
  queues     one ring of paired [old | new] feature rows with running normal
             equations and pseudo-feature initialization
  projector  the drift projector's one solve: Cholesky on the queues' normal
             equations, updated by the rows that moved; prototype evolution
  toy        desk-scale trainer with distillation / contrastive losses
  drift_sim  synthetic scenarios with ground-truth drift maps
  engine     streaming task-cycle orchestration and metrics
  dump       binary feature-dump format
  cli        command-line entry points
"""

from .config import RunConfig, load_config, parse_config_text, write_config
from .core import PrototypeTable, class_means, ncm_predict
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
from .projector import evolve_prototypes, solve_normal_equations
from .queues import QueuePair, init_with_pseudo_features
from .toy import LossWeights, ToyModel, ce_loss, kd_loss, scl_loss, train_task

__version__ = "0.1.0"
