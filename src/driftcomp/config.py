"""Run configuration: the flat key-value config format and its validation.

Unknown keys are hard errors so ablation typos fail loudly instead of
silently running defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .drift_sim import (
    DRIFT_KINDS,
    DriftSpec,
    SyntheticScenario,
    cold_start_split,
    warm_start_split,
)
from .errors import ConfigError

CONFIG_FORMAT_VERSION = 1


@dataclass
class RunConfig:
    """Everything one engine run needs; mirrors the config file keys 1:1."""

    source: str = "synthetic"            # synthetic | toy | dump
    solver: str = "analytic"             # analytic | gd | gd_with_queue | none
    queue_capacity: int = 3000
    noise_scale: float = 0.02
    update_stride: int = 1
    resolve_stride: int = 1
    ridge: float = 0.0
    min_ridge: float = 1e-8
    singular_policy: str = "fallback"    # strict | fallback
    gd_learning_rate: float = 0.001
    gd_steps: int = 1
    gd_optimizer: str = "adam"           # sgd | adam
    gd_init: str = "identity"
    predict_before_update: bool = False
    seed: int = 0
    output_dir: str = "results"

    # synthetic scenario
    num_tasks: int = 10
    classes_per_task: str = "10"         # single count or comma list
    dimension: int = 32
    cluster_separation: float = 4.0
    train_per_class: int = 50
    test_per_class: int = 20
    drift_kind: str = "general_affine"
    drift_magnitude: float = 0.5
    drift_scale: float = 1.0
    observation_noise: float = 0.0
    test_balance: str = "balanced"       # balanced | unbalanced
    unbalanced_fraction: float = 0.5
    split_style: str = "cold"            # cold | warm

    # toy-trainer scenario
    toy_input_dim: int = 16
    toy_hidden: int = 32
    toy_epochs: int = 20
    toy_base_lr: float = 0.05
    toy_batch_size: int = 16
    toy_lambda1: float = 10.0
    toy_lambda2: float = 0.1
    toy_tau: float = 0.1
    toy_input_separation: float = 5.0

    # dump scenario
    dump_path: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"invalid configuration: {name}={value} is not finite")
        checks = [
            (self.source in ("synthetic", "toy", "dump"), f"source={self.source!r}"),
            (self.solver in ("analytic", "gd", "gd_with_queue", "none"), f"solver={self.solver!r}"),
            (self.queue_capacity > 0, f"queue_capacity={self.queue_capacity}"),
            (self.noise_scale >= 0, f"noise_scale={self.noise_scale}"),
            (self.update_stride >= 1, f"update_stride={self.update_stride}"),
            (self.resolve_stride >= 1, f"resolve_stride={self.resolve_stride}"),
            (self.ridge >= 0, f"ridge={self.ridge}"),
            (self.min_ridge >= 0, f"min_ridge={self.min_ridge}"),
            (self.singular_policy in ("strict", "fallback"), f"singular_policy={self.singular_policy!r}"),
            (self.gd_learning_rate > 0, f"gd_learning_rate={self.gd_learning_rate}"),
            (self.gd_steps >= 0, f"gd_steps={self.gd_steps}"),
            (self.gd_optimizer in ("sgd", "adam"), f"gd_optimizer={self.gd_optimizer!r}"),
            (self.gd_init in ("identity",), f"gd_init={self.gd_init!r}"),
            (self.num_tasks >= 1, f"num_tasks={self.num_tasks}"),
            (self.dimension >= 1, f"dimension={self.dimension}"),
            (self.train_per_class >= 1, f"train_per_class={self.train_per_class}"),
            (self.test_per_class >= 1, f"test_per_class={self.test_per_class}"),
            (self.drift_kind in DRIFT_KINDS, f"drift_kind={self.drift_kind!r}"),
            (self.drift_magnitude >= 0, f"drift_magnitude={self.drift_magnitude}"),
            (self.observation_noise >= 0, f"observation_noise={self.observation_noise}"),
            (self.test_balance in ("balanced", "unbalanced"), f"test_balance={self.test_balance!r}"),
            (0 < self.unbalanced_fraction < 1, f"unbalanced_fraction={self.unbalanced_fraction}"),
            (self.split_style in ("cold", "warm"), f"split_style={self.split_style!r}"),
            (self.toy_input_dim >= 1, f"toy_input_dim={self.toy_input_dim}"),
            (self.toy_hidden >= 1, f"toy_hidden={self.toy_hidden}"),
            (self.toy_epochs >= 0, f"toy_epochs={self.toy_epochs}"),
            (self.toy_base_lr > 0, f"toy_base_lr={self.toy_base_lr}"),
            (self.toy_batch_size >= 1, f"toy_batch_size={self.toy_batch_size}"),
            (self.toy_lambda1 >= 0, f"toy_lambda1={self.toy_lambda1}"),
            (self.toy_lambda2 >= 0, f"toy_lambda2={self.toy_lambda2}"),
            (self.toy_tau > 0, f"toy_tau={self.toy_tau}"),
            (self.source != "dump" or bool(self.dump_path), "dump source requires dump_path"),
        ]
        for ok, detail in checks:
            if not ok:
                raise ConfigError(f"invalid configuration: {detail}")

    def class_counts(self) -> Tuple[int, ...]:
        raw = str(self.classes_per_task)
        try:
            parts = [int(p) for p in raw.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"classes_per_task must be integers, got {raw!r}") from exc
        if not parts:
            raise ConfigError("classes_per_task is empty")
        if len(parts) == 1 and self.num_tasks > 1:
            split = warm_start_split if self.split_style == "warm" else cold_start_split
            try:
                return tuple(split(parts[0] * self.num_tasks, self.num_tasks))
            except ValueError as exc:
                raise ConfigError(f"classes_per_task={raw!r}: {exc}") from None
        if len(parts) != self.num_tasks:
            raise ConfigError(
                f"classes_per_task lists {len(parts)} tasks but num_tasks={self.num_tasks}"
            )
        return tuple(parts)

    def scenario(self, seed: Optional[int] = None) -> SyntheticScenario:
        """The synthetic scenario described by this config."""
        if self.source != "synthetic":
            raise ConfigError(f"scenario() requires source=synthetic, not {self.source!r}")
        spec = DriftSpec(
            kind=self.drift_kind,
            magnitude=self.drift_magnitude,
            scale=self.drift_scale,
            observation_noise=self.observation_noise,
        )
        return SyntheticScenario(
            num_tasks=self.num_tasks,
            classes_per_task=self.class_counts(),
            dimension=self.dimension,
            cluster_separation=self.cluster_separation,
            train_per_class=self.train_per_class,
            test_per_class=self.test_per_class,
            drift_schedule=tuple(spec for _ in range(self.num_tasks - 1)),
            seed=self.seed if seed is None else seed,
        )

    def canonical_items(self):
        for f in dataclasses.fields(self):
            yield f.name, getattr(self, f.name)

    def config_hash(self) -> str:
        text = "\n".join(f"{k}={v!r}" for k, v in sorted(self.canonical_items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_FLOAT_FIELDS = tuple(name for name, kind in _FIELD_TYPES.items() if kind == "float")


def coerce_value(key: str, raw: str):
    """The value of config key `key` parsed from its text."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    target = _FIELD_TYPES[key]
    raw = raw.strip()
    if target == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r} expects a boolean, got {raw!r}")
    if target == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r} expects an integer, got {raw!r}") from exc
    if target == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r} expects a number, got {raw!r}") from exc
    return raw


def parse_config_text(text: str) -> RunConfig:
    """Parse flat `key = value` lines; `#` starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key == "format_version":
            try:
                supported = int(raw) == CONFIG_FORMAT_VERSION
            except ValueError:
                supported = False
            if not supported:
                raise ConfigError(
                    f"line {lineno}: unsupported config format_version {raw.strip()!r}")
            continue
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = coerce_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def write_config(config: RunConfig, path) -> None:
    lines = [f"format_version = {CONFIG_FORMAT_VERSION}"]
    lines += [f"{k} = {v}" for k, v in config.canonical_items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
