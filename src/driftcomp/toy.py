"""Desk-scale trainer: a two-layer tanh feature extractor with a linear
classifier head, trained sequentially with cross-entropy, old-model
distillation, and supervised contrastive terms.

Everything is plain numpy with hand-written backprop; the test suite checks
every loss gradient against central finite differences. The tanh
nonlinearity is deliberate: it keeps finite-difference checks exact away
from kinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import DivergenceError

PARAM_NAMES = ("W1", "b1", "W2", "b2", "Wh")


@dataclass(frozen=True)
class LossWeights:
    """Weights of the composite training loss."""

    lambda1: float = 10.0   # distillation weight
    lambda2: float = 0.1    # contrastive weight
    tau: float = 0.1        # contrastive temperature

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be non-negative")


class ToyModel:
    """Two dense layers (tanh between) producing d-dim features, plus a
    linear head whose column count grows as classes are added."""

    def __init__(self, W1, b1, W2, b2, Wh):
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.W2 = np.asarray(W2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.Wh = np.asarray(Wh, dtype=np.float64)

    @classmethod
    def init(cls, in_dim: int, hidden: int, feature_dim: int, num_classes: int,
             rng: np.random.Generator) -> "ToyModel":
        return cls(
            W1=rng.standard_normal((in_dim, hidden)) / np.sqrt(in_dim),
            b1=np.zeros(hidden),
            W2=rng.standard_normal((hidden, feature_dim)) / np.sqrt(hidden),
            b2=np.zeros(feature_dim),
            Wh=rng.standard_normal((feature_dim, num_classes)) / np.sqrt(feature_dim),
        )

    @property
    def in_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.W2.shape[1]

    @property
    def num_classes(self) -> int:
        return self.Wh.shape[1]

    def copy(self) -> "ToyModel":
        return ToyModel(*(getattr(self, n).copy() for n in PARAM_NAMES))

    def extend_head(self, extra_classes: int, rng: np.random.Generator) -> "ToyModel":
        """New model with `extra_classes` freshly initialized head columns."""
        if extra_classes <= 0:
            raise ValueError(f"extra_classes must be positive, got {extra_classes}")
        new_cols = rng.standard_normal((self.feature_dim, extra_classes)) / np.sqrt(self.feature_dim)
        out = self.copy()
        out.Wh = np.hstack([out.Wh, new_cols])
        return out

    def forward(self, x: np.ndarray):
        """Return (hidden activations, features, logits) for a batch."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h = np.tanh(x @ self.W1 + self.b1)
        z = h @ self.W2 + self.b2
        return h, z, z @ self.Wh

    def features(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[1]

    def params(self) -> Dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in PARAM_NAMES}


def zero_grads(model: ToyModel) -> Dict[str, np.ndarray]:
    return {n: np.zeros_like(getattr(model, n)) for n in PARAM_NAMES}


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _backprop_extractor(model: ToyModel, x: np.ndarray, h: np.ndarray,
                        dz: np.ndarray, grads: Dict[str, np.ndarray]) -> None:
    grads["W2"] += h.T @ dz
    grads["b2"] += dz.sum(axis=0)
    dh = (dz @ model.W2.T) * (1.0 - h * h)
    grads["W1"] += x.T @ dh
    grads["b1"] += dh.sum(axis=0)


def ce_loss(model: ToyModel, x: np.ndarray, labels: np.ndarray
            ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean softmax cross-entropy over the head, with parameter gradients."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError(
            f"labels must lie in [0, {model.num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    n = x.shape[0]
    h, z, logits = model.forward(x)
    probs = _softmax(logits)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = zero_grads(model)
    grads["Wh"] += z.T @ dlogits
    _backprop_extractor(model, x, h, dlogits @ model.Wh.T, grads)
    return loss, grads


def kd_loss(model: ToyModel, old_model: Optional[ToyModel], x: np.ndarray,
            old_class_count: int) -> Tuple[float, Dict[str, np.ndarray]]:
    """Cross-entropy between the old model's class distribution and the
    current model's distribution over the old classes.

    The current distribution is the softmax over the old-class logits only
    (the full softmax renormalized over the old classes). The old model's
    outputs are constants (no gradient flows through them).
    """
    if old_class_count == 0:
        return 0.0, zero_grads(model)
    if old_model is None:
        raise ValueError("old_model required when old_class_count > 0")
    if old_model.num_classes != old_class_count:
        raise ValueError(
            f"old model head width {old_model.num_classes} does not match "
            f"old_class_count {old_class_count}"
        )
    if old_class_count > model.num_classes:
        raise ValueError("old_class_count exceeds current head width")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    q = _softmax(old_model.forward(x)[2])
    h, z, logits = model.forward(x)
    grads = zero_grads(model)
    r = _softmax(logits[:, :old_class_count])
    loss = float(-np.mean(np.sum(q * np.log(r + 1e-300), axis=1)))
    dlogits = np.zeros_like(logits)
    dlogits[:, :old_class_count] = (r - q) / n
    grads["Wh"] += z.T @ dlogits
    _backprop_extractor(model, x, h, dlogits @ model.Wh.T, grads)
    return loss, grads


def scl_loss(model: ToyModel, x: np.ndarray, labels: np.ndarray, tau: float
             ) -> Tuple[float, Dict[str, np.ndarray], int]:
    """Supervised contrastive loss over L2-normalized batch features.

    For each anchor with at least one same-class positive and one
    other-class feature in the batch, sums -log of the softmax of the
    positive similarity against the other-class features, averaged over
    valid anchors. Returns (loss, extractor gradients, valid anchor count);
    a fully degenerate batch yields (0, zeros, 0).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    h, z, _ = model.forward(x)
    znorm = np.linalg.norm(z, axis=1, keepdims=True)
    u = z / znorm
    sim = (u @ u.T) / tau

    total = 0.0
    du = np.zeros_like(u)
    valid = 0
    for i in range(n):
        pos = np.flatnonzero((labels == labels[i]) & (np.arange(n) != i))
        neg = np.flatnonzero(labels != labels[i])
        if pos.size == 0 or neg.size == 0:
            continue
        valid += 1
        row = sim[i, neg]
        m = row.max()
        expd = np.exp(row - m)
        lse = m + np.log(expd.sum())
        w = expd / expd.sum()
        total += float(pos.size * lse - sim[i, pos].sum())
        # d/du_i and d/du_j of sum_p [lse(neg) - sim_ip]
        du[i] += (pos.size * (w @ u[neg]) - u[pos].sum(axis=0)) / tau
        du[pos] += -u[i] / tau
        du[neg] += (pos.size / tau) * w[:, None] * u[i]
    grads = zero_grads(model)
    if valid == 0:
        return 0.0, grads, 0
    loss = total / valid
    du /= valid
    dz = (du - (np.sum(du * u, axis=1, keepdims=True)) * u) / znorm
    _backprop_extractor(model, x, h, dz, grads)
    return loss, grads, valid


def composite_loss(model: ToyModel, old_model: Optional[ToyModel],
                   x: np.ndarray, labels: np.ndarray, weights: LossWeights
                   ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Cross-entropy + lambda1 * distillation + lambda2 * contrastive.

    The distillation term is dropped when there is no old model."""
    loss, grads = ce_loss(model, x, labels)
    if old_model is not None and weights.lambda1 > 0:
        kd, kd_grads = kd_loss(model, old_model, x, old_model.num_classes)
        loss += weights.lambda1 * kd
        for name in PARAM_NAMES:
            grads[name] += weights.lambda1 * kd_grads[name]
    if weights.lambda2 > 0:
        scl, scl_grads, _ = scl_loss(model, x, labels, weights.tau)
        loss += weights.lambda2 * scl
        for name in PARAM_NAMES:
            grads[name] += weights.lambda2 * scl_grads[name]
    return loss, grads


def train_task(model: ToyModel, old_model: Optional[ToyModel], x: np.ndarray,
               labels: np.ndarray, weights: LossWeights, epochs: int = 20,
               base_lr: float = 0.05, *, batch_size: int = 16, seed: int = 0) -> ToyModel:
    """Train a copy of `model` with minibatch SGD on one task's inputs `x`
    (n, in_dim) and their integer class ids `labels`.

    The input model is left untouched (it is the previous-space snapshot).
    The base learning rate is scaled by |new classes| / |old classes| from
    the second task on, where the new classes are the distinct labels, so
    later small tasks take proportionally smaller steps.
    """
    if labels.max() >= model.num_classes:
        raise ValueError(
            f"head width {model.num_classes} too small for class {labels.max()}; "
            "extend the head before training"
        )
    lr = base_lr
    if old_model is not None:
        old = old_model.num_classes
        lr = base_lr * np.unique(labels).size / old
    trained = model.copy()
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads = composite_loss(trained, old_model, x[idx], labels[idx], weights)
            if not np.isfinite(loss):
                raise DivergenceError(step)
            for name in PARAM_NAMES:
                param = getattr(trained, name)
                param -= lr * grads[name]
            step += 1
    return trained
