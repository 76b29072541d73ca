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


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _backprop(model: ToyModel, x: np.ndarray, forward, dlogits: Optional[np.ndarray] = None,
              dz: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
    """The parameter gradients of a loss whose derivatives with respect to
    the logits and the features of `forward`, the model's (h, z, logits) for
    `x`, are `dlogits` and `dz`; None stands for zero."""
    if dlogits is not None:
        dz = dlogits @ model.Wh.T if dz is None else dlogits @ model.Wh.T + dz
    if dz is None:
        return {n: np.zeros_like(getattr(model, n)) for n in PARAM_NAMES}
    h, z, _ = forward
    dh = (dz @ model.W2.T) * (1.0 - h * h)
    return {"W1": x.T @ dh, "b1": dh.sum(axis=0), "W2": h.T @ dz, "b2": dz.sum(axis=0),
            "Wh": np.zeros_like(model.Wh) if dlogits is None else z.T @ dlogits}


def _as_batch(x: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def ce_loss(model: ToyModel, x: np.ndarray, labels: np.ndarray
            ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean softmax cross-entropy over the head, with parameter gradients."""
    x = _as_batch(x)
    forward = model.forward(x)
    loss, dlogits = _ce_loss(np.asarray(labels, dtype=np.int64), forward[2])
    return loss, _backprop(model, x, forward, dlogits)


def _ce_loss(labels: np.ndarray, logits: np.ndarray) -> Tuple[float, np.ndarray]:
    """`ce_loss` and its derivative with respect to `logits`."""
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError(f"labels must lie in [0, {logits.shape[1]}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    n = logits.shape[0]
    probs = _softmax(logits)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    return loss, probs


def kd_loss(model: ToyModel, old_model: Optional[ToyModel], x: np.ndarray,
            old_class_count: int) -> Tuple[float, Dict[str, np.ndarray]]:
    """Cross-entropy between the old model's class distribution and the
    current model's distribution over the old classes.

    The current distribution is the softmax over the old-class logits only
    (the full softmax renormalized over the old classes). The old model's
    outputs are constants (no gradient flows through them).
    """
    if old_class_count == 0:
        return 0.0, _backprop(model, x, None)
    x = _as_batch(x)
    forward = model.forward(x)
    loss, dlogits = _kd_loss(old_model, x, old_class_count, forward[2])
    return loss, _backprop(model, x, forward, dlogits)


def _kd_loss(old_model: Optional[ToyModel], x: np.ndarray, old_class_count: int,
             logits: np.ndarray) -> Tuple[float, np.ndarray]:
    """`kd_loss` for a positive `old_class_count` and its derivative with
    respect to `logits`, the current model's logits for `x`."""
    if old_model is None:
        raise ValueError("old_model required when old_class_count > 0")
    if old_model.num_classes != old_class_count:
        raise ValueError(f"old model head width {old_model.num_classes} does not match "
                         f"old_class_count {old_class_count}")
    if old_class_count > logits.shape[1]:
        raise ValueError("old_class_count exceeds current head width")
    n = x.shape[0]
    q = _softmax(old_model.forward(x)[2])
    r = _softmax(logits[:, :old_class_count])
    loss = float(-np.mean(np.sum(q * np.log(r + 1e-300), axis=1)))
    dlogits = np.zeros_like(logits)
    dlogits[:, :old_class_count] = (r - q) / n
    return loss, dlogits


# scl_loss builds its anchor-by-row table of gradient additions in chunks of
# anchors holding at most this many floats (8 MiB), so a large batch does
# not need n * n * d floats at once.
_DU_TABLE_FLOATS = 1 << 20


def _others(group: np.ndarray) -> np.ndarray:
    """(g, g - 1) array whose row k is `group` without its k-th entry."""
    g = group.size
    col = np.arange(g - 1)
    return group[col + (col >= np.arange(g)[:, None])]


def scl_loss(model: ToyModel, x: np.ndarray, labels: np.ndarray, tau: float
             ) -> Tuple[float, Dict[str, np.ndarray], int]:
    """Supervised contrastive loss over L2-normalized batch features.

    For each anchor with at least one same-class positive and one
    other-class feature in the batch, sums -log of the softmax of the
    positive similarity against the other-class features, averaged over
    valid anchors. Returns (loss, extractor gradients, valid anchor count);
    a fully degenerate batch yields (0, zeros, 0).

    The anchors of one label share their negatives, so the work runs once
    per label present in the batch. The result is bit for bit that of a
    loop over anchors: each row sum reduces a C-ordered row, each weighted
    negative sum is one matrix-vector product, and the loss terms and every
    feature gradient's additions are summed in anchor order.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x = _as_batch(x)
    forward = model.forward(x)
    loss, dz, valid = _scl_loss(forward[1], np.asarray(labels, dtype=np.int64), tau)
    return loss, _backprop(model, x, forward, dz=dz), valid


def _scl_loss(z: np.ndarray, labels: np.ndarray, tau: float
              ) -> Tuple[float, Optional[np.ndarray], int]:
    """`scl_loss` of the features `z`, its derivative with respect to `z`
    (None for no valid anchor) and the valid anchor count."""
    n, d = z.shape
    znorm = np.linalg.norm(z, axis=1, keepdims=True)
    u = z / znorm
    sim = (u @ u.T) / tau

    terms = np.zeros(n)            # each anchor's loss term
    own = np.zeros_like(u)         # each anchor's addition to its own du row
    coef = np.zeros((n, n))        # anchor j adds coef[j, k] * u[j] to du[k], k negative
    anchors = np.zeros(n, dtype=bool)
    for label in np.unique(labels):
        in_group = labels == label
        group = np.flatnonzero(in_group)
        neg = np.flatnonzero(~in_group)
        p = group.size - 1
        if p == 0 or neg.size == 0:
            continue
        pos = _others(group)
        rows = group[:, None]
        # indexing both axes by arrays keeps the block C-ordered, so each
        # row's sum is the pairwise sum a single row gets
        block = sim[rows, neg]
        m = block.max(axis=1, keepdims=True)
        expd = np.exp(block - m)
        denom = expd.sum(axis=1, keepdims=True)
        w = expd / denom
        terms[group] = p * (m + np.log(denom))[:, 0] - sim[rows, pos].sum(axis=1)
        # a stack of (1, n_neg) @ (n_neg, d) products runs one gemv per
        # anchor; a single 2-D product would be a gemm that rounds otherwise
        own[group] = (p * (w[:, None, :] @ u[neg])[:, 0] - u[pos].sum(axis=1)) / tau
        coef[rows, neg] = (p / tau) * w
        anchors[group] = True
    valid = int(np.count_nonzero(anchors))
    if valid == 0:
        return 0.0, None, 0
    total = 0.0
    for term in terms[anchors].tolist():
        total += term

    # table[j, k] is anchor j's addition to du[k]: its own term on k = j,
    # -u[j] / tau on its positives, coef[j, k] * u[j] on its negatives, and
    # a zero for an anchor that is not valid. Reducing over j adds them in
    # anchor order.
    positive = (labels[:, None] == labels) & anchors[:, None]
    np.fill_diagonal(positive, False)
    neg_u = -u / tau
    du = np.zeros((1, n, d))
    step = max(1, _DU_TABLE_FLOATS // (n * d))
    for start in range(0, n, step):
        chunk = np.arange(start, min(start + step, n))
        table = coef[chunk, :, None] * u[chunk, None, :]
        table = np.where(positive[chunk, :, None], neg_u[chunk, None, :], table)
        table[np.arange(chunk.size), chunk] = own[chunk]
        du = np.add.reduce(np.concatenate([du, table]), axis=0, keepdims=True)
    loss = total / valid
    du = du[0] / valid
    dz = (du - (np.sum(du * u, axis=1, keepdims=True)) * u) / znorm
    return loss, dz, valid


def composite_loss(model: ToyModel, old_model: Optional[ToyModel],
                   x: np.ndarray, labels: np.ndarray, weights: LossWeights
                   ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Cross-entropy + lambda1 * distillation + lambda2 * contrastive.

    The current model's forward pass runs once and serves all three terms,
    whose weighted derivatives are summed before one backward pass. The
    distillation term is dropped when there is no old model."""
    x = _as_batch(x)
    labels = np.asarray(labels, dtype=np.int64)
    forward = model.forward(x)
    loss, dlogits = _ce_loss(labels, forward[2])
    dz = None
    if old_model is not None and weights.lambda1 > 0:
        kd, dkd = _kd_loss(old_model, x, old_model.num_classes, forward[2])
        loss += weights.lambda1 * kd
        dlogits += weights.lambda1 * dkd
    if weights.lambda2 > 0:
        scl, dscl, valid = _scl_loss(forward[1], labels, weights.tau)
        loss += weights.lambda2 * scl
        if valid:
            dz = weights.lambda2 * dscl
    return loss, _backprop(model, x, forward, dlogits, dz)


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
