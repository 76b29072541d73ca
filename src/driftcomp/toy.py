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


def _check_labels(labels: np.ndarray, head_width: int) -> None:
    if labels.min() < 0 or labels.max() >= head_width:
        raise ValueError(f"labels must lie in [0, {head_width}), got [{labels.min()}, {labels.max()}]")


def _check_old_model(old_model: Optional[ToyModel], old_class_count: int, head_width: int) -> None:
    if old_model is None:
        raise ValueError("old_model required when old_class_count > 0")
    if old_model.num_classes != old_class_count:
        raise ValueError(f"old model head width {old_model.num_classes} != old_class_count {old_class_count}")
    if old_class_count > head_width:
        raise ValueError(f"old_class_count {old_class_count} exceeds current head width {head_width}")


def _step(model: ToyModel, x: np.ndarray, labels: Optional[np.ndarray], q: Optional[np.ndarray],
          weights: LossWeights, ce: bool = True) -> Tuple[float, Dict[str, np.ndarray], int]:
    """Unchecked (loss, gradients, valid contrastive anchors) of cross-entropy
    if `ce`, lambda1 * distillation towards the old class distribution `q` if
    given, and lambda2 * contrastive: one forward and one backward pass."""
    forward = model.forward(x)
    loss, dlogits = _ce_loss(labels, forward[2]) if ce else (0.0, None)
    dz, valid = None, 0
    if q is not None:
        kd, dkd = _kd_loss(q, forward[2])
        loss += weights.lambda1 * kd
        dlogits = weights.lambda1 * dkd if dlogits is None else dlogits + weights.lambda1 * dkd
    if weights.lambda2 > 0:
        scl, dscl, valid = _scl_loss(forward[1], labels, weights.tau)
        loss += weights.lambda2 * scl
        if valid:
            dz = weights.lambda2 * dscl
    return loss, _backprop(model, x, forward, dlogits, dz), valid


def ce_loss(model: ToyModel, x: np.ndarray, labels: np.ndarray
            ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean softmax cross-entropy over the head, with parameter gradients."""
    return composite_loss(model, None, x, labels, LossWeights(0.0, 0.0))


def _ce_loss(labels: np.ndarray, logits: np.ndarray) -> Tuple[float, np.ndarray]:
    """`ce_loss` and its derivative with respect to `logits`."""
    n = logits.shape[0]
    probs = _softmax(logits)
    loss = float(-(np.log(probs[np.arange(n), labels] + 1e-300).sum() / n))
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
    _check_old_model(old_model, old_class_count, model.num_classes)
    q = _softmax(old_model.forward(x)[2])
    return _step(model, x, None, q, LossWeights(1.0, 0.0), ce=False)[:2]


def _kd_loss(q: np.ndarray, logits: np.ndarray) -> Tuple[float, np.ndarray]:
    """`kd_loss` towards the old model's class distribution `q` and its
    derivative with respect to `logits`, the current model's logits."""
    n, old_class_count = q.shape
    r = _softmax(logits[:, :old_class_count])
    loss = float(-(np.sum(q * np.log(r + 1e-300), axis=1).sum() / n))
    dlogits = np.zeros_like(logits)
    dlogits[:, :old_class_count] = (r - q) / n
    return loss, dlogits


# scl_loss builds its anchor-by-row table of gradient additions in chunks of
# anchors holding at most this many floats (8 MiB), so a large batch does
# not need n * n * d floats at once.
_DU_TABLE_FLOATS = 1 << 20


def scl_loss(model: ToyModel, x: np.ndarray, labels: np.ndarray, tau: float
             ) -> Tuple[float, Dict[str, np.ndarray], int]:
    """Supervised contrastive loss over L2-normalized batch features.

    For each anchor with at least one same-class positive and one
    other-class feature in the batch, sums -log of the softmax of the
    positive similarity against the other-class features, averaged over
    valid anchors. Returns (loss, extractor gradients, valid anchor count);
    a fully degenerate batch yields (0, zeros, 0).

    The result is bit for bit that of a loop over anchors. Elementwise work
    and maxima run once over the batch; per label, each anchor's negative
    exponentials, positive similarities and features are summed as rows of
    one C-ordered block, and its weighted negative sum is one gemv. Every
    feature gradient's additions are summed in anchor order.
    """
    return _step(model, _as_batch(x), np.asarray(labels, dtype=np.int64), None,
                 LossWeights(0.0, 1.0, tau), ce=False)


def _scl_loss(z: np.ndarray, labels: np.ndarray, tau: float
              ) -> Tuple[float, Optional[np.ndarray], int]:
    """`scl_loss` of the features `z`, its derivative with respect to `z`
    (None for no valid anchor) and the valid anchor count."""
    n, d = z.shape
    groups: Dict[int, list] = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    # the labels of valid anchors, which have a positive and a negative
    groups = [g for g in groups.values() if len(g) > 1] if len(groups) > 1 else []
    if not groups:
        return 0.0, None, 0
    anchors = np.array([i for g in groups for i in g])
    k = anchors.size
    znorm = np.sqrt((z * z).sum(axis=1, keepdims=True))  # np.linalg.norm's arithmetic
    u = z / znorm
    sim = (u @ u.T) / tau
    positive = labels[:, None] == labels
    masked = np.where(positive, -np.inf, sim)
    m = masked.max(axis=1, keepdims=True)
    expd = np.exp(masked - m)
    neg_rows, neg = np.nonzero(~positive[anchors])
    positive.flat[::n + 1] = False  # off the diagonal
    pos_rows, pos = np.nonzero(positive[anchors])
    p = positive.sum(axis=1)  # each anchor's positive count
    # Each valid anchor's negatives and positives, anchor after anchor: a label's
    # anchors make C-ordered blocks, whose row sums are each the pairwise sum of a
    # lone row, and a stack of (1, kn) @ (kn, d) products is one gemv per anchor.
    neg_rows = anchors[neg_rows]
    neg_expd, pos_sim = expd[neg_rows, neg], sim[anchors[pos_rows], pos]
    denom, pos_sim_sum, neg_w = np.empty(k), np.empty(k), np.empty_like(neg_expd)
    pos_u_sum, wu = np.empty((k, d)), np.empty((k, d))
    a = b = c = 0
    for g in map(len, groups):
        rows, kn, kp = slice(a, a + g), n - g, g - 1
        np.add.reduce(neg_expd[b:b + g * kn].reshape(g, kn), axis=1, out=denom[rows])
        np.add.reduce(pos_sim[c:c + g * kp].reshape(g, kp), axis=1, out=pos_sim_sum[rows])
        step = max(1, _DU_TABLE_FLOATS // (kp * d))  # (anchors, kp, d) gathers in chunks
        for s in range(0, g, step):
            np.add.reduce(u[pos[c + s * kp:c + min(s + step, g) * kp]].reshape(-1, kp, d),
                          axis=1, out=pos_u_sum[a + s:a + min(s + step, g)])
        w = np.divide(neg_expd[b:b + g * kn].reshape(g, 1, kn), denom[rows, None, None],
                      out=neg_w[b:b + g * kn].reshape(g, 1, kn))
        np.matmul(w, u[neg[b:b + kn]], out=wu[rows, None, :])
        a, b, c = a + g, b + g * kn, c + g * kp
    coef = np.zeros((n, n))  # anchor j adds coef[j, k] * u[j] to du[k], k negative
    coef[neg_rows, neg] = (p[neg_rows] / tau) * neg_w
    terms = p[anchors] * (m[anchors, 0] + np.log(denom)) - pos_sim_sum
    own = np.zeros_like(u)  # each anchor's addition to its own du row
    own[anchors] = (p[anchors, None] * wu - pos_u_sum) / tau
    total = 0.0
    for term in terms[np.argsort(anchors)].tolist():
        total += term

    # table[j, k] is anchor j's addition to du[k]: its own term on k = j, -u[j] / tau
    # on its positives, coef[j, k] * u[j] on its negatives, zero if j is not valid.
    # Reducing over j, after the sum of the chunks before, adds them in anchor order.
    neg_u = -u / tau
    diagonal = np.eye(n, dtype=bool)
    du = np.zeros((n, d))
    step = max(1, _DU_TABLE_FLOATS // (n * d))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        table = coef[rows, :, None] * u[rows, None, :]
        np.copyto(table, neg_u[rows, None, :], where=positive[rows, :, None])
        np.copyto(table, own[rows, None, :], where=diagonal[rows, :, None])
        table[0] += du
        du = np.add.reduce(table, axis=0)
        del table  # so that the next chunk is not made while this one is held
    du = du / k
    dz = (du - (du * u).sum(axis=1, keepdims=True) * u) / znorm
    return total / k, dz, k


def composite_loss(model: ToyModel, old_model: Optional[ToyModel],
                   x: np.ndarray, labels: np.ndarray, weights: LossWeights
                   ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Cross-entropy + lambda1 * distillation + lambda2 * contrastive.

    The current model's forward pass runs once and serves all three terms,
    whose weighted derivatives are summed before one backward pass. The
    distillation term is dropped when there is no old model."""
    x = _as_batch(x)
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(labels, model.num_classes)
    q = None
    if old_model is not None and weights.lambda1 > 0:
        _check_old_model(old_model, old_model.num_classes, model.num_classes)
        q = _softmax(old_model.forward(x)[2])
    return _step(model, x, labels, q, weights)[:2]


def train_task(model: ToyModel, old_model: Optional[ToyModel], x: np.ndarray,
               labels: np.ndarray, weights: LossWeights, epochs: int = 20,
               base_lr: float = 0.05, *, batch_size: int = 16, seed: int = 0) -> ToyModel:
    """Train a copy of `model` with minibatch SGD on one task's inputs `x`
    (n, in_dim) and their integer class ids `labels`.

    The input model is left untouched (it is the previous-space snapshot).
    The base learning rate is scaled by |new classes| / |old classes| from
    the second task on, where the new classes are the distinct labels, so
    later small tasks take proportionally smaller steps. The arguments are
    checked once, and the old model's class distribution that each step
    distills towards is computed once for the whole task.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if batch_size < 1 or epochs < 0:
        raise ValueError(f"batch_size must be positive and epochs non-negative, got "
                         f"batch_size={batch_size}, epochs={epochs}")
    _check_labels(labels, model.num_classes)
    lr, targets = base_lr, None
    if old_model is not None:
        _check_old_model(old_model, old_model.num_classes, model.num_classes)
        lr = base_lr * np.unique(labels).size / old_model.num_classes
        if weights.lambda1 > 0:
            targets = _softmax(old_model.forward(x)[2])
    trained = model.copy()
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            q = targets
            if targets is not None:
                # numpy maps one row by gemv, which rounds otherwise than a gemm row
                q = targets[idx] if idx.size > 1 else _softmax(old_model.forward(x[idx])[2])
            loss, grads, _ = _step(trained, x[idx], labels[idx], q, weights)
            if not np.isfinite(loss):
                raise DivergenceError(step)
            for name in PARAM_NAMES:
                param = getattr(trained, name)
                param -= lr * grads[name]
            step += 1
    return trained
