import tracemalloc

import numpy as np
import pytest

from driftcomp import toy
from driftcomp.toy import (
    PARAM_NAMES,
    LossWeights,
    ToyModel,
    _backprop,
    ce_loss,
    composite_loss,
    kd_loss,
    scl_loss,
    train_task,
)


def finite_difference_grads(loss_fn, model, step=1e-5):
    """Test-only oracle: central finite differences over every parameter."""
    grads = {}
    for name in PARAM_NAMES:
        param = getattr(model, name)
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            up = loss_fn(model)
            param[idx] = orig - step
            down = loss_fn(model)
            param[idx] = orig
            grad[idx] = (up - down) / (2 * step)
        grads[name] = grad
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-6):
    for name in PARAM_NAMES:
        scale = max(np.abs(numeric[name]).max(), np.abs(analytic[name]).max(), 1e-8)
        np.testing.assert_allclose(analytic[name], numeric[name], atol=rtol * scale,
                                   err_msg=f"gradient mismatch in {name}")


def small_model(rng, in_dim=10, hidden=6, d=4, classes=3):
    return ToyModel.init(in_dim, hidden, d, classes, rng)


def blob_task(rng, classes, per_class, in_dim, separation=6.0, class_offset=0):
    """Inputs and class ids of `classes` Gaussian blobs, class by class."""
    means = separation * rng.standard_normal((classes, in_dim))
    x = np.vstack([means[c] + rng.standard_normal((per_class, in_dim)) for c in range(classes)])
    return x, np.repeat(np.arange(class_offset, class_offset + classes), per_class)


class TestCeLoss:
    def test_uniform_logits_give_log_k(self):
        rng = np.random.default_rng(0)
        model = small_model(rng)
        model.Wh = np.zeros_like(model.Wh)  # all logits equal -> uniform softmax
        model.b2 = np.zeros_like(model.b2)
        x = rng.standard_normal((5, 10))
        loss, _ = ce_loss(model, x, np.array([0, 1, 2, 0, 1]))
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    def test_scaling_head_toward_confidence_shrinks_loss(self):
        rng = np.random.default_rng(1)
        model = small_model(rng, classes=2)
        x = rng.standard_normal((40, 10))
        _, z, _ = model.forward(x)
        y = (z @ model.Wh).argmax(axis=1)  # labels the model already prefers
        losses = []
        for scale in (1.0, 4.0, 16.0):
            scaled = model.copy()
            scaled.Wh = scale * model.Wh
            losses.append(ce_loss(scaled, x, y)[0])
        assert losses[0] > losses[1] > losses[2]

    def test_label_out_of_range(self):
        rng = np.random.default_rng(2)
        model = small_model(rng, classes=3)
        with pytest.raises(ValueError):
            ce_loss(model, rng.standard_normal((2, 10)), np.array([0, 3]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        model = small_model(rng)
        x = rng.standard_normal((8, 10))
        y = rng.integers(0, 3, size=8)
        _, grads = ce_loss(model, x, y)
        numeric = finite_difference_grads(lambda m: ce_loss(m, x, y)[0], model)
        assert_grads_close(grads, numeric)


class TestKdLoss:
    def test_zero_old_classes(self):
        rng = np.random.default_rng(4)
        model = small_model(rng)
        loss, grads = kd_loss(model, None, rng.standard_normal((3, 10)), 0)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads.values())

    def test_matched_distributions_zero_gradient(self):
        # old model == current restricted head: loss = entropy, gradient 0
        rng = np.random.default_rng(5)
        model = small_model(rng, classes=3)
        old_model = model.copy()
        x = rng.standard_normal((6, 10))
        loss, grads = kd_loss(model, old_model, x, 3)
        from driftcomp.toy import _softmax
        q = _softmax(old_model.forward(x)[2])
        entropy = float(-np.mean(np.sum(q * np.log(q), axis=1)))
        assert loss == pytest.approx(entropy, rel=1e-10)
        for name in PARAM_NAMES:
            np.testing.assert_allclose(grads[name], 0.0, atol=1e-12)

    def test_head_width_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        model = small_model(rng, classes=4)
        old_model = small_model(rng, classes=3)
        with pytest.raises(ValueError):
            kd_loss(model, old_model, rng.standard_normal((2, 10)), 2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        model = small_model(rng, classes=5)
        old_model = small_model(rng, classes=3)
        x = rng.standard_normal((8, 10))
        _, grads = kd_loss(model, old_model, x, 3)
        numeric = finite_difference_grads(lambda m: kd_loss(m, old_model, x, 3)[0], model)
        assert_grads_close(grads, numeric)


class TestSclLoss:
    def test_anchor_without_positive_contributes_zero(self):
        rng = np.random.default_rng(8)
        model = small_model(rng)
        x = rng.standard_normal((3, 10))
        # all labels distinct: no positives anywhere
        loss, grads, valid = scl_loss(model, x, np.array([0, 1, 2]), tau=1.0)
        assert loss == 0.0 and valid == 0
        assert all(np.all(g == 0) for g in grads.values())

    def test_all_same_labels_degenerate(self):
        rng = np.random.default_rng(9)
        model = small_model(rng)
        loss, _, valid = scl_loss(model, rng.standard_normal((4, 10)),
                                  np.zeros(4, dtype=int), tau=1.0)
        assert loss == 0.0 and valid == 0

    def test_hand_computed_configuration(self):
        # two classes, already-normalized antipodal embeddings, tau = 1:
        # compare against a direct scalar evaluation of the loss formula
        rng = np.random.default_rng(10)
        model = small_model(rng, d=4)
        x = rng.standard_normal((4, 10))
        labels = np.array([0, 0, 1, 1])
        loss, _, valid = scl_loss(model, x, labels, tau=1.0)
        z = model.features(x)
        u = z / np.linalg.norm(z, axis=1, keepdims=True)
        expected = 0.0
        for i in range(4):
            pos = [j for j in range(4) if labels[j] == labels[i] and j != i]
            neg = [j for j in range(4) if labels[j] != labels[i]]
            for p in pos:
                num = np.exp(u[i] @ u[p])
                den = sum(np.exp(u[i] @ u[k]) for k in neg)
                expected += -np.log(num / den)
        expected /= 4
        assert valid == 4
        assert loss == pytest.approx(expected, rel=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        model = small_model(rng)
        x = rng.standard_normal((12, 10))
        labels = rng.integers(0, 3, size=12)
        _, grads, _ = scl_loss(model, x, labels, tau=0.5)
        numeric = finite_difference_grads(lambda m: scl_loss(m, x, labels, tau=0.5)[0], model)
        assert_grads_close(grads, numeric, rtol=1e-5)

    def test_batch_permutation_invariant(self):
        rng = np.random.default_rng(12)
        model = small_model(rng)
        x = rng.standard_normal((10, 10))
        labels = rng.integers(0, 3, size=10)
        loss_a, _, _ = scl_loss(model, x, labels, tau=0.5)
        perm = rng.permutation(10)
        loss_b, _, _ = scl_loss(model, x[perm], labels[perm], tau=0.5)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)


def loop_scl_loss(model, x, labels, tau):
    """Reference: scl_loss as a loop over anchors, each anchor's positives
    and negatives gathered and its gradient additions made one by one."""
    n = x.shape[0]
    forward = model.forward(x)
    z = forward[1]
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
        du[i] += (pos.size * (w @ u[neg]) - u[pos].sum(axis=0)) / tau
        du[pos] += -u[i] / tau
        du[neg] += (pos.size / tau) * w[:, None] * u[i]
    if valid == 0:
        return 0.0, _backprop(model, x, forward), 0
    du /= valid
    dz = (du - (np.sum(du * u, axis=1, keepdims=True)) * u) / znorm
    return total / valid, _backprop(model, x, forward, dz=dz), valid


def random_scl_batch(rng):
    """A model and batch drawn over batch size, label pattern, feature
    dimension, temperature and the scale of inputs and features."""
    n = int(rng.integers(1, 40))
    pattern = rng.integers(4)
    if pattern == 0:
        labels = np.zeros(n, dtype=np.int64)              # one label
    elif pattern == 1:
        labels = rng.permutation(n)                       # all labels distinct
    else:                                                 # 1-6 labels, singletons likely
        labels = rng.integers(0, int(rng.integers(1, 7)), size=n)
    d = int(rng.choice([1, 2, 3, 16, 33]))
    model = ToyModel.init(5, 7, d, 2, rng)
    feature_scale = float(rng.choice([1e-3, 1.0, 1e3]))
    model.W2 *= feature_scale
    model.b2 = feature_scale * rng.standard_normal(d)
    x = float(rng.choice([0.1, 1.0, 10.0])) * rng.standard_normal((n, 5))
    tau = float(rng.choice([0.05, 0.1, 0.5, 1.0, 3.0]))
    return model, x, labels, tau


def scl_case(rng, labels, d):
    """A model and batch with the given labels, scales and temperature drawn
    as in random_scl_batch."""
    labels = np.asarray(labels, dtype=np.int64)
    model = ToyModel.init(5, 7, d, 2, rng)
    feature_scale = float(rng.choice([1e-3, 1.0, 1e3]))
    model.W2 *= feature_scale
    model.b2 = feature_scale * rng.standard_normal(d)
    x = float(rng.choice([0.1, 1.0, 10.0])) * rng.standard_normal((labels.size, 5))
    return model, x, labels, float(rng.choice([0.05, 0.1, 0.5, 1.0, 3.0]))


def assert_scl_bitwise_equal(model, x, labels, tau):
    loss, grads, valid = scl_loss(model, x, labels, tau)
    want_loss, want_grads, want_valid = loop_scl_loss(model, x, labels, tau)
    assert valid == want_valid
    assert loss == want_loss
    for name in PARAM_NAMES:
        assert np.array_equal(grads[name], want_grads[name]), name


class TestSclLossMatchesLoop:
    """scl_loss works once per label, and must equal the per-anchor loop
    bit for bit: toy training, and so every toy feature, depends on it."""

    def test_random_batches(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            assert_scl_bitwise_equal(*random_scl_batch(rng))

    @pytest.mark.parametrize("table_floats", [1, 500])
    def test_random_batches_with_chunked_table(self, monkeypatch, table_floats):
        # one anchor, or a few, per chunk of the gradient table
        monkeypatch.setattr(toy, "_DU_TABLE_FLOATS", table_floats)
        rng = np.random.default_rng(22)
        for _ in range(200):
            assert_scl_bitwise_equal(*random_scl_batch(rng))

    @pytest.mark.parametrize("table_floats", [None, 1])
    @pytest.mark.parametrize("labels", [
        [0] * 12 + [1] * 3,              # 11 positives: pairwise positive sums
        [0] * 10 + [1] * 10,
        [0] * 3 + list(range(1, 11)),    # 10 negatives and more: pairwise exp sums
        [0] * 2 + [1] * 9,
        [0, 1, 2, 3, 3, 4, 5],           # singletons and one pair
        [7] * 6,                         # one label only: no valid anchor
        [0],                             # n = 1
    ], ids=["group12", "two_groups10", "negatives10", "pair_vs_9", "singletons_pair",
            "one_label", "n1"])
    def test_summation_regimes(self, monkeypatch, labels, table_floats):
        # each regime with labels in shuffled order, at d > 1, where the
        # positive features sum in order and the similarities and exponentials
        # pairwise from 8 terms on, and at d = 1, where every unit feature is
        # +-1; the gradient table and positive-feature gathers whole, or one
        # anchor per chunk
        if table_floats is not None:
            monkeypatch.setattr(toy, "_DU_TABLE_FLOATS", table_floats)
        rng = np.random.default_rng(23)
        for d in (1, 2, 16, 33):
            for _ in range(10):
                assert_scl_bitwise_equal(*scl_case(rng, rng.permutation(labels), d))

    def test_large_batch_memory_bounded(self):
        # n = 300, d = 256, two labels of about 150: an (n, n, d) temporary
        # would take 184 MB and one label's positive-feature gather 46 MB; in
        # chunks of _DU_TABLE_FLOATS (8 MiB), one held at a time, the peak is
        # about 18 MB, and a second chunk held would add 8 MB
        rng = np.random.default_rng(24)
        z = rng.standard_normal((300, 256))
        labels = rng.integers(0, 2, size=300)
        tracemalloc.start()
        try:
            _, dz, valid = toy._scl_loss(z, labels, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert valid == 300 and np.all(np.isfinite(dz))
        assert peak < 24e6, peak


class TestCompositeAndTraining:
    def test_zero_weights_equal_ce(self):
        rng = np.random.default_rng(13)
        model = small_model(rng)
        x = rng.standard_normal((6, 10))
        y = rng.integers(0, 3, size=6)
        weights = LossWeights(lambda1=0.0, lambda2=0.0, tau=1.0)
        total, _ = composite_loss(model, None, x, y, weights)
        ce, _ = ce_loss(model, x, y)
        assert total == ce

    def test_gradients_match_finite_differences(self):
        # all three terms weighted, with an old model to distill from
        rng = np.random.default_rng(19)
        model = small_model(rng, classes=5)
        old_model = small_model(rng, classes=3)
        x = rng.standard_normal((12, 10))
        labels = rng.integers(0, 5, size=12)
        weights = LossWeights(lambda1=2.0, lambda2=0.5, tau=0.5)
        loss, grads = composite_loss(model, old_model, x, labels, weights)
        ce, _ = ce_loss(model, x, labels)
        kd, _ = kd_loss(model, old_model, x, 3)
        scl, _, valid = scl_loss(model, x, labels, tau=0.5)
        assert valid > 0 and kd > 0
        assert loss == pytest.approx(ce + 2.0 * kd + 0.5 * scl, rel=1e-12)
        numeric = finite_difference_grads(
            lambda m: composite_loss(m, old_model, x, labels, weights)[0], model)
        assert_grads_close(grads, numeric, rtol=1e-5)

    def test_separable_blobs_high_accuracy(self):
        rng = np.random.default_rng(14)
        task = blob_task(rng, classes=2, per_class=40, in_dim=8)
        model = ToyModel.init(8, 12, 6, 2, rng)
        weights = LossWeights(lambda1=0.0, lambda2=0.0, tau=1.0)
        trained = train_task(model, None, *task, weights, epochs=30, base_lr=0.05, seed=1)
        x, y = task
        preds = np.argmax(trained.forward(x)[2], axis=1)
        assert (preds == y).mean() > 0.95

    def test_distillation_reduces_parameter_drift(self):
        rng = np.random.default_rng(15)
        task1 = blob_task(rng, classes=2, per_class=30, in_dim=8)
        task2 = blob_task(rng, classes=2, per_class=30, in_dim=8,
                          class_offset=2)
        base = ToyModel.init(8, 12, 6, 2, np.random.default_rng(99))
        first = train_task(base, None, *task1, LossWeights(0.0, 0.0, 1.0),
                           epochs=20, base_lr=0.05, seed=2)
        extended = first.extend_head(2, np.random.default_rng(7))

        def drift(lambda1):
            second = train_task(extended, first, *task2,
                                LossWeights(lambda1, 0.0, 1.0),
                                epochs=20, base_lr=0.02, seed=3)
            return sum(np.linalg.norm(getattr(second, n) - getattr(extended, n))
                       for n in ("W1", "b1", "W2", "b2"))

        assert drift(10.0) < drift(0.0)

    def test_two_task_default_weights_smoke(self):
        rng = np.random.default_rng(16)
        task1 = blob_task(rng, classes=2, per_class=20, in_dim=8)
        task2 = blob_task(rng, classes=2, per_class=20, in_dim=8,
                          class_offset=2)
        model = ToyModel.init(8, 10, 6, 2, rng)
        first = train_task(model, None, *task1, LossWeights(), epochs=5,
                           base_lr=0.02, seed=4)
        second = train_task(first.extend_head(2, rng), first, *task2, LossWeights(),
                            epochs=5, base_lr=0.02, seed=5)
        assert first.num_classes == 2 and second.num_classes == 4
        for name in PARAM_NAMES:
            assert np.all(np.isfinite(getattr(second, name)))

    def test_training_deterministic_bitwise(self):
        rng_a = np.random.default_rng(17)
        task = blob_task(rng_a, classes=3, per_class=15, in_dim=8)
        model = ToyModel.init(8, 10, 6, 3, np.random.default_rng(5))
        a = train_task(model, None, *task, LossWeights(0.0, 0.1, 0.5),
                       epochs=4, base_lr=0.03, seed=11)
        b = train_task(model, None, *task, LossWeights(0.0, 0.1, 0.5),
                       epochs=4, base_lr=0.03, seed=11)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_adaptive_learning_rate_scaling(self):
        # with old_model present the lr is scaled by new/old class count;
        # with lambda1 = 0 that must equal a no-old-model run at the scaled lr
        rng = np.random.default_rng(18)
        task2 = blob_task(rng, classes=2, per_class=10, in_dim=8,
                          class_offset=4)
        old_model = ToyModel.init(8, 10, 6, 4, rng)
        model = old_model.extend_head(2, rng)
        weights = LossWeights(0.0, 0.0, 1.0)
        with_old = train_task(model, old_model, *task2, weights, epochs=3,
                              base_lr=0.04, seed=6)
        manual = train_task(model, None, *task2, weights, epochs=3,
                            base_lr=0.04 * 2 / 4, seed=6)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(with_old, name),
                                          getattr(manual, name))

    def test_head_too_narrow_rejected(self):
        rng = np.random.default_rng(20)
        task2 = blob_task(rng, classes=1, per_class=10, in_dim=8,
                          class_offset=4)
        model = ToyModel.init(8, 10, 6, 4, rng)
        with pytest.raises(ValueError):
            train_task(model, None, *task2, LossWeights(0, 0, 1), epochs=1)


def reference_train_task(model, old_model, x, labels, weights, epochs, base_lr, batch_size, seed):
    """Reference: train_task's minibatch SGD calling the public composite_loss
    on every batch, so the old model's forward pass and every argument check
    run once per batch."""
    lr = base_lr
    if old_model is not None:
        lr = base_lr * np.unique(labels).size / old_model.num_classes
    trained = model.copy()
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grads = composite_loss(trained, old_model, x[idx], labels[idx], weights)
            for name in PARAM_NAMES:
                param = getattr(trained, name)
                param -= lr * grads[name]
    return trained


class TestTrainTaskMatchesReference:
    """train_task computes the distillation targets once per task and checks
    its arguments once; every trained parameter must equal the per-batch
    reference's bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weights, with_old, per_class, batch_size", [
        (LossWeights(2.0, 0.1, 0.5), True, 8, 8),     # distillation and contrastive
        (LossWeights(0.0, 0.1, 0.5), True, 8, 8),     # lambda1 = 0: no targets
        (LossWeights(2.0, 0.1, 0.5), False, 8, 8),    # no old model
        (LossWeights(2.0, 0.0, 0.5), True, 8, 8),     # lambda2 = 0
        (LossWeights(2.0, 0.1, 0.5), True, 11, 8),    # 22 rows: batches of 8, 8, 6
        (LossWeights(2.0, 0.1, 0.5), True, 8, 5),     # 16 rows: a last batch of one row
        (LossWeights(2.0, 0.1, 0.5), True, 4, 1),     # every batch one row
    ], ids=["distill", "lambda1_zero", "no_old_model", "lambda2_zero", "ragged",
            "single_row_last", "batch_size_1"])
    def test_parameters_bitwise_equal(self, weights, with_old, per_class, batch_size, seed):
        rng = np.random.default_rng(100 + seed)
        old_model = ToyModel.init(8, 10, 6, 3, rng)
        model = old_model.extend_head(2, rng)
        x, labels = blob_task(rng, classes=2, per_class=per_class, in_dim=8, class_offset=3)
        old = old_model if with_old else None
        got = train_task(model, old, x, labels, weights, epochs=3, base_lr=0.05,
                         batch_size=batch_size, seed=seed)
        want = reference_train_task(model, old, x, labels, weights, 3, 0.05, batch_size, seed)
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestArgumentChecks:
    """train_task checks its arguments once, up front; the public losses
    keep their own checks."""

    def setup_method(self):
        rng = np.random.default_rng(25)
        self.model = ToyModel.init(8, 10, 6, 4, rng)
        self.x, self.labels = blob_task(rng, classes=2, per_class=5, in_dim=8)

    def train(self, labels=None, old_model=None, weights=LossWeights(1.0, 0.1, 0.5), **kwargs):
        labels = self.labels if labels is None else labels
        return train_task(self.model, old_model, self.x, labels, weights, **kwargs)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_train_task_label_outside_head(self, bad):
        labels = self.labels.copy()
        labels[3] = bad
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
            self.train(labels)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_train_task_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            self.train(batch_size=batch_size)

    def test_train_task_negative_epochs(self):
        with pytest.raises(ValueError, match="epochs non-negative"):
            self.train(epochs=-1)

    def test_train_task_zero_epochs_returns_a_copy(self):
        trained = self.train(epochs=0)
        assert trained is not self.model
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(trained, name), getattr(self.model, name))

    @pytest.mark.parametrize("lambda1", [1.0, 0.0])
    def test_train_task_old_model_wider_than_head(self, lambda1):
        wider = ToyModel.init(8, 10, 6, 5, np.random.default_rng(26))
        with pytest.raises(ValueError, match="exceeds current head width 4"):
            self.train(old_model=wider, weights=LossWeights(lambda1, 0.1, 0.5), epochs=1)

    @pytest.mark.parametrize("labels", [[0, -1], [0, 4]])
    def test_ce_and_composite_loss_label_outside_head(self, labels):
        labels = np.array(labels)
        with pytest.raises(ValueError, match="labels must lie in"):
            ce_loss(self.model, self.x[:2], labels)
        with pytest.raises(ValueError, match="labels must lie in"):
            composite_loss(self.model, None, self.x[:2], labels, LossWeights())

    def test_composite_loss_old_model_wider_than_head(self):
        wider = ToyModel.init(8, 10, 6, 5, np.random.default_rng(27))
        with pytest.raises(ValueError, match="exceeds current head width"):
            composite_loss(self.model, wider, self.x, self.labels, LossWeights())

    def test_kd_loss_checks(self):
        with pytest.raises(ValueError, match="old_model required"):
            kd_loss(self.model, None, self.x, 3)
        wider = ToyModel.init(8, 10, 6, 5, np.random.default_rng(28))
        with pytest.raises(ValueError, match="exceeds current head width"):
            kd_loss(self.model, wider, self.x, 5)

    def test_scl_loss_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            scl_loss(self.model, self.x, self.labels, 0.0)
