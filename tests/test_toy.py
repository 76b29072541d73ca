import numpy as np
import pytest

from driftcomp.toy import (
    PARAM_NAMES,
    LossWeights,
    ToyModel,
    ce_loss,
    composite_loss,
    kd_loss,
    scl_loss,
    train_task,
    zero_grads,
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
