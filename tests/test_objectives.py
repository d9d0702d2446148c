import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bass import (
    LogisticObjective,
    QuadraticObjective,
    global_train_loss,
    make_blobs,
    shard_data,
)

# --- per-node oracles: the loops the batched objectives replace -------------


def augment(features):
    return np.hstack([features, np.ones((len(features), 1))])


def node_probs(x, rows, classes):
    logits = rows @ x.reshape(rows.shape[1], classes)
    logits = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(logits)
    return expv / expv.sum(axis=1, keepdims=True)


def node_gradient(x, rows, targets, classes):
    probs = node_probs(x, rows, classes)
    probs[np.arange(len(targets)), targets] -= 1.0
    return (rows.T @ probs / len(targets)).ravel()


def node_loss(x, rows, targets, classes):
    picked = node_probs(x, rows, classes)[np.arange(len(targets)), targets]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def loop_gradients(features, labels, shards, classes, state, batch_size, rng):
    """Node after node: draw a batch from the node's shard, then its gradient."""
    aug = augment(features)
    grads = []
    for node, shard in enumerate(shards):
        idx = np.asarray(shard)[rng.integers(0, len(shard), size=batch_size)]
        grads.append(node_gradient(state[node], aug[idx], labels[idx], classes))
    return np.array(grads)


def loop_losses(features, labels, shards, classes, x):
    aug = augment(features)
    return np.array([node_loss(x, aug[s], labels[s], classes) for s in shards])


class TestQuadratic:
    def test_gradient_is_analytic(self):
        obj = QuadraticObjective([[0.0, 0.0], [3.0, 1.0]])
        x = np.array([1.0, 2.0])
        rng = np.random.default_rng(0)
        grads = obj.gradients(np.array([x, x]), 4, rng)
        assert np.array_equal(grads[0], x)
        assert np.array_equal(grads[1], x - [3.0, 1.0])

    def test_loss(self):
        obj = QuadraticObjective([[1.0]])
        assert obj.local_losses(np.array([3.0]))[0] == pytest.approx(2.0)

    def test_known_optimum_is_stationary(self):
        rng = np.random.default_rng(1)
        centers = rng.normal(size=(5, 3))
        obj = QuadraticObjective(centers)
        opt = obj.centers.mean(axis=0)
        mean_grad = obj.gradients(np.tile(opt, (5, 1)), 1, rng).mean(axis=0)
        assert np.abs(mean_grad).max() < 1e-8

    def test_gradients_match_per_node_loop_and_draw_nothing(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(6, 3))
        state = rng.normal(size=(6, 3))
        obj = QuadraticObjective(centers)
        before = rng.bit_generator.state
        grads = obj.gradients(state, 7, rng)
        assert rng.bit_generator.state == before
        assert np.array_equal(grads, np.array([state[i] - centers[i] for i in range(6)]))

    def test_local_losses_match_per_node_loop(self):
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(9, 2))
        x = rng.normal(size=2)
        obj = QuadraticObjective(centers)
        expected = [float(0.5 * (x - c) @ (x - c)) for c in centers]
        assert obj.local_losses(x).tolist() == expected

    @pytest.mark.parametrize("offset, spread", [(0.0, 1.0), (1e3, 1e-3)])
    def test_train_loss_is_the_mean_of_the_node_losses(self, offset, spread):
        """The closed form ½‖x - c̄‖² - (x - c̄)·r + K equals np.mean of the
        node losses within (dim + n + 2) machine epsilons of the loss: the
        first-order rounding of a dim-term dot and an n-term mean, taken
        both ways. Models near and away from the optimum, at scales 1e-3 to
        30; centers clustered far from the origin need the drift term r."""
        rng = np.random.default_rng(11)
        for dim in range(1, 11):
            for n in range(1, 10):
                obj = QuadraticObjective(offset + rng.normal(0.0, spread, (n, dim)))
                for scale in (1e-3, 1.0, 30.0):
                    for base in (obj.centers.mean(axis=0), np.zeros(dim)):
                        x = base + rng.normal(0.0, scale, dim)
                        got = global_train_loss(obj, x[None])
                        want = float(np.mean(obj.local_losses(x)))
                        assert abs(got - want) <= (dim + n + 2) * np.finfo(float).eps * want

    @pytest.mark.parametrize("x", [
        [np.nan, 0.5, -1.0], [np.inf, 0.5, -1.0], [0.5, -np.inf, -1.0], [np.nan] * 3,
        [np.inf] * 3, [-np.inf] * 3, [np.inf, -np.inf, -1.0], [np.nan, np.inf, -1.0],
    ])
    def test_non_finite_train_loss_is_the_node_losses_mean(self, x):
        obj = QuadraticObjective(np.random.default_rng(12).normal(size=(5, 3)))
        x = np.array(x)
        got, want = global_train_loss(obj, x[None]), float(np.mean(obj.local_losses(x)))
        assert not np.isfinite(got)
        assert got == want or (np.isnan(got) and np.isnan(want))


class TestShardData:
    def test_eight_samples_two_nodes(self):
        rng = np.random.default_rng(2)
        labels = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        shards = shard_data(8, labels, 2, rng)
        assert len(shards) == 2
        assert all(len(s) == 4 for s in shards)
        covered = sorted(np.concatenate(shards).tolist())
        assert covered == list(range(8))

    def test_identical_labels_still_partition(self):
        rng = np.random.default_rng(3)
        shards = shard_data(10, np.zeros(10, dtype=int), 5, rng)
        covered = sorted(np.concatenate(shards).tolist())
        assert covered == list(range(10))

    def test_deterministic_given_seed(self):
        labels = np.arange(20) % 4
        a = shard_data(20, labels, 5, np.random.default_rng(7))
        b = shard_data(20, labels, 5, np.random.default_rng(7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            shard_data(5, np.zeros(5, dtype=int), 3, np.random.default_rng(0))

    def test_label_sorted_contiguity(self):
        # with balanced labels each shard spans few label values
        rng = np.random.default_rng(11)
        labels = np.arange(40) % 4
        shards = shard_data(40, labels, 10, rng)
        for s in shards:
            assert len(np.unique(labels[s])) <= 2  # two shards per node


class TestMakeBlobs:
    def test_shapes_and_determinism(self):
        x1, y1 = make_blobs(30, 3, 4, np.random.default_rng(5))
        x2, y2 = make_blobs(30, 3, 4, np.random.default_rng(5))
        assert x1.shape == (30, 4)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
        assert sorted(np.unique(y1)) == [0, 1, 2]


class TestLogistic:
    def build(self, n=60, n_test=30, classes=3, features=4, nodes=3, seed=13):
        """The objective plus the training data and shards it was built from."""
        rng = np.random.default_rng(seed)
        x, y = make_blobs(n + n_test, classes, features, rng)
        shards = shard_data(n, y[:n], nodes, rng)
        obj = LogisticObjective(x[:n], y[:n], shards, classes, x[n:], y[n:])
        return obj, (x[:n], y[:n], shards)

    def test_dimensions(self):
        obj, _ = self.build()
        assert obj.num_nodes == 3
        assert obj.dim == 5 * 3  # (features + bias) * classes

    def test_gradient_matches_finite_differences(self):
        _, (features, labels, shards) = self.build()
        # one-row shards make every mini-batch gradient the exact gradient of
        # the node's local loss, so gradients and local_losses check each other
        rows = shards[1][:4]
        obj = LogisticObjective(features, labels, [[i] for i in rows], 3)
        rng = np.random.default_rng(17)
        state = rng.normal(0, 0.3, (len(rows), obj.dim))
        grads = obj.gradients(state, 3, rng)
        h = 1e-6
        for node in range(len(rows)):
            for k in range(0, obj.dim, 5):
                bump = np.zeros(obj.dim)
                bump[k] = h
                numeric = (
                    obj.local_losses(state[node] + bump)[node]
                    - obj.local_losses(state[node] - bump)[node]
                ) / (2 * h)
                assert grads[node, k] == pytest.approx(numeric, abs=1e-5)

    def test_stochastic_gradient_unbiased_direction(self):
        obj, (features, labels, shards) = self.build()
        rng = np.random.default_rng(19)
        state = np.zeros((3, obj.dim))
        shard = shards[0]
        exact = node_gradient(state[0], augment(features)[shard], labels[shard], 3)
        draws = np.mean([obj.gradients(state, 64, rng)[0] for _ in range(200)], axis=0)
        assert np.abs(draws - exact).max() < 0.1

    def test_zero_model_loss_is_log_classes(self):
        obj, _ = self.build()
        assert obj.local_losses(np.zeros(obj.dim)) == pytest.approx(
            np.full(3, np.log(3)), abs=1e-12
        )

    def test_test_metric_improves_with_training(self):
        obj, (features, labels, shards) = self.build()
        x = np.zeros(obj.dim)
        state = np.tile(x, (3, 1))
        base_acc = obj.test_metric(state)
        # a few centralized full-gradient steps on pooled data
        pooled = np.concatenate(shards)
        rows, targets = augment(features)[pooled], labels[pooled]
        for _ in range(150):
            x = x - 0.5 * node_gradient(x, rows, targets, 3)
        trained_acc = obj.test_metric(np.tile(x, (3, 1)))
        assert trained_acc > max(base_acc, 0.7)

    def test_no_test_set_returns_none(self):
        rng = np.random.default_rng(29)
        x, y = make_blobs(30, 3, 4, rng)
        shards = shard_data(30, y, 3, rng)
        obj = LogisticObjective(x, y, shards, 3)
        assert obj.test_metric(np.zeros((3, obj.dim))) is None

    def test_empty_shard_rejected(self):
        x, y = make_blobs(12, 3, 2, np.random.default_rng(31))
        with pytest.raises(ValueError, match="nonempty shard"):
            LogisticObjective(x, y, [np.arange(6), np.arange(0)], 3)

    def test_empty_test_set_rejected(self):
        x, y = make_blobs(12, 3, 2, np.random.default_rng(31))
        with pytest.raises(ValueError, match="held-out set is empty"):
            LogisticObjective(x, y, [np.arange(6), np.arange(6, 12)], 3, x[:0], y[:0])

    @pytest.mark.parametrize("override, message", [
        ({"labels": [0, 1, 2, 0, -1, 2, 0, 1, 2, 0, 1, 2]}, "labels must lie in 0..2, got -1"),
        ({"labels": [0, 1, 2, 0, 3, 2, 0, 1, 2, 0, 1, 2]}, "labels must lie in 0..2, got 3"),
        ({"test_labels": [0, 1, 7, 0]}, "test_labels must lie in 0..2, got 7"),
        ({"test_labels": [0, -2, 1, 0]}, "test_labels must lie in 0..2, got -2"),
        ({"n_classes": 1, "labels": [0] * 12, "test_labels": [0] * 4},
         "n_classes must be at least 2, got 1"),
        ({"test_labels": [0, 1, 2]}, "test_labels must hold one label per test row (4), got shape (3,)"),
        ({"test_labels": None}, "test_labels is missing: pass test_features and test_labels together"),
        ({"test_features": None}, "test_features is missing: pass test_features and test_labels together"),
    ])
    def test_unreadable_labels_rejected(self, override, message):
        """A label outside 0..n_classes-1, fewer than 2 classes, a test
        label count that differs from the test rows or half of the held-out
        pair fails by name."""
        x = np.random.default_rng(31).normal(size=(16, 2))
        args = dict(features=x[:12], labels=np.arange(12) % 3, shards=[np.arange(6), np.arange(6, 12)],
                    n_classes=3, test_features=x[12:], test_labels=np.arange(4) % 3)
        LogisticObjective(**args)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LogisticObjective(**{**args, **override})


class TestBatchedLogisticAgainstPerNodeLoop:
    """The batched calls equal the per-node loops: same values, same draws."""

    def data(self, n=53, nodes=5, seed=37):
        rng = np.random.default_rng(seed)
        x, y = make_blobs(n, 3, 4, rng)
        return x, y, shard_data(n, y, nodes, rng)

    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_gradients_and_generator_state(self, batch_size):
        x, y, shards = self.data()
        assert len({len(s) for s in shards}) > 1  # 53 rows, 10 shards: unequal
        obj = LogisticObjective(x, y, shards, 3)
        batched_rng, loop_rng = np.random.default_rng(41), np.random.default_rng(41)
        state = np.random.default_rng(43).normal(0, 0.5, (5, obj.dim))
        for _ in range(3):  # consecutive rounds continue the same stream
            batched = obj.gradients(state, batch_size, batched_rng)
            expected = loop_gradients(x, y, shards, 3, state, batch_size, loop_rng)
            assert batched.shape == (5, obj.dim)
            np.testing.assert_allclose(batched, expected, rtol=0, atol=1e-12)
            assert batched_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_equal_shards_draw_under_one_scalar_bound(self):
        x, y, shards = self.data(n=50)  # 50 rows, 10 shards: 10 per node
        obj = LogisticObjective(x, y, shards, 3)
        assert obj._high == 10
        batched_rng, loop_rng = np.random.default_rng(41), np.random.default_rng(41)
        state = np.random.default_rng(43).normal(0, 0.5, (5, obj.dim))
        for _ in range(3):
            batched = obj.gradients(state, 7, batched_rng)
            expected = loop_gradients(x, y, shards, 3, state, 7, loop_rng)
            np.testing.assert_allclose(batched, expected, rtol=0, atol=1e-12)
            assert batched_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_local_losses_on_overlapping_shards(self):
        x, y = make_blobs(45, 3, 4, np.random.default_rng(47))
        shards = [np.arange(0, 20), np.arange(10, 35), np.array([3, 3, 3, 40]), np.arange(45)]
        obj = LogisticObjective(x, y, shards, 3)
        model = np.random.default_rng(53).normal(0, 0.5, obj.dim)
        np.testing.assert_allclose(
            obj.local_losses(model), loop_losses(x, y, shards, 3, model), rtol=0, atol=1e-12
        )


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=8),
    batch_size=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_batched_logistic_matches_per_node_loop(sizes, batch_size, seed):
    """Random shard sizes, shards drawn with overlap from a shared pool.
    CI runs this on both numpy versions of its matrix: it pins the one
    integers() call per round to the per-node loop."""
    rng = np.random.default_rng(seed)
    x, y = make_blobs(40, 3, 2, rng)
    shards = [rng.integers(0, 40, size=k) for k in sizes]
    obj = LogisticObjective(x, y, shards, 3)
    state = rng.normal(0, 0.5, (len(sizes), obj.dim))
    batched_rng, loop_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    np.testing.assert_allclose(
        obj.gradients(state, batch_size, batched_rng),
        loop_gradients(x, y, shards, 3, state, batch_size, loop_rng),
        rtol=0,
        atol=1e-12,
    )
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    np.testing.assert_allclose(
        obj.local_losses(state[0]), loop_losses(x, y, shards, 3, state[0]), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("size", [1, 2, 10, 25, 2**31 + 3])
@pytest.mark.parametrize("batch_size", [1, 10])
def test_scalar_bound_draws_as_the_per_node_loop(size, batch_size):
    """Equal shards: one integers() call under a scalar bound gives the
    indices, and leaves the generator in the state, of per-node bounds and of
    a loop with one call per node.
    CI runs this on both numpy versions of its matrix."""
    nodes = 6
    rngs = [np.random.default_rng(5) for _ in range(3)]
    scalar = rngs[0].integers(0, size, size=(nodes, batch_size))
    per_node = rngs[1].integers(0, np.full((nodes, 1), size), size=(nodes, batch_size))
    loop = np.array([rngs[2].integers(0, size, size=batch_size) for _ in range(nodes)])
    assert np.array_equal(scalar, per_node) and np.array_equal(scalar, loop)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state


# --- row-wise class reductions: the reference the class-column kernels match --


def rowwise_softmax(obj, x, rows):
    weights = x.reshape(*x.shape[:-1], obj.n_features + 1, obj.n_classes)
    logits = rows @ weights
    logits = logits - logits.max(axis=-1, keepdims=True)
    expv = np.exp(logits)
    return expv / expv.sum(axis=-1, keepdims=True)


def rowwise_gradients(obj, state, batch_size, rng):
    draws = rng.integers(0, obj.shard_sizes[:, None], size=(obj.num_nodes, batch_size))
    idx = obj._starts[:, None] + draws
    rows = obj._rows[idx]
    onehot = obj._targets[idx][..., None] == np.arange(obj.n_classes)
    residual = rowwise_softmax(obj, state, rows) - onehot
    grads = rows.transpose(0, 2, 1) @ residual / batch_size
    return grads.reshape(obj.num_nodes, obj.dim)


def rowwise_local_losses(obj, x):
    probs = rowwise_softmax(obj, x, obj._rows)
    picked = probs[np.arange(obj._targets.size), obj._targets]
    row_losses = -np.log(np.maximum(picked, 1e-300))
    losses = np.empty(obj.num_nodes)
    for nodes, rows in obj._size_groups:
        losses[nodes] = row_losses[rows].mean(axis=1)
    return losses


def rowwise_test_metric(obj, state):
    test_rows = obj._eval_rows[obj._targets.size :]
    probs = rowwise_softmax(obj, state.mean(axis=0), test_rows)
    return float((probs.argmax(axis=1) == obj._test_labels).mean())


def random_logistic(rng, sizes, classes, features, n_test=25):
    x, y = make_blobs(40 + n_test, classes, features, rng)
    shards = [rng.integers(0, 40, size=k) for k in sizes]
    return LogisticObjective(x[:40], y[:40], shards, classes, x[40:], y[40:])


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    classes=st.integers(2, 7),
    features=st.integers(1, 5),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
    batch_size=st.integers(1, 9),
    scale=st.sampled_from([1e-3, 0.1, 1.0, 5.0, 30.0]),
    seed=st.integers(0, 2**16),
)
def test_class_columns_equal_rowwise_reductions(classes, features, sizes, batch_size, scale, seed):
    """Below 8 classes the class-column kernels are bit-identical to the
    row-wise .max/.sum(axis=-1), == np.arange and argmax formulas.
    CI runs this on both numpy versions of its matrix: it pins the softmax's
    column sums to numpy's .sum(axis=-1)."""
    rng = np.random.default_rng(seed)
    obj = random_logistic(rng, sizes, classes, features)
    state = rng.normal(0, scale, (len(sizes), obj.dim))
    batch = obj._rows[rng.integers(0, obj._rows.shape[0], size=(len(sizes), batch_size))]
    assert np.array_equal(obj._softmax(state, batch), rowwise_softmax(obj, state, batch))
    assert np.array_equal(
        obj._softmax(state[0], obj._rows), rowwise_softmax(obj, state[0], obj._rows)
    )
    assert np.array_equal(obj.local_losses(state[0]), rowwise_local_losses(obj, state[0]))
    column_rng, row_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    assert np.array_equal(
        obj.gradients(state, batch_size, column_rng),
        rowwise_gradients(obj, state, batch_size, row_rng),
    )
    assert column_rng.bit_generator.state == row_rng.bit_generator.state
    assert obj.test_metric(state) == rowwise_test_metric(obj, state)


def rowmajor_softmax(obj, x, rows):
    """The class-column softmax taken row-major, (..., b, n_classes): each
    class step reads a strided column. The class-major ``_softmax`` must
    give its bits for any class count."""
    weights = x.reshape(*x.shape[:-1], obj.n_features + 1, obj.n_classes)
    logits = rows @ weights
    top = logits[..., 0].copy()
    for c in range(1, obj.n_classes):
        np.maximum(top, logits[..., c], out=top)
    expv = np.exp(logits - top[..., None])
    total = expv[..., 0].copy()
    for c in range(1, obj.n_classes):
        total += expv[..., c]
    return expv / total[..., None]


def same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    classes=st.integers(2, 9),
    features=st.integers(1, 5),
    nodes=st.integers(1, 6),
    equal=st.booleans(),
    batch_size=st.integers(1, 9),
    nan_row=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_gradient_softmax_is_the_row_major_class_columns(
    classes, features, nodes, equal, batch_size, nan_row, seed
):
    """The class-major softmax and the gradient read through its row-major
    view give the bits of the row-major class columns, equal and unequal
    shards, a NaN model row included.
    CI runs this on both numpy versions of its matrix."""
    rng = np.random.default_rng(seed)
    sizes = [7] * nodes if equal else list(rng.integers(1, 30, nodes))
    obj = random_logistic(rng, sizes, classes, features)
    state = rng.normal(0, 3.0, (nodes, obj.dim))
    if nan_row:
        state[rng.integers(nodes)] = np.nan
    batch = obj._rows[rng.integers(0, obj._rows.shape[0], size=(nodes, batch_size))]
    assert same_bits(obj._softmax(state, batch), rowmajor_softmax(obj, state, batch))
    assert same_bits(obj._softmax(state[0], obj._rows), rowmajor_softmax(obj, state[0], obj._rows))
    rngs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    draws = rngs[1].integers(0, obj._high, size=(nodes, batch_size))
    idx = obj._starts[:, None] + draws
    rows = obj._rows[idx]
    onehot = obj._targets[idx][..., None] == np.arange(classes)
    expected = rows.transpose(0, 2, 1) @ (rowmajor_softmax(obj, state, rows) - onehot) / batch_size
    grads = obj.gradients(state, batch_size, rngs[0])
    assert same_bits(grads, expected.reshape(nodes, obj.dim))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("bias", [(0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (2.0, 1.0, 2.0), (0.5, 0.5, 0.0)])
def test_test_metric_ties_go_to_the_first_class(bias):
    # zero feature weights: every logit row is the bias, so every row
    # predicts argmax(bias), the first of its tied maxima; each class holds
    # its own share of the held-out labels
    rng = np.random.default_rng(61)
    x, y = make_blobs(20, 3, 2, rng)
    test_labels = np.repeat([0, 1, 2], [3, 5, 9])
    obj = LogisticObjective(x, y, [np.arange(10), np.arange(10, 20)], 3,
                            rng.normal(size=(17, 2)), test_labels)
    model = np.zeros((obj.n_features + 1, 3))
    model[-1] = bias
    state = np.tile(model.ravel(), (2, 1))
    expected = float((test_labels == np.argmax(bias)).mean())
    assert obj.test_metric(state) == expected == rowwise_test_metric(obj, state)


@pytest.mark.parametrize("classes", range(8, 13))
def test_eight_or_more_classes_within_the_summation_bound(classes):
    # From 8 classes numpy's .sum(axis=-1) is pairwise and the column sum is
    # sequential; over positive terms either order is within (k - 1) half-ulps
    # of the exact sum, so the probabilities agree within k machine epsilons.
    rng = np.random.default_rng(67 + classes)
    obj = random_logistic(rng, [30, 30, 30], classes, 4)
    for scale in (1e-3, 1.0, 30.0):
        state = rng.normal(0, scale, (3, obj.dim))
        batch = obj._rows[rng.integers(0, obj._rows.shape[0], size=(3, 9))]
        for x, rows in ((state, batch), (state[0], obj._rows)):
            np.testing.assert_allclose(
                obj._softmax(x, rows),
                rowwise_softmax(obj, x, rows),
                rtol=classes * np.finfo(float).eps,
                atol=0,
            )
