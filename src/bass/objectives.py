"""Local training objectives and non-iid data sharding for the D-SGD engine."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

# Elements of the class-major softmax chunks ``LogisticObjective`` takes the
# metrics of a block of rounds over.
_EVAL_CHUNK = 2**14


def _class_major_exp(expv: np.ndarray) -> np.ndarray:
    """Softmax numerators, in place of the class-major logits ``expv``
    (classes, ..., rows), less each row's exact class maximum; returns the
    denominators (..., rows), a running sum over the classes. That is
    numpy's .sum(axis=-1) order below 8 classes; from 8 up numpy sums
    pairwise, so the two can differ in the last bits."""
    top = expv[0].copy()
    for c in range(1, len(expv)):
        np.maximum(top, expv[c], out=top)
    expv -= top
    np.exp(expv, out=expv)
    total = expv[0].copy()
    for c in range(1, len(expv)):
        total += expv[c]
    return total


class LocalObjective(ABC):
    """Per-node loss family, evaluated for every node in one call.

    Implementations expose ``num_nodes`` and ``dim`` attributes.
    ``gradients`` draws one stochastic gradient per node at that node's row of
    the state; ``local_losses`` evaluates every node's objective exactly at
    one shared model. ``metrics`` is the one hook for what a round records:
    the train loss and test metric of each model in a block. The per-call
    ``test_metric`` and ``dsgd.global_train_loss`` are its one-model case.
    """

    num_nodes: int
    dim: int

    @abstractmethod
    def gradients(
        self, state: np.ndarray, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Mini-batch gradient of each node's local loss at its row: (n, dim)."""

    @abstractmethod
    def local_losses(self, x: np.ndarray) -> np.ndarray:
        """Every node's exact local loss at the one model x: (n,)."""

    def metrics(self, means: np.ndarray):
        """The train losses mean_i F_i(x) and the held-out test metrics (None
        without a test set) of each model x in ``means`` (T, dim), as two
        lists. This default is the mean of the local losses and no test
        metric."""
        return [float(np.mean(self.local_losses(x))) for x in means], [None] * len(means)

    def test_metric(self, state: np.ndarray):
        """Held-out metric of the node-averaged model of ``state``, or None."""
        return self.metrics(state.mean(axis=0)[None])[1][0]


class QuadraticObjective(LocalObjective):
    """Each node pulls toward its own target point.

    The collaborative optimum c̄ is the mean of the targets c_i, which makes
    this the exactness anchor for convergence tests. Gradients are
    deterministic (full batch): grad = x - c_i. The optimum is taken once.
    ``metrics`` takes the train loss in closed form, O(dim) per
    model: mean_i ½‖x - c_i‖² = ½‖x - c̄‖² - (x - c̄)·r + K, with K = mean_i
    ½‖c_i - c̄‖² and r = mean_i(c_i - c̄) taken once. The drift r is what the
    rounded c̄ misses of the exact mean; without it the form loses digits
    when the centers cluster far from the origin, and with it the loss is
    within (dim + n + 2) machine epsilons, relative, of the mean node loss.
    The test metric is the distance ‖x - c̄‖; both share the offset x - c̄
    and take one stacked dot each over a block of models.
    """

    def __init__(self, centers):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.centers = centers
        self.num_nodes = centers.shape[0]
        self.dim = centers.shape[1]
        self._optimum = centers.mean(axis=0)
        self._min_loss = float(np.mean(self.local_losses(self._optimum)))
        self._residual = (centers - self._optimum).mean(axis=0)

    def gradients(self, state, batch_size, rng):
        return state - self.centers

    def local_losses(self, x):
        diff = np.reshape(x, (1, -1)) - self.centers
        # A stacked (1 x dim) @ (dim x 1) product is numpy's dot per node, so
        # each loss equals 0.5 * diff_i @ diff_i to the last bit.
        return 0.5 * (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]

    def metrics(self, means):
        """The train loss ½‖off‖² - off·r + K and the test distance
        sqrt(off·off) of each model, from its offset off = x - c̄: one stacked
        (1 x dim) @ (dim x 1) product each, which is numpy's dot. The terms of
        off·(½off - r) share the sign of an infinite coordinate's square."""
        off = means - self._optimum
        half = 0.5 * off - self._residual
        losses = (off[:, None, :] @ half[:, :, None])[:, 0, 0] + self._min_loss
        return losses.tolist(), np.sqrt((off[:, None, :] @ off[:, :, None])[:, 0, 0]).tolist()


def make_blobs(n_samples: int, n_classes: int, n_features: int, rng: np.random.Generator):
    """Synthetic Gaussian-blob classification data, deterministic given rng:
    class means drawn with spread 3, unit-variance noise around them.

    Labels are balanced (round-robin) before any sharding reorders them.
    """
    means = rng.normal(0.0, 3.0, size=(n_classes, n_features))
    labels = np.arange(n_samples) % n_classes
    features = means[labels] + rng.normal(0.0, 1.0, size=(n_samples, n_features))
    return features, labels


def shard_data(
    num_samples: int, labels, n_nodes: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Label-sorted shard assignment: the standard non-iid stressor.

    Samples are stably sorted by label, cut into 2 * n_nodes contiguous
    shards, and each node receives two shards chosen by a seeded
    permutation, with no shard reused.
    """
    labels = np.asarray(labels)
    if labels.shape != (num_samples,):
        raise ValueError(f"expected {num_samples} labels, got {labels.shape}")
    if num_samples < 2 * n_nodes:
        raise ValueError(
            f"need at least {2 * n_nodes} samples for {n_nodes} nodes, got {num_samples}"
        )
    order = np.argsort(labels, kind="stable")
    shards = np.array_split(order, 2 * n_nodes)
    perm = rng.permutation(2 * n_nodes)
    return [
        np.concatenate([shards[perm[2 * i]], shards[perm[2 * i + 1]]])
        for i in range(n_nodes)
    ]


class LogisticObjective(LocalObjective):
    """Multinomial logistic regression over sharded data.

    The model vector is a flattened (n_features + 1) x n_classes weight
    matrix whose last row is the bias. Shards may differ in size and may
    overlap; their rows are gathered once, node after node, into one array.
    Mini-batches are drawn with replacement from each node's shard. Labels
    are classes 0..n_classes-1, with n_classes >= 2 and one test label per
    test row; the test rows and labels are passed together or not at all.
    """

    def __init__(self, features, labels, shards, n_classes, test_features=None, test_labels=None):
        shards = [np.asarray(s, dtype=int) for s in shards]
        if not shards or any(s.size == 0 for s in shards):
            raise ValueError("every node needs a nonempty shard")
        self.n_classes = int(n_classes)
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be at least 2, got {n_classes}")
        labels = np.asarray(labels, dtype=int)
        named = [("labels", labels)]
        if (test_features is None) != (test_labels is None):
            missing = "test_labels" if test_labels is None else "test_features"
            raise ValueError(f"{missing} is missing: pass test_features and test_labels together")
        if test_features is not None:
            test_features = np.asarray(test_features, dtype=float)
            if test_features.shape[0] == 0:
                raise ValueError("the held-out set is empty; pass None for no test set")
            test_labels = np.asarray(test_labels, dtype=int)
            if test_labels.shape != test_features.shape[:1]:
                raise ValueError(
                    f"test_labels must hold one label per test row ({len(test_features)}), "
                    f"got shape {test_labels.shape}"
                )
            named.append(("test_labels", test_labels))
        for name, values in named:
            bad = (values < 0) | (values >= self.n_classes)
            if bad.any():
                raise ValueError(f"{name} must lie in 0..{self.n_classes - 1}, got {values[bad][0]}")
        features = np.asarray(features, dtype=float)
        rows = np.concatenate(shards)
        self._targets = labels[rows]
        self.shard_sizes = np.array([s.size for s in shards])
        self._starts = np.cumsum(self.shard_sizes) - self.shard_sizes
        # Equal shards draw their batch indices under one scalar bound, which
        # consumes the stream exactly as the per-node bounds do, only faster.
        equal = (self.shard_sizes == self.shard_sizes[0]).all()
        self._high = int(self.shard_sizes[0]) if equal else self.shard_sizes[:, None]
        # Nodes grouped by shard size, each with a (nodes, size) array of its
        # row indices: np.add.reduce(axis=1) / size over it is numpy's own
        # per-shard .mean(), to the bit (np.add.reduceat sums in another
        # order).
        self._size_groups = []
        for size in np.unique(self.shard_sizes):
            nodes = np.flatnonzero(self.shard_sizes == size)
            self._size_groups.append((nodes, self._starts[nodes, None] + np.arange(size)))
        # Each train row's one-hot target, class-major: (n_classes, rows).
        self._onehot = np.arange(self.n_classes)[:, None] == self._targets
        self.n_features = features.shape[1]
        self.num_nodes = len(shards)
        self.dim = (self.n_features + 1) * self.n_classes
        # The train rows, then the test rows: the losses and the test metric
        # read one softmax over both, whichever of them asks for it.
        if test_features is not None:
            self._test_labels = test_labels
            features = np.vstack([features[rows], test_features])
        else:
            self._test_labels = None
            features = features[rows]
        self._eval_rows = np.hstack([features, np.ones((features.shape[0], 1))])
        self._rows = self._eval_rows[: rows.size]
        # The flat index of each train row's target probability in a
        # class-major (n_classes, eval rows) array.
        self._pick = self._targets * self._eval_rows.shape[0] + np.arange(rows.size)

    def _softmax(self, x, rows):
        """The class probabilities of rows (..., b, n_features + 1) under
        models x (..., dim), one model per leading index.

        The logits are copied class-major, so ``_class_major_exp`` takes the
        row maximum and the denominator one class at a time over contiguous
        rows rather than as one tiny reduction per row; the probabilities
        are a row-major view of that array.
        """
        weights = x.reshape(*x.shape[:-1], self.n_features + 1, self.n_classes)
        logits = rows @ weights
        # (classes, rows), copied from .T of the flat rows: np.moveaxis
        # costs microseconds a call here
        expv = logits.reshape(-1, self.n_classes).T.copy()
        expv /= _class_major_exp(expv)
        return expv.T.reshape(logits.shape)

    def gradients(self, state, batch_size, rng):
        """One draw of every node's batch indices, node-major, then one
        stacked softmax and one stacked rows^T @ (P - Y). The one
        ``rng.integers`` call gives the indices, and leaves the generator
        in the state, of a loop drawing each node's ``batch_size`` indices
        in turn."""
        draws = rng.integers(0, self._high, size=(self.num_nodes, batch_size))
        idx = self._starts[:, None] + draws
        # take() gathers whole rows, several times faster than [idx] here.
        rows = self._rows.take(idx, axis=0)
        residual = self._softmax(state, rows)
        # P - Y on the softmax's own class-major array, contiguous per class
        class_major = residual.transpose(2, 0, 1)
        class_major -= self._onehot.take(idx, axis=1)
        grads = rows.transpose(0, 2, 1) @ residual / batch_size
        return grads.reshape(self.num_nodes, self.dim)

    def local_losses(self, x):
        """Mean cross-entropy of each shard, from one softmax over all rows."""
        return self._node_losses(*self._eval_terms(x[None]))[0]

    def metrics(self, means):
        """The train loss and held-out accuracy of every model in ``means``
        from one softmax each, taken over chunks of rounds of about
        ``_EVAL_CHUNK`` elements."""
        losses, accuracies = [], []
        step = max(1, _EVAL_CHUNK // (self.n_classes * self._eval_rows.shape[0]))
        for start in range(0, len(means), step):
            expv, total = self._eval_terms(means[start : start + step])
            node_losses = self._node_losses(expv, total)
            # np.mean of each round's node losses, to the bit
            losses += (np.add.reduce(node_losses, 1) / self.num_nodes).tolist()
            if self._test_labels is not None:
                accuracies += self._accuracies(expv, total)
        if self._test_labels is None:
            accuracies = [None] * len(means)
        return losses, accuracies

    def _eval_terms(self, means):
        """The softmax of the train rows stacked on the test rows under each
        model of ``means`` (T, dim), class-major: numerators (T, n_classes,
        rows) and denominators (T, rows), the probabilities being
        expv / total[:, None].

        Each model keeps its own gemm of ``_softmax``'s shape (one fused gemm
        need not give the same bits), and ``_class_major_exp`` is the one
        gradients use. Class-major, each class step runs over contiguous
        rows; the same block taken row-major is slower than one softmax per
        round.
        """
        weights = means.reshape(len(means), self.n_features + 1, self.n_classes)
        expv = np.ascontiguousarray((self._eval_rows @ weights).transpose(0, 2, 1))
        return expv, _class_major_exp(expv.transpose(1, 0, 2))

    def _node_losses(self, expv, total):
        """Each shard's mean cross-entropy under each model, (T, n); only
        the target probabilities are divided out."""
        picked = expv.reshape(len(expv), -1).take(self._pick, 1) / total[:, : self._targets.size]
        row_losses = -np.log(np.maximum(picked, 1e-300))
        losses = np.empty((len(expv), self.num_nodes))
        for nodes, rows in self._size_groups:
            losses[:, nodes] = np.add.reduce(row_losses.take(rows, 1), 2) / rows.shape[1]
        return losses

    def _accuracies(self, expv, total):
        """The held-out accuracy under each model, as a list."""
        start = self._targets.size
        probs = expv[:, :, start:] / total[:, None, start:]
        # argmax takes the first of tied maxima, and class 0 for an all-NaN
        # row (a row of probabilities is either all NaN or all finite).
        predicted = probs.argmax(axis=1)
        # The count over the size is exactly the boolean mean.
        return (np.count_nonzero(predicted == self._test_labels, 1) / predicted.shape[1]).tolist()
