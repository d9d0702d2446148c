"""Decentralized SGD: local gradient steps plus sampled consensus averaging.

Every round does one stochastic gradient step per node followed by one
consensus step with that round's sampled mixing matrix. A run is a single
sequential process driven by one seeded generator, so identical configs
produce bitwise-identical logs.

``run_training`` prepares the policy's round sampler once per run and mixes
every round over the half-edges that survive it (``RoundSampler.mix``), so
it holds no n x n array. It copies each round's state into a block of at
most 2^14 floats and takes the train losses, test metrics and consensus
errors of a whole block at once, whenever the block fills and at the end of
the run. The network averages are one reduction over the block's node axis,
from 2 coordinates up over a contiguous node-major copy. The train losses
and test metrics are the objective's one hook ``obj.metrics(means)`` at
those averages: the quadratic and logistic objectives take it in stacked
array operations (the quadratic train loss in closed form, from the same
dot as its test distance); the base-class default is the mean of the local
losses and no test metric. A consensus error sums its coordinates column
by column below 8 of them, which is numpy's own sequential order there,
and with numpy's reduction from 8 up, where numpy sums pairwise. Its
records and final state are bit for bit those of the per-call loop over
the public functions: ``sample_round`` (or the matching policy's
``sample_round``), then ``gradient_step``, ``consensus_step(state,
act.mixing_matrix)``, ``global_train_loss``, ``obj.test_metric`` and
``consensus_error``, and the generator ends in the same state. The tests
check that contract. Each round draws from the run's one generator first
the policy's units (one uniform per subset, or per matching, in order),
then the objective's mini-batch indices; the quadratic objective draws
none.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, get_type_hints

import numpy as np

from .graph import Topology, _edge_product, _is_int, _row_slots
from .objectives import LocalObjective
from .partition import CollisionFreePartition

CSV_HEADER = "round,cum_slots,active_subsets,train_loss,test_metric,consensus_error"

# Most floats of round states ``run_training`` buffers before it takes their
# metrics; a block holds at least one round.
_METRIC_BLOCK_FLOATS = 2**14


def _is_real(value) -> bool:
    """Whether ``value`` is a real number (numpy's included), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# Per numeric field type: its text parser, what a value must be and its check.
_NUMBER_TYPES = {int: (int, "an integer", _is_int), float: (float, "a real number", _is_real)}


def _check_types(config, types: dict) -> None:
    """Raise ``<key> must be <what>`` at the first field failing its ``types`` check."""
    for key, (_, what, check) in types.items():
        value = getattr(config, key)
        if not check(value):
            raise ValueError(f"{key} must be {what}, got {value!r}")


@dataclass
class TrainConfig:
    """Run parameters; the step size decays as lr / (1 + lr_decay * t). The
    one check of the training keys: each field's type from its annotation
    (numpy scalars pass, bools do not), then its range."""

    rounds: int
    lr: float
    lr_decay: float = 0.0
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_types(self, _TRAIN_TYPES)
        if self.rounds < 0:
            raise ValueError(f"rounds must be nonnegative, got {self.rounds}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.lr_decay < math.inf:
            raise ValueError(f"lr_decay must be nonnegative and finite, got {self.lr_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def lr_at(self, t: int) -> float:
        return self.lr / (1.0 + self.lr_decay * t)


_TRAIN_TYPES = {key: _NUMBER_TYPES[hint] for key, hint in get_type_hints(TrainConfig).items()}


class RoundRecord(NamedTuple):
    round: int
    cum_slots: int
    active_subsets: int
    train_loss: float
    test_metric: float | None
    consensus_error: float


@dataclass
class MetricsLog:
    """Per-round records plus the final model state of the run."""

    records: list[RoundRecord] = field(default_factory=list)
    final_state: np.ndarray | None = None

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for r in self.records:
            test = "" if r.test_metric is None else f"{r.test_metric:.12g}"
            out.write(
                f"{r.round},{r.cum_slots},{r.active_subsets},"
                f"{r.train_loss:.12g},{test},{r.consensus_error:.12g}\n"
            )
        return out.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())


def gradient_step(
    state: np.ndarray,
    obj: LocalObjective,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One local stochastic gradient step per node (row), from one batched call."""
    if lr < 0:
        raise ValueError("lr must be nonnegative")
    grads = obj.gradients(state, batch_size, rng)
    if not np.isfinite(grads).all():
        bad = ~np.isfinite(grads).all(axis=1)
        raise RuntimeError(f"non-finite gradient at node {int(bad.argmax())}; aborting run")
    return state - lr * grads


def consensus_step(state: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mix node models with the round's weight matrix: state <- w @ state.

    Row i is w_ii * x_i plus the terms w_ij * x_j of the nonzero off-diagonal
    w_ij, summed from +0.0 in column order; zero weights are skipped, so an
    infinite x_j reaches only the rows that weigh it. The result is within
    rounding of the BLAS product, not its bits. A symmetric w whose rows and
    columns sum to one preserves the network-average model up to that
    rounding; its entries need not be nonnegative (at the optimized epsilon
    the diagonal 1 - epsilon * deg~_i is often negative).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (state.shape[0], state.shape[0]):
        raise ValueError(
            f"mixing matrix shape {w.shape} does not match {state.shape[0]} nodes"
        )
    n = len(w)
    x = np.asarray(state, dtype=float).reshape(n, -1)
    # The off-diagonal nonzeros in row-major order are the half-edges in
    # (tail, head) order; a bool mask finds them far faster than w.nonzero().
    nonzero = w != 0.0
    nonzero.flat[:: n + 1] = False
    flat = np.flatnonzero(nonzero)
    tail, head = np.divmod(flat, n)
    weights = w.ravel().take(flat)[:, None]
    out = _edge_product(x, w.diagonal(), _row_slots(tail, x.shape[1]), head, weights)
    return out.reshape(state.shape)


def consensus_error(state: np.ndarray) -> float:
    """Mean distance of node models from their network average."""
    return float(np.mean(np.linalg.norm(state - state.mean(axis=0), axis=1)))


def global_train_loss(obj: LocalObjective, state: np.ndarray) -> float:
    """Collaborative objective at the node-averaged model, mean_i F_i(mean_x):
    the one-model case of ``obj.metrics``."""
    return obj.metrics(state.mean(axis=0)[None])[0][0]


def run_training(
    topology: Topology,
    policy,
    partition: CollisionFreePartition,
    obj: LocalObjective,
    cfg: TrainConfig,
) -> MetricsLog:
    """Run D-SGD for cfg.rounds rounds and collect per-round metrics.

    Per round, in fixed generator order: sample the activation, take one
    gradient step per node, then apply the round's mixing matrix. The model
    starts at zero, all nodes in consensus.
    ``policy`` is any object whose ``round_sampler(partition, topology)``
    returns a ``scheduling.RoundSampler``.
    """
    if partition.n != topology.n or obj.num_nodes != topology.n:
        raise ValueError("topology, partition and objective disagree on node count")
    rng = np.random.default_rng(cfg.seed)
    state = np.zeros((topology.n, obj.dim))
    sampler = policy.round_sampler(partition, topology)
    log = MetricsLog()
    per_block = _METRIC_BLOCK_FLOATS // max(state.size, 1)
    block = np.empty((max(1, min(cfg.rounds, per_block)), *state.shape))
    counts = []  # (cum_slots, active units) of each buffered round
    cum_slots = 0
    for t in range(cfg.rounds):
        active, kept = sampler.draw(rng)
        state = gradient_step(state, obj, cfg.lr_at(t), cfg.batch_size, rng)
        state = sampler.mix(kept, state)
        on = int(np.count_nonzero(active))
        cum_slots += sampler.slots_per_unit * on
        block[len(counts)] = state
        counts.append((cum_slots, on))
        if len(counts) == len(block) or t + 1 == cfg.rounds:
            for count, *metrics in zip(counts, *_block_metrics(obj, block[: len(counts)])):
                log.records.append(RoundRecord(len(log.records) + 1, *count, *metrics))
            counts = []
    log.final_state = state
    return log


def _block_metrics(obj: LocalObjective, states: np.ndarray):
    """The train losses, test metrics and consensus errors of the stacked
    round states (T, n, dim), as three lists, which may overwrite
    ``states``: those of ``global_train_loss``, ``obj.test_metric`` and
    ``consensus_error`` at every round, to the bit. Below 8 coordinates
    numpy sums in order, so the squared deviations are taken and added one
    coordinate column at a time, cheaper than its reduction over a short
    axis; from 8 up numpy sums pairwise and its reduction is kept. The
    network averages are summed over a contiguous node-major copy from 2
    coordinates up, one long inner loop rather than a dim-long one per node;
    a lone coordinate keeps numpy's reduction, which sums it pairwise."""
    n, dim = states.shape[1:]
    # state.mean(axis=0) of every round to the bit
    if dim == 1:
        means = np.add.reduce(states, 1) / n
    else:
        means = np.add.reduce(np.ascontiguousarray(states.transpose(1, 0, 2)), 0) / n
    losses, tests = obj.metrics(means)
    # numpy's norm(axis=1) and .mean(), in its own summation orders
    if dim < 8:
        dist = np.square(states[..., 0] - means[:, None, 0])
        for c in range(1, dim):
            dev = states[..., c] - means[:, None, c]
            dev *= dev
            dist += dev
    else:
        np.subtract(states, means[:, None], out=states)
        np.multiply(states, states, out=states)
        dist = np.add.reduce(states, 2)
    np.sqrt(dist, out=dist)
    return losses, tests, (np.add.reduce(dist, 1) / n).tolist()
