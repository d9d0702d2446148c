"""Decentralized SGD: local gradient steps plus sampled consensus averaging.

Every round does one stochastic gradient step per node followed by one
consensus step with that round's sampled mixing matrix. A run is a single
sequential process driven by one seeded generator, so identical configs
produce bitwise-identical logs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .graph import Topology
from .objectives import LocalObjective
from .partition import CollisionFreePartition
from .scheduling import SchedulingPolicy, sample_round

CSV_HEADER = "round,cum_slots,active_subsets,train_loss,test_metric,consensus_error"


@dataclass
class TrainConfig:
    """Run parameters; the step size decays as lr / (1 + lr_decay * t)."""

    rounds: int
    lr: float
    lr_decay: float = 0.0
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")

    def lr_at(self, t: int) -> float:
        return self.lr / (1.0 + self.lr_decay * t)


@dataclass(frozen=True)
class RoundRecord:
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
    bad = ~np.isfinite(grads).all(axis=1)
    if bad.any():
        raise RuntimeError(f"non-finite gradient at node {int(bad.argmax())}; aborting run")
    return state - lr * grads


def consensus_step(state: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mix node models with the round's weight matrix: state <- w @ state.

    A doubly stochastic w preserves the network-average model exactly.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (state.shape[0], state.shape[0]):
        raise ValueError(
            f"mixing matrix shape {w.shape} does not match {state.shape[0]} nodes"
        )
    return w @ state


def consensus_error(state: np.ndarray) -> float:
    """Mean distance of node models from their network average."""
    dev = state - state.mean(axis=0, keepdims=True)
    return float(np.linalg.norm(dev, axis=1).mean())


def global_train_loss(obj: LocalObjective, state: np.ndarray) -> float:
    """Collaborative objective at the node-averaged model: mean_i F_i(mean_x)."""
    return float(np.mean(obj.local_losses(state.mean(axis=0))))


def _round_sampler(topology, policy, partition):
    if isinstance(policy, SchedulingPolicy):
        return lambda rng: sample_round(policy, partition, topology, rng)
    if hasattr(policy, "sample_round"):
        return policy.sample_round
    raise TypeError(f"unsupported policy object {policy!r}")


def run_training(
    topology: Topology,
    policy,
    partition: CollisionFreePartition,
    obj: LocalObjective,
    cfg: TrainConfig,
    initial_state: np.ndarray | None = None,
) -> MetricsLog:
    """Run D-SGD for cfg.rounds rounds and collect per-round metrics.

    Per round, in fixed generator order: sample the activation, take one
    gradient step per node, then apply the round's mixing matrix. The model
    starts at zero (all nodes in consensus) unless an initial state is given.
    """
    if partition.n != topology.n or obj.num_nodes != topology.n:
        raise ValueError("topology, partition and objective disagree on node count")
    rng = np.random.default_rng(cfg.seed)
    if initial_state is None:
        state = np.zeros((topology.n, obj.dim))
    else:
        state = np.array(initial_state, dtype=float)
        if state.shape != (topology.n, obj.dim):
            raise ValueError(f"initial state must have shape ({topology.n}, {obj.dim})")
    sampler = _round_sampler(topology, policy, partition)
    log = MetricsLog()
    cum_slots = 0
    for t in range(cfg.rounds):
        activation = sampler(rng)
        state = gradient_step(state, obj, cfg.lr_at(t), cfg.batch_size, rng)
        state = consensus_step(state, activation.mixing_matrix)
        cum_slots += activation.slots_used
        log.records.append(
            RoundRecord(
                round=t + 1,
                cum_slots=cum_slots,
                active_subsets=int(activation.active_subsets.sum()),
                train_loss=global_train_loss(obj, state),
                test_metric=obj.test_metric(state),
                consensus_error=consensus_error(state),
            )
        )
    log.final_state = state
    return log
