"""Budget-constrained subset activation and per-round mixing matrices.

Each collision-free subset is an independent Bernoulli coin per round. A
round keeps only bidirectional links, so it is the set of base edges that
survive it: an edge survives iff both endpoints broadcast. Its mixing matrix
W = I - eps * L~ is written in one pass from the surviving edges (eps on
each, 1 - eps * degree on the diagonal) and is symmetric by construction.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Topology, _edge_matrix
from .partition import CollisionFreePartition

# Budget equality is enforced to this tolerance where attainable.
BUDGET_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SchedulingPolicy:
    """Per-subset activation probabilities plus the slot-cost target.

    ``epsilon`` is the constant mixing step size; it is typically filled in
    by the mixing optimizer after the probabilities are fixed.
    """

    subset_probs: np.ndarray
    budget: float
    epsilon: float | None = None

    def __post_init__(self):
        probs = np.asarray(self.subset_probs, dtype=float).copy()
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("subset_probs must be a nonempty 1-D array")
        if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
            raise ValueError("subset probabilities must lie in [0, 1]")
        probs = np.clip(probs, 0.0, 1.0)
        probs.setflags(write=False)
        object.__setattr__(self, "subset_probs", probs)

    @property
    def q(self) -> int:
        return self.subset_probs.size

    @property
    def achieved_budget(self) -> float:
        """Sum of the probabilities: the realized expected slots per round."""
        return float(self.subset_probs.sum())

    def with_epsilon(self, epsilon: float) -> "SchedulingPolicy":
        return dataclasses.replace(self, epsilon=float(epsilon))


@dataclass(frozen=True, eq=False)
class RoundActivation:
    """One sampled communication round.

    ``active_subsets`` is the per-unit Bernoulli outcome (subsets here,
    matchings for the link-based baseline); ``active_edges`` the boolean mask
    over the base ``edge_array`` of the links that survive the round;
    ``slots_used`` the transmission slots consumed.
    """

    active_subsets: np.ndarray
    active_edges: np.ndarray
    mixing_matrix: np.ndarray
    slots_used: int

    @classmethod
    def from_edges(cls, topology: Topology, epsilon, active_units, active_edges, slots_used):
        """The round whose surviving edges are ``active_edges``, mixing with
        W = I - epsilon * L~, scattered straight from the surviving edges
        into one n x n array (bit-identical to that expression, zeros +0.0)."""
        edges = topology.edge_array[active_edges]
        mixing = _edge_matrix(topology.n, edges, scale=-epsilon, shift=1.0)
        return cls(active_units, active_edges, mixing, int(slots_used))


def subset_betweenness(node_values: np.ndarray, partition: CollisionFreePartition) -> np.ndarray:
    """Aggregate per-node centrality into per-subset sums."""
    values = np.asarray(node_values, dtype=float)
    if values.shape != (partition.n,):
        raise ValueError(
            f"centrality has shape {values.shape}, expected ({partition.n},)"
        )
    return np.bincount(partition.owner_array, values, partition.q)


def solve_probabilities(subset_values, budget, min_prob=0.0):
    """Turn per-subset importance scores into activation probabilities.

    Default (``min_prob=0``): probabilities take the min-capped proportional
    form p_k = min(1, gamma * value_k), with gamma set by cap-aware iteration
    so the probabilities sum to ``budget``: any subset whose uncapped share
    reaches 1 is pinned there and the remaining budget is re-spread over the
    rest. Zero-score subsets get probability zero, so the budget equality can
    be unattainable (e.g. star leaves); the largest attainable sum is returned
    in that case with a warning.

    ``min_prob > 0`` switches to p_k = min(1, max(min_prob, gamma * value_k))
    solved by bisection on gamma, which keeps every subset alive while still
    meeting the budget. Budget beyond what the proportional form can absorb
    (every positive-score subset capped at 1) is spread uniformly over the
    remaining subsets, so any budget up to q is met exactly.
    """
    values = np.asarray(subset_values, dtype=float)
    q = values.size
    budget = float(budget)
    if np.any(values < 0):
        raise ValueError("subset scores must be nonnegative")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if budget > q + BUDGET_TOL:
        raise ValueError(f"budget {budget} infeasible for {q} subsets")
    budget = min(budget, float(q))
    if min_prob < 0 or min_prob > 1:
        raise ValueError("min_prob must lie in [0, 1]")

    if min_prob > 0:
        if q * min_prob > budget + BUDGET_TOL:
            raise ValueError(
                f"floor {min_prob} needs at least {q * min_prob} budget, got {budget}"
            )
        probs_at = lambda g: np.minimum(1.0, np.maximum(min_prob, g * values))
        saturated = np.where(values > 0, 1.0, min_prob)
        if budget >= saturated.sum() - BUDGET_TOL:
            return _uniform_lift(saturated, budget)
        lo, hi = 0.0, 1.0
        while probs_at(hi).sum() < budget:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if probs_at(mid).sum() < budget:
                lo = mid
            else:
                hi = mid
        return probs_at(hi)

    # Cap-aware iteration. gamma never decreases when a subset is capped, so
    # capped subsets stay capped and the loop runs at most q times.
    capped = np.zeros(q, dtype=bool)
    probs = np.zeros(q)
    while True:
        remaining = budget - capped.sum()
        mass = values[~capped].sum()
        if mass <= 0.0:
            if remaining > BUDGET_TOL:
                warnings.warn(
                    f"budget {budget} unattainable: zero-score subsets cannot "
                    f"absorb the remaining {remaining:.6f} slots"
                )
            break
        gamma = remaining / mass
        newly = (~capped) & (gamma * values >= 1.0)
        if not newly.any():
            probs[~capped] = gamma * values[~capped]
            break
        capped |= newly
    probs[capped] = 1.0
    return probs


def _uniform_lift(probs: np.ndarray, budget: float) -> np.ndarray:
    """Raise entries uniformly (water-filling against the cap 1) to sum to budget."""
    probs = probs.copy()
    while True:
        shortfall = budget - probs.sum()
        open_mask = probs < 1.0 - 1e-15
        if shortfall <= BUDGET_TOL or not open_mask.any():
            return probs
        delta = shortfall / open_mask.sum()
        headroom = (1.0 - probs[open_mask]).min()
        if delta <= headroom:
            probs[open_mask] += delta
            return probs
        probs[open_mask] += headroom


def uniform_probabilities(q: int, budget: float) -> np.ndarray:
    """Spread the budget evenly over all subsets."""
    budget = float(budget)
    if not 0 < budget <= q + BUDGET_TOL:
        raise ValueError(f"budget {budget} infeasible for {q} subsets")
    return np.full(q, min(1.0, budget / q))


def node_probabilities(subset_probs, partition: CollisionFreePartition) -> np.ndarray:
    """Per-node activation probability: each node inherits its subset's."""
    probs = np.asarray(subset_probs, dtype=float)
    if probs.shape != (partition.q,):
        raise ValueError(f"expected {partition.q} subset probabilities")
    return probs[partition.owner_array]


def sample_round(
    policy: SchedulingPolicy,
    partition: CollisionFreePartition,
    topology: Topology,
    rng: np.random.Generator,
) -> RoundActivation:
    """Draw one communication round.

    Consumes exactly q uniforms from ``rng``, one per subset in subset order,
    so runs are bit-reproducible given the generator. Nodes in one subset are
    perfectly co-activated; distinct subsets are independent.
    """
    if policy.epsilon is None:
        raise ValueError("policy epsilon is not set; run the mixing optimizer first")
    if policy.q != partition.q:
        raise ValueError("policy and partition disagree on subset count")
    if partition.n != topology.n:
        raise ValueError("partition and topology disagree on node count")
    active = rng.random(partition.q) < policy.subset_probs
    owner = partition.owner_array
    i, j = topology.edge_array.T
    active_edges = active[owner[i]] & active[owner[j]]
    return RoundActivation.from_edges(topology, policy.epsilon, active, active_edges, active.sum())
