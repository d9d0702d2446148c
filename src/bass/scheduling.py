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

    p_k = clip(gamma * value_k, min_prob, 1), with gamma solved exactly so
    the probabilities sum to ``budget``. S(gamma) = sum_k p_k is
    nondecreasing and piecewise linear, with knots where a subset leaves the
    floor (min_prob / value_k) and where it reaches the cap (1 / value_k):
    S is evaluated at the sorted knots, the last knot at or below the budget
    fixes which subsets sit at the floor, at the cap or in between, and that
    segment is solved for gamma. Equal scores give every subset
    min(1, budget / q).

    Past saturation, every positive-score subset is at 1. With
    ``min_prob > 0`` the zero-score subsets, all at the floor, are lifted
    evenly to absorb the rest, so any budget up to q is met exactly. With
    ``min_prob = 0`` they stay at zero and the largest attainable sum is
    returned with a warning (e.g. star leaves).
    """
    values = np.asarray(subset_values, dtype=float)
    q = values.size
    budget = float(budget)
    if np.any(values < 0):
        raise ValueError("subset scores must be nonnegative")
    positive = values > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lower, upper = min_prob / values, 1.0 / values  # no knots for zero scores
    if np.isinf(upper[positive]).any():
        raise ValueError("positive subset scores must have a finite reciprocal")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if budget > q + BUDGET_TOL:
        raise ValueError(f"budget {budget} infeasible for {q} subsets")
    budget = min(budget, float(q))
    if min_prob < 0 or min_prob > 1:
        raise ValueError("min_prob must lie in [0, 1]")
    if q * min_prob > budget + BUDGET_TOL:
        raise ValueError(
            f"floor {min_prob} needs at least {q * min_prob} budget, got {budget}"
        )

    # S(gamma) at its knots: sorted descending, the scores list their floor
    # and cap knots in ascending order, so at knot t the first c subsets are
    # capped, the first l are off the floor, and tail[i] is the mass of v[i:].
    v = np.sort(values[positive])[::-1]
    knots = np.unique(np.concatenate([lower[positive], upper[positive]]))
    tail = np.append(np.cumsum(v[::-1])[::-1], 0.0)
    c = np.searchsorted(np.sort(upper[positive]), knots, "right")
    l = np.searchsorted(np.sort(lower[positive]), knots, "right")
    sums = c + min_prob * (q - l) + knots * (tail[c] - tail[l])
    j = np.searchsorted(sums, budget, "right") - 1
    capped = np.zeros(q, dtype=bool)
    if v.size:
        if j < 0:
            return np.full(q, min_prob)
        # gamma lies at or past knots[j]. Subsets are classified by comparing
        # knots, never by t * v, which misfiles by one ulp. Those whose cap
        # knot is knots[j] itself are capped, as by the cap-aware rule, only
        # if the segment's gamma takes them to 1.
        capped, floored = upper < knots[j], lower > knots[j]
        gamma = _segment_gamma(values, budget, min_prob, capped, floored)
        newly = ~capped & (gamma * values >= 1.0)
        capped |= newly
    if capped.sum() == v.size:
        rest = budget - v.size
        if min_prob == 0.0 and rest > BUDGET_TOL:
            warnings.warn(
                f"budget {budget} unattainable: zero-score subsets cannot "
                f"absorb the remaining {rest:.6f} slots"
            )
        lifted = max(min_prob, rest / max(q - v.size, 1)) if min_prob > 0 else 0.0
        return np.where(capped, 1.0, lifted)
    # With every subset at a bound, S is flat at the budget and gamma stays.
    if newly.any() and not (capped | floored).all():
        gamma = _segment_gamma(values, budget, min_prob, capped, floored)
    probs = np.clip(gamma * values, min_prob, 1.0)
    probs[capped] = 1.0
    return probs


def _segment_gamma(values, budget, min_prob, capped, floored):
    """The gamma that meets the budget with ``capped`` at 1 and ``floored``
    at the floor; the other scores are summed in index order."""
    linear = ~(capped | floored)
    return (budget - capped.sum() - min_prob * floored.sum()) / values[linear].sum()


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
