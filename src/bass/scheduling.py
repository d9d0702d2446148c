"""Budget-constrained subset activation and per-round mixing matrices.

Each collision-free subset is an independent Bernoulli coin per round. A
round keeps only bidirectional links, so it is the set of base edges that
survive it: an edge survives iff both endpoints broadcast. Its mixing matrix
is W = I - eps * L~ of the surviving edges (eps on each, 1 - eps * degree on
the diagonal), symmetric by construction. A training loop never forms W: it
mixes over the surviving half-edges alone, to the bit what the per-call
``consensus_step`` with the dense W computes.

W's rows and columns sum to one, but it is not always nonnegative: at eps*
the diagonal 1 - eps * degree is often negative. Over 2000 rounds (seed 0,
budget fraction 0.5, floor 0.01) it was in 48 % of bass's rounds on
two-stars(6,6) (least entry -1.20), in every round of full there (-0.50)
and in 83 % of bass's on er(100,0.05,3) (-1.62). s* bounds the expected
contraction whatever the signs.

Both the subset policies here and the matching baseline state their
``Units``: independent Bernoulli units plus a map from each base edge to the
units it needs. A policy's rounds are drawn by a ``RoundSampler`` of its
units, prepared once per run, and ``moments`` reads the same units.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Topology, _edge_product, _row_slots
from .partition import CollisionFreePartition

# Budget equality is enforced to this tolerance where attainable.
BUDGET_TOL = 1e-9


def _unit_probs(probs, name: str) -> np.ndarray:
    """``probs`` as a read-only float copy, checked to be a nonempty 1-D
    array in [0, 1] (within 1e-12, then clipped); ``name`` names them."""
    p = np.array(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {p.shape}")
    if not np.all((p >= -1e-12) & (p <= 1 + 1e-12)):
        raise ValueError(f"{name} must lie in [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    p.setflags(write=False)
    return p


class Units(NamedTuple):
    """A policy as independent Bernoulli units: unit u is on with probability
    ``probs[u]`` and costs ``slots_per_unit`` slots, and base edge e survives
    a round iff both units ``edge_units[:, e]`` are on (the subsets of its
    endpoints, or its matching twice)."""

    probs: np.ndarray
    edge_units: np.ndarray
    slots_per_unit: int

    @property
    def expected_slots(self) -> float:
        """Expected transmission slots per round."""
        return self.slots_per_unit * float(self.probs.sum())


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
        object.__setattr__(self, "subset_probs", _unit_probs(self.subset_probs, "subset probabilities"))

    @property
    def achieved_budget(self) -> float:
        """Sum of the probabilities: the realized expected slots per round."""
        return float(self.subset_probs.sum())

    def with_epsilon(self, epsilon: float) -> "SchedulingPolicy":
        return dataclasses.replace(self, epsilon=float(epsilon))

    def units(self, partition: CollisionFreePartition, topology: Topology) -> Units:
        """The subsets as units: an edge needs the subsets of both its
        endpoints, and a subset costs one slot."""
        if self.subset_probs.size != partition.q:
            raise ValueError("policy and partition disagree on subset count")
        if partition.n != topology.n:
            raise ValueError("partition and topology disagree on node count")
        return Units(self.subset_probs, partition.owner_array[topology.edge_array].T, 1)

    def round_sampler(self, partition: CollisionFreePartition, topology: Topology) -> "RoundSampler":
        """The prepared sampler of this policy's rounds."""
        return RoundSampler(topology, self.units(partition, topology), self.epsilon)


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


class RoundSampler:
    """A policy's rounds, with everything that does not change between
    rounds worked out once.

    The round switches ``units`` on independently and keeps the base edges
    whose units are both on. ``mix`` gossips over the kept edges' half-edges
    with weight epsilon; ``mixing`` writes the dense W of the per-call API,
    where ``cells`` holds each edge's flat positions (i * n + j, j * n + i).
    ``diagonal[d]`` is W's diagonal entry 1 - epsilon * d at degree d.
    """

    def __init__(self, topology: Topology, units: Units, epsilon):
        if epsilon is None:
            raise ValueError("policy epsilon is not set; run the mixing optimizer first")
        self.n, self.edges = topology.n, topology.edge_array
        self.probs, self.slots_per_unit, self.epsilon = units.probs, units.slots_per_unit, float(epsilon)
        self.edge_units = np.ascontiguousarray(units.edge_units)
        self.cells = self.edges * self.n + self.edges[:, ::-1]
        self.diagonal = 1.0 - self.epsilon * np.arange(self.n)  # a degree is below n
        # Edge e's half-edges (i, j) and (j, i): tails ``edges[e]``, heads
        # ``_heads[e]``. Taken in edge order, each node's come in ascending
        # head order, as W's row-major nonzeros; at epsilon +-0.0 W has none
        # off the diagonal, and every edge has no half-edges.
        live = slice(None) if self.epsilon != 0.0 else slice(0)
        self._tails = self.edges[:, live]
        self._heads = np.ascontiguousarray(self.edges[:, ::-1][:, live])
        # The tails' rows in the state ``mix`` saw last, remade when its
        # width changes.
        self._slots = _row_slots(self._tails, 0)
        self._weight = np.array(self.epsilon)  # multiplies faster than a float

    def __call__(self, rng: np.random.Generator) -> RoundActivation:
        """Draw one round with a fresh mixing matrix."""
        active, kept = self.draw(rng)
        slots = self.slots_per_unit * int(np.count_nonzero(active))
        return RoundActivation(active, kept, self.mixing(kept), slots)

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One round's (active units, kept edges mask); consumes exactly one
        uniform per unit, in unit order."""
        active = rng.random(self.probs.size) < self.probs
        on = active.take(self.edge_units)  # faster than [] at hundreds of edges
        return active, on[0] & on[1]

    def mixing(self, kept: np.ndarray) -> np.ndarray:
        """W = I - epsilon * L~ of the edges in the mask ``kept``: epsilon at
        (i, j) and (j, i), 1 - epsilon * degree on the diagonal, +0.0 elsewhere
        (bit-identical to that expression)."""
        rows = kept.nonzero()[0]
        w = np.zeros(self.n * self.n)
        w[self.cells.take(rows, 0)] = self.epsilon
        w[:: self.n + 1] = self.diagonal.take(np.bincount(self.edges.take(rows, 0).ravel(), None, self.n))
        return w.reshape(self.n, self.n)

    def mix(self, kept: np.ndarray, state: np.ndarray) -> np.ndarray:
        """``dsgd.consensus_step(state, self.mixing(kept))`` to the bit for
        the float (n, d) ``state``, over the kept half-edges alone: no n x n
        array is made."""
        rows = kept.nonzero()[0]
        heads = self._heads.take(rows, 0).ravel()
        # an edge's two heads are its two tails: heads count the degrees
        diagonal = self.diagonal.take(np.bincount(heads, None, self.n))
        if self._slots.shape[-1] != state.shape[1]:
            self._slots = _row_slots(self._tails, state.shape[1])
        return _edge_product(state, diagonal, self._slots.take(rows, 0), heads, self._weight)


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
    if not np.isfinite(values).all():
        raise ValueError("subset scores must be finite")
    if np.any(values < 0):
        raise ValueError("subset scores must be nonnegative")
    positive = values > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lower, upper = min_prob / values, 1.0 / values  # no knots for zero scores
    if np.isinf(upper[positive]).any():
        raise ValueError("positive subset scores must have a finite reciprocal")
    if not np.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if budget > q + BUDGET_TOL:
        raise ValueError(f"budget {budget} infeasible for {q} subsets")
    budget = min(budget, float(q))
    if not 0 <= min_prob <= 1:
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
    perfectly co-activated; distinct subsets are independent. A loop over
    rounds should prepare ``policy.round_sampler`` once instead.
    """
    return policy.round_sampler(partition, topology)(rng)
