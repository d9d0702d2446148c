"""Comparison policies: full communication and link-matching scheduling.

The matching baseline decomposes the edge set into matchings by greedy edge
coloring and activates each matching independently per round. A matching
needs two transmission slots for a bidirectional exchange, which is exactly
where broadcast scheduling gains its per-slot advantage. Its moments, like
every policy's, come from ``moments`` over its units, in the one compact
form the search reads; ``matcha_spectral_moments`` returns the dense views
of the Monte Carlo estimate as a pair.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import Topology, _greedy_colors
from .moments import monte_carlo_moments
from .partition import CollisionFreePartition
from .scheduling import BUDGET_TOL, RoundActivation, RoundSampler, SchedulingPolicy, Units, _unit_probs


class MatchingDecomposition:
    """The base edges split into matchings M_0..M_{r-1}.

    The decomposition is its read-only ``edge_matching``: entry e is the
    matching that holds row e of the topology's ``edge_array``, so every
    edge lies in exactly one matching. ``matchings``, each matching's edges
    as a tuple of pairs, is derived on demand.
    """

    def __init__(self, topology: Topology, edge_matching):
        self.topology = topology
        self.edge_matching = np.array(edge_matching, dtype=np.intp)
        self.edge_matching.setflags(write=False)
        self.r = int(self.edge_matching.max(initial=-1)) + 1

    @property
    def matchings(self) -> tuple:
        """Edge tuples of each matching in matching order, edges sorted."""
        edges, color = self.topology.edge_array, self.edge_matching
        return tuple(tuple(map(tuple, edges[color == k].tolist())) for k in range(self.r))

    def __repr__(self):
        return f"MatchingDecomposition(n={self.topology.n}, r={self.r})"


def matching_decomposition(t: Topology) -> MatchingDecomposition:
    """Greedy edge coloring: each edge takes the smallest color free at both
    endpoints, processing edges in lexicographic order, so the colors in use
    are 0..r-1 with r at most 2 * max_degree - 1."""
    return MatchingDecomposition(t, _greedy_colors(t.edge_array.tolist(), t.n))


def dump_matchings(md: MatchingDecomposition) -> str:
    """One matching per line, ``i-j`` tokens."""
    return "\n".join(" ".join(f"{i}-{j}" for i, j in m) for m in md.matchings) + "\n"


@dataclass(frozen=True, eq=False)
class MatchaPolicy:
    """Independent per-matching activation with two slots per active matching.

    ``edge_matching[e]`` is the matching, in 0..r-1 with r the length of
    ``match_probs``, that holds base edge e (row e of the topology's
    ``edge_array``).
    """

    topology: Topology
    edge_matching: np.ndarray
    match_probs: np.ndarray
    budget: float
    epsilon: float | None = None

    def __post_init__(self):
        probs = _unit_probs(self.match_probs, "matching probabilities")
        object.__setattr__(self, "match_probs", probs)
        owner, m = np.array(self.edge_matching, dtype=np.intp), len(self.topology.edge_array)
        if owner.shape != (m,) or np.any((owner < 0) | (owner >= probs.size)):
            raise ValueError(
                f"edge_matching must give each of the {m} base edges a matching in 0..{probs.size - 1}"
            )
        owner.setflags(write=False)
        object.__setattr__(self, "edge_matching", owner)

    @property
    def expected_slots(self) -> float:
        return self.units().expected_slots

    def with_epsilon(self, epsilon: float) -> "MatchaPolicy":
        return dataclasses.replace(self, epsilon=float(epsilon))

    def units(self, partition=None, topology=None) -> Units:
        """The matchings as units: an edge needs its matching, and a
        matching costs two slots, one per direction of its links. The policy
        carries its own topology; the arguments only keep the signature of
        ``SchedulingPolicy.units``."""
        return Units(self.match_probs, np.stack([self.edge_matching, self.edge_matching]), 2)

    def round_sampler(self, partition=None, topology=None) -> RoundSampler:
        """The prepared sampler of this policy's rounds."""
        return RoundSampler(self.topology, self.units(), self.epsilon)

    def sample_round(self, rng: np.random.Generator) -> RoundActivation:
        """Draw one round; consumes exactly r uniforms in matching order."""
        return self.round_sampler()(rng)


def matcha_policy(md: MatchingDecomposition, budget_slots: float, topology: Topology) -> MatchaPolicy:
    """Uniform activation probabilities min(1, B / 2r), expected slots = B.

    The probability design is deliberately isolated here so a smarter one can
    drop in behind the same policy interface.
    """
    budget_slots = float(budget_slots)
    if md.r == 0:
        raise ValueError("matching decomposition has no matchings")
    if md.topology != topology:
        raise ValueError("the decomposition belongs to a different topology")
    if not 0 < budget_slots <= 2 * md.r + BUDGET_TOL:
        raise ValueError(
            f"budget {budget_slots} infeasible: need 0 < B <= {2 * md.r} slots"
        )
    prob = min(1.0, budget_slots / (2.0 * md.r))
    return MatchaPolicy(
        topology=topology,
        edge_matching=md.edge_matching,
        match_probs=np.full(md.r, prob),
        budget=budget_slots,
    )


def matcha_spectral_moments(policy: MatchaPolicy, samples: int, rng: np.random.Generator):
    """``monte_carlo_moments`` of the matching policy's units, as a pair of
    dense n x n arrays."""
    ms = monte_carlo_moments(policy.topology, policy.units(), samples, rng)
    return ms.e_laplacian, ms.e_gram


def full_comm_policy(partition: CollisionFreePartition) -> SchedulingPolicy:
    """Every subset on every round: q slots per round, fixed mixing matrix.
    The policy's epsilon is unset; ``with_epsilon`` sets it."""
    return SchedulingPolicy(subset_probs=np.ones(partition.q), budget=float(partition.q))
