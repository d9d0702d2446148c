"""Comparison policies: full communication and link-matching scheduling.

The matching baseline decomposes the edge set into matchings by greedy edge
coloring and activates each matching independently per round. A matching
needs two transmission slots for a bidirectional exchange, which is exactly
where broadcast scheduling gains its per-slot advantage.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import Topology
from .moments import monte_carlo_gram_from_sampler
from .partition import CollisionFreePartition
from .scheduling import BUDGET_TOL, RoundActivation, SchedulingPolicy


class MatchingDecomposition:
    """Edge sets M_1..M_r, each a matching, jointly covering every base edge."""

    def __init__(self, n, matchings):
        self.n = int(n)
        self.matchings = tuple(
            tuple(sorted((min(i, j), max(i, j)) for i, j in m)) for m in matchings
        )

    @property
    def r(self) -> int:
        return len(self.matchings)

    def __repr__(self):
        return f"MatchingDecomposition(n={self.n}, r={self.r})"


def matching_decomposition(t: Topology) -> MatchingDecomposition:
    """Greedy edge coloring: each edge takes the smallest color free at both
    endpoints, processing edges in lexicographic order. Uses at most
    2 * max_degree - 1 colors."""
    colors_at = [set() for _ in range(t.n)]
    assignment = {}
    for edge in t.edges:
        i, j = edge
        c = 0
        while c in colors_at[i] or c in colors_at[j]:
            c += 1
        assignment[edge] = c
        colors_at[i].add(c)
        colors_at[j].add(c)
    count = max(assignment.values()) + 1 if assignment else 0
    matchings = [[] for _ in range(count)]
    for edge, c in assignment.items():
        matchings[c].append(edge)
    return MatchingDecomposition(t.n, matchings)


def dump_matchings(md: MatchingDecomposition) -> str:
    """One matching per line, ``i-j`` tokens."""
    return "\n".join(" ".join(f"{i}-{j}" for i, j in m) for m in md.matchings) + "\n"


@dataclass(frozen=True, eq=False)
class MatchaPolicy:
    """Independent per-matching activation with two slots per active matching."""

    topology: Topology
    matchings: tuple
    match_probs: np.ndarray
    budget: float
    epsilon: float | None = None

    def __post_init__(self):
        probs = np.asarray(self.match_probs, dtype=float).copy()
        probs.setflags(write=False)
        object.__setattr__(self, "match_probs", probs)
        adjacencies = []
        for m in self.matchings:
            adj = np.zeros((self.topology.n, self.topology.n))
            for i, j in m:
                adj[i, j] = adj[j, i] = 1.0
            adjacencies.append(adj)
        object.__setattr__(self, "_match_adj", tuple(adjacencies))

    @property
    def r(self) -> int:
        return len(self.matchings)

    @property
    def expected_slots(self) -> float:
        return float(2.0 * self.match_probs.sum())

    def with_epsilon(self, epsilon: float) -> "MatchaPolicy":
        return dataclasses.replace(self, epsilon=float(epsilon))

    def expected_laplacian(self) -> np.ndarray:
        """Exact E[L~] = sum_k p_k L(M_k): a round's adjacency is the sum of
        its active matchings' adjacencies, the matchings being edge-disjoint."""
        e_adj = sum(p * adj for p, adj in zip(self.match_probs, self._match_adj))
        return np.diag(e_adj.sum(axis=1)) - e_adj

    def sample_round(self, rng: np.random.Generator) -> RoundActivation:
        """Draw one round; consumes exactly r uniforms in matching order.

        The active graph is the union of active matchings, used
        bidirectionally, so slots_used counts two per active matching.
        """
        if self.epsilon is None:
            raise ValueError("policy epsilon is not set; run the mixing optimizer first")
        active = rng.random(self.r) < self.match_probs
        n = self.topology.n
        adj = np.zeros((n, n))
        for k in range(self.r):
            if active[k]:
                adj += self._match_adj[k]
        lap = np.diag(adj.sum(axis=1)) - adj
        mixing = np.eye(n) - self.epsilon * lap
        return RoundActivation(
            active_subsets=active,
            node_mask=(adj.sum(axis=1) > 0).astype(int),
            effective_adjacency=adj,
            effective_laplacian=lap,
            mixing_matrix=mixing,
            slots_used=int(2 * active.sum()),
        )


def matcha_policy(md: MatchingDecomposition, budget_slots: float, topology: Topology) -> MatchaPolicy:
    """Uniform activation probabilities min(1, B / 2r), expected slots = B.

    The probability design is deliberately isolated here so a smarter one can
    drop in behind the same policy interface.
    """
    budget_slots = float(budget_slots)
    if md.r == 0:
        raise ValueError("matching decomposition has no matchings")
    if topology.n != md.n:
        raise ValueError("decomposition and topology disagree on node count")
    if budget_slots <= 0 or budget_slots > 2 * md.r + BUDGET_TOL:
        raise ValueError(
            f"budget {budget_slots} infeasible: need 0 < B <= {2 * md.r} slots"
        )
    prob = min(1.0, budget_slots / (2.0 * md.r))
    return MatchaPolicy(
        topology=topology,
        matchings=md.matchings,
        match_probs=np.full(md.r, prob),
        budget=budget_slots,
    )


def matcha_spectral_moments(
    policy: MatchaPolicy, samples: int, rng: np.random.Generator
):
    """(E[L~], E[L~^T L~]) for the matching policy, by Monte Carlo.

    The closed forms cover node-subset sampling correlation, not edge
    sampling, so the matching baseline estimates its moments from its own
    sampling path. Fix epsilon to any value first; the Laplacian draw does
    not depend on it.
    """
    probe = policy if policy.epsilon is not None else policy.with_epsilon(0.0)
    return monte_carlo_gram_from_sampler(probe.sample_round, policy.topology.n, samples, rng)


def full_comm_policy(partition: CollisionFreePartition, epsilon: float | None = None) -> SchedulingPolicy:
    """Every subset on every round: q slots per round, fixed mixing matrix."""
    return SchedulingPolicy(
        subset_probs=np.ones(partition.q), budget=float(partition.q), epsilon=epsilon
    )
