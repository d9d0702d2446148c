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

from .graph import Topology, _incident_pairs, _pair_gram
from .partition import CollisionFreePartition
from .scheduling import BUDGET_TOL, RoundActivation, SchedulingPolicy

# Rounds of uniforms drawn at once by the matching Monte Carlo; small blocks
# keep its transient arrays well under a megabyte.
_MATCHA_BLOCK = 1024


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
    """Independent per-matching activation with two slots per active matching.

    ``edge_matching[e]`` is the matching that holds base edge e (row e of the
    topology's ``edge_array``); the matchings must cover every base edge
    exactly once.
    """

    topology: Topology
    matchings: tuple
    match_probs: np.ndarray
    budget: float
    epsilon: float | None = None

    def __post_init__(self):
        probs = np.asarray(self.match_probs, dtype=float).copy()
        probs.setflags(write=False)
        object.__setattr__(self, "match_probs", probs)
        index = {edge: e for e, edge in enumerate(self.topology.edges)}
        located = sorted(
            (index.get((min(i, j), max(i, j)), -1), k)
            for k, m in enumerate(self.matchings) for i, j in m
        )
        if [e for e, _ in located] != list(range(len(index))):
            raise ValueError("the matchings must cover every base edge exactly once")
        owner = np.array([k for _, k in located], dtype=int)
        owner.setflags(write=False)
        object.__setattr__(self, "edge_matching", owner)

    @property
    def r(self) -> int:
        return len(self.matchings)

    @property
    def expected_slots(self) -> float:
        return float(2.0 * self.match_probs.sum())

    def with_epsilon(self, epsilon: float) -> "MatchaPolicy":
        return dataclasses.replace(self, epsilon=float(epsilon))

    def expected_laplacian(self) -> np.ndarray:
        """Exact E[L~] = sum_k p_k L(M_k): each base edge survives with the
        probability of the one matching that holds it."""
        return self.topology.laplacian(self.match_probs[self.edge_matching])

    def sample_round(self, rng: np.random.Generator) -> RoundActivation:
        """Draw one round; consumes exactly r uniforms in matching order.

        An edge survives iff its matching is active, and is used
        bidirectionally, so slots_used counts two per active matching.
        """
        if self.epsilon is None:
            raise ValueError("policy epsilon is not set; run the mixing optimizer first")
        active = rng.random(self.r) < self.match_probs
        return RoundActivation.from_edges(
            self.topology, self.epsilon, active, active[self.edge_matching], 2 * active.sum()
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

    Draws the same r uniforms per round, in matching order, as
    ``MatchaPolicy.sample_round``, in blocks of at most ``_MATCHA_BLOCK``
    rounds. Edge e survives iff its matching m(e) is active, so the sums
    over rounds need only the activation counts c_k and co-activation counts
    C_kl = sum_s z_sk z_sl: sum_s L~ = L(c_m(e)), and sum_s L~^2 is the
    incident-pair sum of ``moments`` with weights C_m(e)m(f). Every partial
    sum is an integer below 2^53, hence exact.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    counts = np.zeros(policy.r, dtype=np.int64)
    co_counts = np.zeros((policy.r, policy.r), dtype=np.int64)
    done = 0
    while done < samples:
        block = min(_MATCHA_BLOCK, samples - done)
        active = (rng.random((block, policy.r)) < policy.match_probs).astype(np.int64)
        counts += active.sum(axis=0)
        co_counts += active.T @ active
        done += block
    t, m = policy.topology, policy.edge_matching
    k, a, b, e, f = _incident_pairs(t)
    s_gram = _pair_gram(t.n, k, a, b, co_counts[m[e], m[f]])
    return t.laplacian(counts[m]) / samples, s_gram / samples


def full_comm_policy(partition: CollisionFreePartition, epsilon: float | None = None) -> SchedulingPolicy:
    """Every subset on every round: q slots per round, fixed mixing matrix."""
    return SchedulingPolicy(
        subset_probs=np.ones(partition.q), budget=float(partition.q), epsilon=epsilon
    )
