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
from .scheduling import BUDGET_TOL, RoundActivation, RoundSampler, SchedulingPolicy, Units, _unit_probs

# Rounds of uniforms drawn at once by the matching Monte Carlo; small blocks
# keep its transient arrays well under a megabyte.
_MATCHA_BLOCK = 1024


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
    used = [0] * t.n  # bit c of used[v]: color c is taken at node v
    colors = []
    for i, j in t.edge_array.tolist():
        taken = used[i] | used[j]
        bit = ~taken & (taken + 1)  # lowest clear bit
        colors.append(bit.bit_length() - 1)
        used[i] |= bit
        used[j] |= bit
    return MatchingDecomposition(t, colors)


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


def matcha_spectral_moments(
    policy: MatchaPolicy, samples: int, rng: np.random.Generator
):
    """(E[L~], E[L~^T L~]) for the matching policy, by Monte Carlo.

    Draws the same r uniforms per round, in matching order, as
    ``MatchaPolicy.sample_round``, in blocks of at most ``_MATCHA_BLOCK``
    rounds. Edge e survives iff its matching m(e) is active, so the sums
    over rounds need only the co-activation counts C_kl = sum_s z_sk z_sl;
    the activation counts c_k are their diagonal, since z^2 = z for a 0/1
    activation. Then sum_s L~ = L(c_m(e)), and sum_s L~^2 is the
    incident-pair sum of ``moments`` with weights C_m(e)m(f).

    Each block fills one reused float buffer with the uniforms, thresholds
    it in place to 0.0/1.0 and adds its float product z^T z into an int64
    accumulator. The product's entries are integers of at most the block
    size, so BLAS computes them exactly in any summation order; the int64
    sums stay exact for any ``samples``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    p = policy.match_probs
    co_counts = np.zeros((p.size, p.size), dtype=np.int64)
    block = np.empty((min(_MATCHA_BLOCK, samples), p.size))
    for done in range(0, samples, _MATCHA_BLOCK):
        on = block[: samples - done]
        rng.random(out=on)
        np.less(on, p, out=on)
        co_counts += (on.T @ on).astype(np.int64)
    counts = co_counts.diagonal()
    t, m = policy.topology, policy.edge_matching
    k, a, b, e, f = _incident_pairs(t)
    s_gram = _pair_gram(t.n, k, a, b, co_counts[m[e], m[f]])
    return t.laplacian(counts[m]) / samples, s_gram / samples


def full_comm_policy(partition: CollisionFreePartition, epsilon: float | None = None) -> SchedulingPolicy:
    """Every subset on every round: q slots per round, fixed mixing matrix."""
    return SchedulingPolicy(
        subset_probs=np.ones(partition.q), budget=float(partition.q), epsilon=epsilon
    )
