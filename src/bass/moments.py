"""First and second activation moments of the effective Laplacian.

Under subset sampling, node activations are Bernoulli variables that are
perfectly correlated inside a subset and independent across subsets. Joint
moments of activation indicators therefore collapse to products of chained
max terms: E[n_i n_j] = p_i * max(phi(i,j), p_j) and
E[n_i n_j n_m] = p_i * max(phi(i,j), p_j) * max(phi(i,m), phi(j,m), p_m),
where phi is the same-subset indicator. Everything here is a closed-form
consequence of those two identities; the enumeration and Monte Carlo routes
exist to validate them against the actual sampling path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Topology
from .partition import CollisionFreePartition
from .scheduling import effective_topology


@dataclass(frozen=True, eq=False)
class MomentSet:
    """E[L~], E[L~^T L~] and the four constituents of the Gram expectation.

    The Gram matrix decomposes exactly per round as
    L~^T L~ = diag^2(A~u) - diag(A~u) A~ - A~ diag(A~u) + A~^2,
    so ``e_gram = e_deg2 - e_deg_adj - e_adj_deg + e_adj2`` holds for every
    route (closed form, enumeration, Monte Carlo).
    """

    e_laplacian: np.ndarray
    e_gram: np.ndarray
    e_deg2: np.ndarray
    e_deg_adj: np.ndarray
    e_adj_deg: np.ndarray
    e_adj2: np.ndarray


def _phi_matrix(partition: CollisionFreePartition) -> np.ndarray:
    owner = partition.owner_array
    return (owner[:, None] == owner[None, :]).astype(float)


def _checked_probs(partition: CollisionFreePartition, node_probs) -> np.ndarray:
    p = np.asarray(node_probs, dtype=float)
    if p.shape != (partition.n,):
        raise ValueError(f"expected {partition.n} node probabilities, got {p.shape}")
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise ValueError("node probabilities must lie in [0, 1]")
    for s in partition.subsets:
        if np.ptp(p[list(s)]) > 1e-12:
            raise ValueError(f"nodes of subset {s} carry different probabilities")
    return np.clip(p, 0.0, 1.0)


def subset_probs_from_node_probs(
    partition: CollisionFreePartition, node_probs
) -> np.ndarray:
    """Recover per-subset probabilities, validating within-subset consistency."""
    p = _checked_probs(partition, node_probs)
    return np.array([p[s[0]] for s in partition.subsets])


def expected_laplacian(
    topology: Topology, partition: CollisionFreePartition, node_probs
) -> np.ndarray:
    """Closed-form E[L~] under independent subset activation.

    Off-diagonal entries are -p_i * max(phi(i,j), p_j) * A_ij; the diagonal
    carries the matching row sums, so E[L~] u = 0 exactly.
    """
    p = _checked_probs(partition, node_probs)
    adj = topology.adjacency
    phi = _phi_matrix(partition)
    pair = p[:, None] * np.maximum(phi, p[None, :])
    e_adj = pair * adj
    return np.diag(e_adj.sum(axis=1)) - e_adj


def expected_laplacian_gram(
    topology: Topology, partition: CollisionFreePartition, node_probs
) -> MomentSet:
    """Closed-form E[L~^T L~] with its four constituent matrices.

    The triple-index sums run over all nodes; adjacency factors zero out the
    combinations that cannot occur. O(n^3) time and memory, which is fine at
    the target network sizes.
    """
    p = _checked_probs(partition, node_probs)
    adj = topology.adjacency
    phi = _phi_matrix(partition)
    pair = p[:, None] * np.maximum(phi, p[None, :])
    pa = pair * adj

    # tri[a, b, c] = max(phi(a, c), phi(b, c), p_c): the third-node factor of
    # E[n_a n_b n_c] once a and b are already accounted for.
    tri = np.maximum(np.maximum(phi[:, None, :], phi[None, :, :]), p[None, None, :])

    e_deg2 = np.diag(np.einsum("im,imk,ik->i", pa, tri, adj))
    e_deg_adj = pa * np.einsum("ijm,im->ij", tri, adj)
    e_adj_deg = pa * np.einsum("ijm,jm->ij", tri, adj)
    e_adj2 = pair * np.einsum("ijm,im,mj->ij", tri, adj, adj)
    # The generic off-diagonal expression already reduces to the correct
    # diagonal (n_i^2 = n_i makes phi(i, i) = 1 absorb the duplicate index),
    # and e_deg_adj / e_adj_deg vanish on the diagonal through A_ii = 0.
    e_gram = e_deg2 - e_deg_adj - e_adj_deg + e_adj2
    return MomentSet(
        e_laplacian=expected_laplacian(topology, partition, node_probs),
        e_gram=e_gram,
        e_deg2=e_deg2,
        e_deg_adj=e_deg_adj,
        e_adj_deg=e_adj_deg,
        e_adj2=e_adj2,
    )


def _assemble(adj_mean, deg_mean, deg2_mean, deg_adj_mean, adj2_mean) -> MomentSet:
    e_lap = np.diag(deg_mean) - adj_mean
    e_deg2 = np.diag(deg2_mean)
    e_adj_deg = deg_adj_mean.T  # (diag(d) A~)^T = A~ diag(d) for symmetric A~
    e_gram = e_deg2 - deg_adj_mean - e_adj_deg + adj2_mean
    return MomentSet(
        e_laplacian=e_lap,
        e_gram=e_gram,
        e_deg2=e_deg2,
        e_deg_adj=deg_adj_mean,
        e_adj_deg=e_adj_deg,
        e_adj2=adj2_mean,
    )


def monte_carlo_moments(
    topology: Topology,
    partition: CollisionFreePartition,
    node_probs,
    samples: int,
    rng: np.random.Generator,
    chunk: int = 8192,
) -> MomentSet:
    """Empirical moments over i.i.d. sampled rounds.

    Consumes the generator exactly like ``scheduling.sample_round``: q
    uniforms per round in subset order (chunked draws fill row-major, so the
    stream is identical value-for-value). Accumulation is vectorized over
    round blocks; ``chunk=1`` falls back to the literal per-round production
    path, which the tests pin the vectorized path against.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    subset_probs = subset_probs_from_node_probs(partition, node_probs)
    owner = partition.owner_array
    adj = topology.adjacency
    n = topology.n
    s_adj = np.zeros((n, n))
    s_deg = np.zeros(n)
    s_deg2 = np.zeros(n)
    s_deg_adj = np.zeros((n, n))
    s_adj2 = np.zeros((n, n))
    done = 0
    while done < samples:
        block = min(chunk, samples - done)
        if block == 1:
            active = rng.random(subset_probs.size) < subset_probs
            a_t, lap = effective_topology(topology, active[owner])
            deg = lap.diagonal()
            s_adj += a_t
            s_deg += deg
            s_deg2 += deg * deg
            s_deg_adj += deg[:, None] * a_t
            s_adj2 += a_t @ a_t
        else:
            draws = rng.random((block, subset_probs.size))
            masks = (draws < subset_probs[None, :])[:, owner].astype(float)
            degs = masks * (masks @ adj)  # row s = effective degrees of round s
            s_adj += adj * (masks.T @ masks)
            s_deg += degs.sum(axis=0)
            s_deg2 += (degs * degs).sum(axis=0)
            s_deg_adj += adj * (degs.T @ masks)
            # third joint moment of masks, T[i, m, j] = sum_s M_si M_sm M_sj
            pairs = (masks[:, :, None] * masks[:, None, :]).reshape(block, n * n)
            triples = (masks.T @ pairs).reshape(n, n, n)
            s_adj2 += np.einsum("imj,im,mj->ij", triples, adj, adj)
        done += block
    inv = 1.0 / samples
    return _assemble(s_adj * inv, s_deg * inv, s_deg2 * inv, s_deg_adj * inv, s_adj2 * inv)


def enumerated_moments(
    topology: Topology, partition: CollisionFreePartition, node_probs
) -> MomentSet:
    """Exact moments by exhaustive enumeration of all 2^q activation patterns.

    Straight-line oracle, deliberately independent of both the closed-form
    code path and the sampling path: each pattern's probability is the plain
    Bernoulli product and the effective topology is rebuilt inline.
    """
    subset_probs = subset_probs_from_node_probs(partition, node_probs)
    q = subset_probs.size
    if q > 20:
        raise ValueError(f"2^{q} activation patterns is too many to enumerate")
    adj = topology.adjacency
    n = topology.n
    s_adj = np.zeros((n, n))
    s_deg = np.zeros(n)
    s_deg2 = np.zeros(n)
    s_deg_adj = np.zeros((n, n))
    s_adj2 = np.zeros((n, n))
    for pattern in range(1 << q):
        weight = 1.0
        for k in range(q):
            weight *= subset_probs[k] if pattern >> k & 1 else 1.0 - subset_probs[k]
        if weight == 0.0:
            continue
        mask = np.array(
            [float(pattern >> partition.subset_of[v] & 1) for v in range(n)]
        )
        a_t = adj * np.outer(mask, mask)
        deg = a_t.sum(axis=1)
        s_adj += weight * a_t
        s_deg += weight * deg
        s_deg2 += weight * deg * deg
        s_deg_adj += weight * deg[:, None] * a_t
        s_adj2 += weight * (a_t @ a_t)
    return _assemble(s_adj, s_deg, s_deg2, s_deg_adj, s_adj2)


def monte_carlo_gram_from_sampler(
    sampler, n: int, samples: int, rng: np.random.Generator
):
    """(E[L~], E[L~^T L~]) estimated from an arbitrary round sampler.

    ``sampler(rng)`` must return an object with an ``effective_laplacian``
    attribute. Used for policies whose correlation structure is not covered
    by the closed forms (e.g. link-based matching schedules).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    s_lap = np.zeros((n, n))
    s_gram = np.zeros((n, n))
    for _ in range(samples):
        lap = sampler(rng).effective_laplacian
        s_lap += lap
        s_gram += lap @ lap
    return s_lap / samples, s_gram / samples
