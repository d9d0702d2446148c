import numpy as np
import pytest

from bass import (
    CollisionFreePartition,
    Topology,
    enumerated_moments,
    expected_laplacian,
    expected_laplacian_gram,
    greedy_partition,
    monte_carlo_moments,
    node_probabilities,
    subset_probs_from_node_probs,
)

from .test_graph import random_connected


def k2():
    return Topology(2, [(0, 1)])


def k2_split():
    return CollisionFreePartition([[0], [1]])


def ring6_setup():
    t = Topology(6, [(i, (i + 1) % 6) for i in range(6)])
    return t, greedy_partition(t)


def random_fixture(rng, n_lo=3, n_hi=10):
    t = random_connected(rng, int(rng.integers(n_lo, n_hi)), extra_edges=2)
    part = greedy_partition(t)
    subset_probs = rng.uniform(0.1, 0.9, part.q)
    return t, part, node_probabilities(subset_probs, part)


def reduced_product_moments(t, part, node_probs):
    """Oracle for valid collision-free partitions.

    Any set of distinct nodes appearing in one contributing term lies in
    pairwise-distinct subsets (adjacent nodes conflict directly; co-neighbors
    conflict through the shared neighbor), so activation indicators are
    independent and the joint moment is the plain product over the distinct
    nodes involved. Straight-line triple loops, no max terms.
    """
    p = np.asarray(node_probs, float)
    adj = t.adjacency
    n = t.n

    def prob(*nodes):
        out = 1.0
        for v in set(nodes):
            out *= p[v]
        return out

    e_lap = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                e_lap[i, j] = -prob(i, j) * adj[i, j]
        e_lap[i, i] = sum(prob(i, m) * adj[i, m] for m in range(n))

    deg2 = np.zeros((n, n))
    deg_adj = np.zeros((n, n))
    adj_deg = np.zeros((n, n))
    adj2 = np.zeros((n, n))
    for i in range(n):
        for m in range(n):
            for kk in range(n):
                deg2[i, i] += prob(i, m, kk) * adj[i, m] * adj[i, kk]
        for j in range(n):
            if i == j:
                adj2[i, i] = sum(prob(i, m) * adj[i, m] for m in range(n))
                continue
            for m in range(n):
                deg_adj[i, j] += prob(i, j, m) * adj[i, j] * adj[i, m]
                adj_deg[i, j] += prob(i, j, m) * adj[i, j] * adj[j, m]
                adj2[i, j] += prob(i, j, m) * adj[i, m] * adj[m, j]
    return e_lap, deg2 - deg_adj - adj_deg + adj2


class TestExpectedLaplacian:
    def test_full_activation_is_exact_laplacian(self):
        t, part = ring6_setup()
        ones = np.ones(t.n)
        assert np.array_equal(expected_laplacian(t, part, ones), t.laplacian())

    def test_k2_half_activation(self):
        e_lap = expected_laplacian(k2(), k2_split(), [0.5, 0.5])
        assert np.allclose(e_lap, 0.25 * np.array([[1, -1], [-1, 1]]), atol=1e-15)

    def test_k2_same_subset(self):
        part = CollisionFreePartition([[0, 1]])  # invalid physically, legal input
        e_lap = expected_laplacian(k2(), part, [0.5, 0.5])
        # perfectly correlated endpoints: the link is on iff the subset is
        assert np.allclose(e_lap, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-15)

    def test_silent_node_zeroes_row_and_column(self):
        t = Topology(3, [(0, 1), (1, 2)])
        part = greedy_partition(t)
        node_p = node_probabilities([0.7, 0.0, 0.5], part)
        e_lap = expected_laplacian(t, part, node_p)
        silent = np.flatnonzero(node_p == 0.0)[0]
        assert np.all(e_lap[silent] == 0)
        assert np.all(e_lap[:, silent] == 0)

    def test_zero_row_sums_and_symmetry(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            t, part, node_p = random_fixture(rng)
            e_lap = expected_laplacian(t, part, node_p)
            assert np.abs(e_lap - e_lap.T).max() < 1e-14
            assert np.abs(e_lap @ np.ones(t.n)).max() < 1e-12

    def test_inconsistent_subset_probs_rejected(self):
        t, part = ring6_setup()
        bad = np.array([0.5, 0.5, 0.5, 0.6, 0.5, 0.5])  # node 3 differs from 0
        with pytest.raises(ValueError):
            expected_laplacian(t, part, bad)


class TestExpectedGram:
    def test_full_activation_is_squared_laplacian(self):
        t, part = ring6_setup()
        ms = expected_laplacian_gram(t, part, np.ones(t.n))
        lap = t.laplacian()
        assert np.allclose(ms.e_gram, lap @ lap, atol=1e-12)

    def test_k2_half_activation_frozen(self):
        # enumeration over the 4 outcomes: only both-on contributes, w.p. 0.25
        ms = expected_laplacian_gram(k2(), k2_split(), [0.5, 0.5])
        assert np.allclose(ms.e_gram, 0.25 * np.array([[2, -2], [-2, 2]]), atol=1e-15)
        assert np.allclose(np.diag(ms.e_adj2), [0.25, 0.25], atol=1e-15)

    def test_single_node_all_zero(self):
        t = Topology(1)
        part = CollisionFreePartition([[0]])
        ms = expected_laplacian_gram(t, part, [0.7])
        for mat in (ms.e_laplacian, ms.e_gram, ms.e_deg2, ms.e_adj2):
            assert np.array_equal(mat, np.zeros((1, 1)))

    def test_decomposition_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            t, part, node_p = random_fixture(rng)
            ms = expected_laplacian_gram(t, part, node_p)
            recomposed = ms.e_deg2 - ms.e_deg_adj - ms.e_adj_deg + ms.e_adj2
            assert np.array_equal(ms.e_gram, recomposed)
            assert np.abs(ms.e_gram - ms.e_gram.T).max() < 1e-12

    def test_gram_is_psd_and_annihilates_ones(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            t, part, node_p = random_fixture(rng)
            ms = expected_laplacian_gram(t, part, node_p)
            eigs = np.linalg.eigvalsh(ms.e_gram)
            assert eigs.min() >= -1e-10
            assert np.abs(ms.e_gram @ np.ones(t.n)).max() < 1e-10

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            t, part, node_p = random_fixture(rng, n_hi=9)
            ms = expected_laplacian_gram(t, part, node_p)
            exact = enumerated_moments(t, part, node_p)
            assert np.abs(ms.e_laplacian - exact.e_laplacian).max() < 1e-12
            assert np.abs(ms.e_gram - exact.e_gram).max() < 1e-12
            assert np.abs(ms.e_deg2 - exact.e_deg2).max() < 1e-12
            assert np.abs(ms.e_deg_adj - exact.e_deg_adj).max() < 1e-12
            assert np.abs(ms.e_adj_deg - exact.e_adj_deg).max() < 1e-12
            assert np.abs(ms.e_adj2 - exact.e_adj2).max() < 1e-12

    def test_matches_independent_product_oracle_on_valid_partitions(self):
        # under a valid partition the correlation terms must reduce to plain
        # probability products; catches mishandled same-subset indicators
        rng = np.random.default_rng(71)
        for _ in range(10):
            t, part, node_p = random_fixture(rng, n_hi=9)
            ms = expected_laplacian_gram(t, part, node_p)
            oracle_lap, oracle_gram = reduced_product_moments(t, part, node_p)
            assert np.abs(ms.e_laplacian - oracle_lap).max() < 1e-12
            assert np.abs(ms.e_gram - oracle_gram).max() < 1e-12


class TestEnumeratedMoments:
    def test_k2_by_hand(self):
        ms = enumerated_moments(k2(), k2_split(), [0.5, 0.5])
        assert np.allclose(ms.e_laplacian, 0.25 * np.array([[1, -1], [-1, 1]]))
        assert np.allclose(ms.e_gram, 0.25 * np.array([[2, -2], [-2, 2]]))

    def test_too_many_subsets_rejected(self):
        t = Topology(30, [(i, i + 1) for i in range(29)])
        part = CollisionFreePartition([[i] for i in range(30)])
        with pytest.raises(ValueError):
            enumerated_moments(t, part, np.full(30, 0.5))


class TestMonteCarloMoments:
    def test_deterministic_when_all_on(self):
        t, part = ring6_setup()
        ms = monte_carlo_moments(t, part, np.ones(t.n), 10, np.random.default_rng(0))
        lap = t.laplacian()
        assert np.array_equal(ms.e_laplacian, lap)
        assert np.allclose(ms.e_gram, lap @ lap, atol=1e-12)

    def test_zero_probabilities_give_zero(self):
        t, part = ring6_setup()
        ms = monte_carlo_moments(t, part, np.zeros(t.n), 10, np.random.default_rng(0))
        assert np.array_equal(ms.e_laplacian, np.zeros((6, 6)))
        assert np.array_equal(ms.e_gram, np.zeros((6, 6)))

    def test_reproducible_given_seed(self):
        t, part = ring6_setup()
        node_p = node_probabilities([0.3, 0.6, 0.9], part)
        a = monte_carlo_moments(t, part, node_p, 500, np.random.default_rng(5))
        b = monte_carlo_moments(t, part, node_p, 500, np.random.default_rng(5))
        assert np.array_equal(a.e_gram, b.e_gram)

    def test_chunked_equals_per_round_production_path(self):
        # the vectorized accumulation must consume the identical uniform
        # stream and produce the same sums as the sample_round-style loop
        rng = np.random.default_rng(79)
        for _ in range(5):
            t, part, node_p = random_fixture(rng, n_hi=9)
            fast = monte_carlo_moments(t, part, node_p, 700, np.random.default_rng(8))
            slow = monte_carlo_moments(
                t, part, node_p, 700, np.random.default_rng(8), chunk=1
            )
            for name in (
                "e_laplacian", "e_gram", "e_deg2", "e_deg_adj", "e_adj_deg", "e_adj2",
            ):
                assert np.abs(getattr(fast, name) - getattr(slow, name)).max() < 1e-10

    def test_close_to_closed_form(self):
        rng = np.random.default_rng(73)
        t, part, node_p = random_fixture(rng, n_lo=6, n_hi=10)
        ms = expected_laplacian_gram(t, part, node_p)
        mc = monte_carlo_moments(t, part, node_p, 40000, np.random.default_rng(99))
        assert np.abs(ms.e_laplacian - mc.e_laplacian).max() < 0.05
        assert np.abs(ms.e_gram - mc.e_gram).max() < 0.15

    def test_requires_positive_samples(self):
        t, part = ring6_setup()
        with pytest.raises(ValueError):
            monte_carlo_moments(t, part, np.ones(6), 0, np.random.default_rng(0))


class TestSubsetProbsFromNodeProbs:
    def test_round_trip(self):
        _, part = ring6_setup()
        subset_p = np.array([0.2, 0.5, 0.8])
        node_p = node_probabilities(subset_p, part)
        assert np.allclose(subset_probs_from_node_probs(part, node_p), subset_p)
