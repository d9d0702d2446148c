import numpy as np
import pytest

from bass import (
    CollisionFreePartition,
    Topology,
    dump_partition,
    greedy_partition,
    validate_partition,
)

from .test_graph import p3, random_connected


def ring6():
    return Topology(6, [(i, (i + 1) % 6) for i in range(6)])


def star5():
    return Topology(5, [(0, i) for i in range(1, 5)])


class TestCollisionFreePartition:
    def test_subset_of(self):
        p = CollisionFreePartition([[0, 3], [1, 4], [2, 5]])
        assert p.q == 3
        assert p.subset_of == (0, 1, 2, 0, 1, 2)

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            CollisionFreePartition([[0], [2]])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            CollisionFreePartition([[0, 1], [1, 2]])

    def test_rejects_empty_subset(self):
        with pytest.raises(ValueError):
            CollisionFreePartition([[0, 1], []])


class TestGreedyPartition:
    def test_p3_needs_three_slots(self):
        p = greedy_partition(p3())
        assert p.q == 3
        assert sorted(p.subsets) == [(0,), (1,), (2,)]

    def test_ring6_pairs_antipodal_nodes(self):
        p = greedy_partition(ring6())
        assert p.q == 3
        assert p.subsets == ((0, 3), (1, 4), (2, 5))

    def test_star_is_fully_sequential(self):
        p = greedy_partition(star5())
        assert p.q == 5
        assert all(len(s) == 1 for s in p.subsets)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            greedy_partition(Topology(3, [(0, 1)]))

    def test_always_valid_and_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            t = random_connected(rng, int(rng.integers(2, 31)), extra_edges=4)
            p = greedy_partition(t)
            assert validate_partition(t, p)
            aux = t.auxiliary_graph()
            max_aux_degree = max(len(nb) for nb in aux.neighbors)
            assert p.q <= 1 + max_aux_degree

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        t = random_connected(rng, 20, extra_edges=6)
        assert greedy_partition(t).subsets == greedy_partition(t).subsets


class TestValidatePartition:
    def test_ring6_antipodal_is_valid(self):
        assert validate_partition(ring6(), [[0, 3], [1, 4], [2, 5]])

    def test_common_neighbor_invalid(self):
        # 0 and 2 share neighbor 1
        assert not validate_partition(p3(), [[0, 2], [1]])

    def test_uncovered_node_invalid(self):
        assert not validate_partition(p3(), [[0], [1]])

    def test_adjacent_pair_invalid(self):
        assert not validate_partition(p3(), [[0, 1], [2]])

    def test_same_subset_pairs_have_zero_walks(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            t = random_connected(rng, int(rng.integers(3, 20)), extra_edges=3)
            p = greedy_partition(t)
            adj = t.adjacency
            walks2 = adj @ adj
            for s in p.subsets:
                for a in range(len(s)):
                    for b in range(a + 1, len(s)):
                        assert adj[s[a], s[b]] == 0
                        assert walks2[s[a], s[b]] == 0


class TestDumpFormat:
    def test_round_trip(self):
        p = greedy_partition(ring6())
        text = dump_partition(p)
        assert text == "0 3\n1 4\n2 5\n"
        parsed = [[int(tok) for tok in line.split()] for line in text.splitlines()]
        assert CollisionFreePartition(parsed) == p
