import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bass import (
    CollisionFreePartition,
    Topology,
    dump_partition,
    greedy_partition,
    make_topology,
    path_topology,
    ring_topology,
    star_topology,
)

from .graph_helpers import adjacency, conflict_degrees, random_connected, validate_partition
from .test_graph import neighbors


def set_greedy_partition(t):
    """Oracle: the greedy coloring over a conflict graph of Python sets, base
    edges plus every pair of neighbors of each node."""
    conflict = [set(nb) for nb in neighbors(t)]
    for nbrs in neighbors(t):
        for a in nbrs:
            conflict[a].update(b for b in nbrs if b != a)
    order = sorted(range(t.n), key=lambda v: (-len(conflict[v]), v))
    color = [-1] * t.n
    for v in order:
        used = {color[w] for w in conflict[v] if color[w] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return [[v for v in range(t.n) if color[v] == c] for c in range(max(color) + 1)]


def brute_force_valid(t, subsets):
    """Oracle: the subsets disjointly cover 0..n-1 and no two nodes of one
    subset are adjacent or have a common neighbor, checked pair by pair on
    the dense adjacency."""
    if sorted(v for s in subsets for v in s) != list(range(t.n)):
        return False
    adj = adjacency(t)
    common = adj @ adj
    for s in subsets:
        for a in range(len(s)):
            for b in range(a + 1, len(s)):
                if adj[s[a], s[b]] != 0 or common[s[a], s[b]] != 0:
                    return False
    return True


class TestCollisionFreePartition:
    def test_owner_array_and_subsets(self):
        p = CollisionFreePartition([0, 1, 2, 0, 1, 2])
        assert p.q == 3 and p.n == 6
        assert p.owner_array.tolist() == [0, 1, 2, 0, 1, 2]
        assert p.subsets == ((0, 3), (1, 4), (2, 5))
        with pytest.raises(ValueError):
            p.owner_array[0] = 1

    def test_rejects_gap(self):
        # subset 1 is numbered but holds no node
        with pytest.raises(ValueError, match="none empty"):
            CollisionFreePartition([0, 2, 0])

    def test_rejects_empty_subset(self):
        for owner in ([1, 1, 2], [0, -1], [0, 10**12]):
            with pytest.raises(ValueError, match="numbered 0..q-1 with none empty"):
                CollisionFreePartition(owner)
        for owner in ([], [[0, 1]], [0.0, 1.0], np.array([True, False])):
            with pytest.raises(ValueError, match="1-D array of subset indices"):
                CollisionFreePartition(owner)


class TestGreedyPartition:
    def test_p3_needs_three_slots(self):
        p = greedy_partition(path_topology(3))
        assert p.q == 3
        assert sorted(p.subsets) == [(0,), (1,), (2,)]

    def test_ring6_pairs_antipodal_nodes(self):
        p = greedy_partition(ring_topology(6))
        assert p.q == 3
        assert p.subsets == ((0, 3), (1, 4), (2, 5))

    def test_star_is_fully_sequential(self):
        p = greedy_partition(star_topology(5))
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
            assert p.q <= 1 + conflict_degrees(t).max()

    def test_matches_set_based_coloring(self):
        rng = np.random.default_rng(53)
        graphs = [
            random_connected(rng, int(rng.integers(1, 40)), extra_edges=int(rng.integers(0, 60)))
            for _ in range(40)
        ]
        graphs += [make_topology(spec) for spec in (
            "two-stars(6,6)", "er(100,0.05,3)", "er(400,0.012,1)", "er(2000,0.006,1)"
        )]
        for t in graphs:
            assert [list(s) for s in greedy_partition(t).subsets] == set_greedy_partition(t)

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        t = random_connected(rng, 20, extra_edges=6)
        assert greedy_partition(t).subsets == greedy_partition(t).subsets


class TestValidatePartition:
    def test_ring6_antipodal_is_valid(self):
        assert validate_partition(ring_topology(6), [[0, 3], [1, 4], [2, 5]])

    def test_common_neighbor_invalid(self):
        # 0 and 2 share neighbor 1
        assert not validate_partition(path_topology(3), [[0, 2], [1]])

    def test_uncovered_node_invalid(self):
        assert not validate_partition(path_topology(3), [[0], [1]])
        assert not validate_partition(path_topology(3), CollisionFreePartition([0, 1]))

    def test_overlap_invalid(self):
        # 3 sits in two subsets that are otherwise collision-free
        assert not validate_partition(ring_topology(6), [[0, 3], [1, 4], [2, 5], [3]])

    def test_adjacent_pair_invalid(self):
        assert not validate_partition(path_topology(3), [[0, 1], [2]])

    @settings(derandomize=True, deadline=None, max_examples=120, database=None)
    @given(st.integers(0, 2**16), st.sampled_from(
        ["greedy", "labels", "missing", "overlap", "adjacent", "common"]
    ))
    def test_matches_brute_force_oracle(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        t = random_connected(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
        subsets = [list(s) for s in greedy_partition(t).subsets]
        if kind == "labels":  # any grouping, usually colliding
            labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
            subsets = [[v for v in range(n) if labels[v] == k] for k in set(labels.tolist())]
        elif kind == "missing":
            subsets[int(rng.integers(len(subsets)))].pop()
        elif kind == "overlap":
            subsets[int(rng.integers(len(subsets)))].append(int(rng.integers(n)))
        elif kind in ("adjacent", "common"):  # move one node next to a colliding one
            i, j = t.edge_array[int(rng.integers(len(t.edge_array)))].tolist()
            if kind == "common":
                j = int(rng.choice(neighbors(t)[j]))
            if i != j:
                for s in subsets:
                    if j in s:
                        s.remove(j)
                next(s for s in subsets if i in s).append(j)
        expected = brute_force_valid(t, subsets)
        assert expected or kind != "greedy"
        assert validate_partition(t, subsets) == expected
        if sorted(v for s in subsets for v in s) == list(range(n)):  # as an owner array too
            owner = np.empty(n, dtype=int)
            for k, s in enumerate(s for s in subsets if s):
                owner[s] = k
            assert validate_partition(t, CollisionFreePartition(owner)) == expected

    def test_same_subset_pairs_have_zero_walks(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            t = random_connected(rng, int(rng.integers(3, 20)), extra_edges=3)
            p = greedy_partition(t)
            adj = adjacency(t)
            walks2 = adj @ adj
            for s in p.subsets:
                for a in range(len(s)):
                    for b in range(a + 1, len(s)):
                        assert adj[s[a], s[b]] == 0
                        assert walks2[s[a], s[b]] == 0


class TestDumpFormat:
    def test_round_trip(self):
        p = greedy_partition(ring_topology(6))
        text = dump_partition(p)
        assert text == "0 3\n1 4\n2 5\n"
        owner = [0] * 6
        for k, line in enumerate(text.splitlines()):
            for tok in line.split():
                owner[int(tok)] = k
        assert CollisionFreePartition(owner) == p
