import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bass import (
    Topology,
    betweenness_centrality,
    load_topology,
    make_topology,
)
from bass import graph
from bass.graph import _conflicts, _incident_pairs, _pair_cells, _pair_gram
from bass.topologies import path_topology, ring_topology, star_topology

from .graph_helpers import degrees, edge_pairs, random_connected, save_topology


def neighbors(t):
    """Ascending neighbor lists of every node, read off ``edge_array``."""
    nbrs = [[] for _ in range(t.n)]
    for i, j in t.edge_array.tolist():
        nbrs[i].append(j)
        nbrs[j].append(i)
    return [sorted(v) for v in nbrs]


def conflict_edges(t):
    """The conflict graph's edges (i, j), i < j, in ``graph._conflicts``'
    CSR order."""
    indptr, nbr = _conflicts(t)
    tail = np.repeat(np.arange(t.n), np.diff(indptr))
    return [(i, j) for i, j in zip(tail.tolist(), nbr.tolist()) if i < j]


def brandes_betweenness(t):
    """Oracle: one pure-Python BFS and back-propagation per source (Brandes),
    normalized like betweenness_centrality."""
    n = t.n
    nbrs = neighbors(t)
    raw = np.zeros(n)
    for source in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        preds = [[] for _ in range(n)]
        dist[source] = 0
        sigma[source] = 1.0
        order = []
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                raw[w] += delta[w]
    total = raw.sum()
    if total <= 0.0:
        return np.full(n, 1.0 / n)
    return raw / total


@st.composite
def connected_graphs(draw):
    """Random connected graphs, trees, rings, stars and complete graphs,
    n = 1 and n = 2 included."""
    kind = draw(st.sampled_from(["random", "tree", "ring", "star", "complete"]))
    if kind == "ring":
        return ring_topology(draw(st.integers(3, 40)))
    if kind == "star":
        return star_topology(draw(st.integers(2, 30)))
    if kind == "complete":
        n = draw(st.integers(1, 12))
        return Topology(n, itertools.combinations(range(n), 2))
    n = draw(st.integers(1, 40))
    extra = 0 if kind == "tree" else draw(st.integers(0, 2 * n))
    return random_connected(np.random.default_rng(draw(st.integers(0, 2**16))), n, extra)


def brute_force_betweenness(t):
    """Oracle: enumerate every shortest path explicitly (small n only).

    For each ordered pair (s, v) counts sigma_sv via all-pairs BFS distances,
    then credits interior nodes with sigma_s_via / sigma_st summed over all
    ordered pairs.
    """
    n = t.n
    nbrs = neighbors(t)
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            nxt = []
            for v in frontier:
                for w in nbrs[v]:
                    if dist[s, w] == np.inf:
                        dist[s, w] = d + 1
                        nxt.append(w)
            frontier = nxt
            d += 1

    def all_shortest_paths(s, targ):
        if s == targ:
            return [[s]]
        paths = []
        for prev in nbrs[targ]:
            if dist[s, prev] == dist[s, targ] - 1:
                paths.extend(p + [targ] for p in all_shortest_paths(s, prev))
        return paths

    raw = np.zeros(n)
    for s in range(n):
        for targ in range(n):
            if s == targ:
                continue
            paths = all_shortest_paths(s, targ)
            for p in paths:
                for interior in p[1:-1]:
                    raw[interior] += 1.0 / len(paths)
    return raw


class TestTopology:
    def test_p3_degrees(self):
        t = path_topology(3)
        assert list(degrees(t)) == [1, 2, 1]
        assert np.array_equal(degrees(Topology(3)), np.zeros(3))
        assert t.edge_array.tolist() == [[0, 1], [1, 2]]

    def test_symmetric_pair_dedup(self):
        t = Topology(2, [(0, 1), (1, 0)])
        assert edge_pairs(t) == ((0, 1),)

    def test_out_of_range_endpoint(self):
        # the first offending edge in input order is named; malformed rows
        # (non-integral endpoints, rows that are not pairs) fail the same way
        cases = [
            ([(0, 3)], r"edge \(0, 3\) out of range for n=3"),
            ([(0, 1), (-1, 2), (0, 5)], r"edge \(-1, 2\) out of range for n=3"),
            (np.array([[2, 1], [0, 4]]), r"edge \(0, 4\) out of range for n=3"),
            ([(0.7, 1.9)], r"edge \(0.7, 1.9\) has a non-integer endpoint"),
            ([(0, 1), (1.0, 2.5), (0, 3)], r"edge \(1.0, 2.5\) has a non-integer endpoint"),
            ([(0, float("nan"))], r"non-integer endpoint"),
            ([(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair of node indices"),
            ([(0, 1), (1,)], r"edge \(1,\) is not a pair of node indices"),
            ([(0, "a")], r"edge \(0, 'a'\) is not a pair of node indices"),
            ([(0, None)], r"edge \(0, None\) is not a pair of node indices"),
            ((0, 1), r"edge 0 is not a pair of node indices"),
        ]
        for edges, message in cases:
            with pytest.raises(ValueError, match=message):
                Topology(3, edges)

    def test_self_loop_rejected(self):
        for edges in ([(1, 1)], [(0, 1), (1, 1), (0, 3)], iter([(2, 0), (1.0, 1.0)])):
            with pytest.raises(ValueError, match="self-loop at node 1"):
                Topology(3, edges)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None, 0, -2, np.float64(3)])
    def test_node_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="^node count must"):
            Topology(n)

    @pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_integer_node_counts_accepted(self, n):
        t = Topology(n, [(0, 1), (1, 2)])
        assert t.n == 3 and type(t.n) is int
        assert t == path_topology(3)

    def test_edge_array_is_readonly_and_sorted(self):
        t = Topology(4, [(3, 1), (0, 2), (1, 0)])
        assert t.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]
        with pytest.raises(ValueError):
            t.edge_array[0, 0] = 3
        assert Topology(2).edge_array.shape == (0, 2)

    def test_construction_builds_no_dense_matrix(self):
        t = make_topology("er(400,0.012,1)")
        edges = edge_pairs(t)
        tracemalloc.start()
        try:
            Topology(t.n, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * t.n**2 * 8

    def test_equality_and_hash(self):
        assert path_topology(3) == Topology(3, [(2, 1), (1, 0)])
        assert hash(path_topology(3)) == hash(Topology(3, [(1, 2), (0, 1)]))
        assert path_topology(3) != Topology(4, [(0, 1), (1, 2)])
        assert path_topology(3) != Topology(3, [(0, 1), (0, 2)])

    @settings(derandomize=True, deadline=None, max_examples=80, database=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=3 * n),
        st.sampled_from(["list", "generator", "array"]),
    )))
    def test_matches_set_based_construction(self, case):
        # duplicates, reversed pairs and isolated nodes, in any input form
        n, pairs, form = case
        oracle = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        given_edges = {"list": pairs, "generator": (e for e in pairs),
                       "array": np.array(pairs, dtype=int).reshape(-1, 2)}[form]
        t = Topology(n, given_edges)
        assert t.edge_array.tolist() == [list(e) for e in oracle]
        assert edge_pairs(t) == tuple(oracle)
        assert t == Topology(n, oracle)


class TestIncidentPairs:
    @pytest.mark.parametrize("n,extra", [(1, 0), (2, 0), (7, 3), (12, 9)])
    def test_every_pair_of_edges_meeting_at_a_node(self, n, extra):
        t = random_connected(np.random.default_rng(n), n, extra_edges=extra)
        k, a, b, e, f = _incident_pairs(t)
        pairs = edge_pairs(t)
        expected = [
            (v, x, y, pairs.index(tuple(sorted((v, x)))), pairs.index(tuple(sorted((v, y)))))
            for v, nbrs in enumerate(neighbors(t)) for x in nbrs for y in nbrs
        ]
        assert list(zip(*(arr.tolist() for arr in (k, a, b, e, f)))) == expected
        assert k.size == (degrees(t)**2).sum()

    def test_scatter_sums_edge_laplacian_products(self):
        # sum over incident pairs of w_ef L_e L_f; with unit weights, L^2
        rng = np.random.default_rng(17)
        t = random_connected(rng, 10, extra_edges=6)
        lap = t.laplacian()
        assert np.array_equal(_pair_gram(t, lambda e, f: np.ones(e.size)), lap @ lap)
        pair_w = rng.uniform(0.0, 1.0, (len(t.edge_array),) * 2)
        pair_w += pair_w.T
        laps = [t.laplacian(np.arange(len(t.edge_array)) == g) for g in range(len(t.edge_array))]
        expected = sum(pair_w[g, h] * laps[g] @ laps[h]
                       for g in range(len(t.edge_array)) for h in range(len(t.edge_array)))
        got = _pair_gram(t, lambda e, f: pair_w[e, f])
        assert np.allclose(got, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("block", [1, 16, 50, 2**15])
    def test_cells_sum_as_one_scatter_onto_n_by_n(self, monkeypatch, block):
        # Blocks of one row, of a few rows, and one block of every row: each
        # cell sums its terms in the order of one np.bincount of all pairs
        # onto the n x n array, -0.0 weights and isolated nodes included, and
        # the cells are exactly the entries it scatters to.
        monkeypatch.setattr(graph, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(19)
        cases = [Topology(1, []), Topology(6, [(0, 1), (1, 2), (2, 3)])]
        cases += [random_connected(rng, n, extra_edges=x) for n, x in ((2, 0), (9, 5), (30, 40), (60, 20))]
        for t in cases:
            n, m = t.n, len(t.edge_array)
            pair_w = rng.uniform(-1.0, 1.0, (m, m))
            pair_w[rng.random((m, m)) < 0.2] = -0.0
            k, a, b, e, f = _incident_pairs(t)
            w = pair_w[e, f]
            keys = np.concatenate([k * n + b, a * n + k, a * n + b])
            flat = np.bincount(keys, np.concatenate([-w, -w, w]), n * n)
            flat[:: n + 1] += np.bincount(k, w, n)
            cells, values = _pair_cells(t, lambda e, f: pair_w[e, f])
            assert np.array_equal(cells, np.unique(keys)), n
            assert np.array_equal(values, flat[cells]), n
            assert np.array_equal(np.signbit(values), np.signbit(flat[cells])), n


class TestLaplacian:
    def test_p3_matrix(self):
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(path_topology(3).laplacian(), expected)

    def test_single_edge(self):
        t = path_topology(2)
        assert np.array_equal(t.laplacian(), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_p3_eigenvalues(self):
        eig = np.linalg.eigvalsh(path_topology(3).laplacian())
        assert np.allclose(eig, [0.0, 1.0, 3.0], atol=1e-12)

    def test_weighted_edges(self):
        # sum_e w_e (u_i - u_j)(u_i - u_j)^T, one term per row of edge_array
        rng = np.random.default_rng(5)
        t = random_connected(rng, 9, extra_edges=4)
        weights = rng.uniform(0.0, 2.0, len(t.edge_array))
        expected = np.zeros((t.n, t.n))
        for w, (i, j) in zip(weights, edge_pairs(t)):
            u = np.zeros(t.n)
            u[i], u[j] = 1.0, -1.0
            expected += w * np.outer(u, u)
        assert np.allclose(t.laplacian(weights), expected, rtol=0.0, atol=1e-14)

    def test_edge_mask_keeps_the_masked_edges(self):
        t = Topology(4, [(0, 1), (1, 2), (2, 3)])
        kept = Topology(4, [(0, 1), (2, 3)])
        assert np.array_equal(t.laplacian(np.array([True, False, True])), kept.laplacian())
        assert np.array_equal(t.laplacian(np.zeros(3, dtype=bool)), np.zeros((4, 4)))

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ValueError):
            path_topology(3).laplacian(np.ones(3))

    def test_zero_row_sums_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = random_connected(rng, int(rng.integers(2, 12)))
            assert np.array_equal(t.laplacian().sum(axis=1), np.zeros(t.n))


class TestConnectivity:
    def test_p3_connected(self):
        assert path_topology(3).is_connected()

    def test_isolated_node(self):
        assert not Topology(3, [(0, 1)]).is_connected()

    def test_single_node(self):
        assert Topology(1).is_connected()

    def test_matches_breadth_first_search(self):
        def bfs_connected(t):
            nbrs = neighbors(t)
            seen, frontier = {0}, [0]
            while frontier:
                frontier = [w for v in frontier for w in nbrs[v] if w not in seen]
                seen.update(frontier)
            return len(seen) == t.n

        rng = np.random.default_rng(59)
        verdicts = set()
        for _ in range(300):
            n = int(rng.integers(1, 16))
            pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < rng.uniform(0.05, 0.5)]
            t = Topology(n, pairs)
            verdicts.add(t.is_connected())
            assert t.is_connected() == bfs_connected(t), edge_pairs(t)
        assert verdicts == {True, False}


class TestAuxiliaryGraph:
    def enumerate_conflicts(self, t):
        """Oracle: pairs that are adjacent or share a common neighbor."""
        pairs = set(edge_pairs(t))
        nbrs = neighbors(t)
        for i, j in itertools.combinations(range(t.n), 2):
            if set(nbrs[i]) & set(nbrs[j]):
                pairs.add((i, j))
        return pairs

    def test_p3_becomes_triangle(self):
        aux = conflict_edges(path_topology(3))
        assert set(aux) == self.enumerate_conflicts(path_topology(3))
        assert aux == [(0, 1), (0, 2), (1, 2)]

    def test_star_becomes_complete(self):
        star = star_topology(5)
        aux = conflict_edges(star)
        assert set(aux) == {
            (i, j) for i in range(5) for j in range(i + 1, 5)
        }

    def test_ring6_chords(self):
        ring = ring_topology(6)
        aux = conflict_edges(ring)
        assert set(aux) == self.enumerate_conflicts(ring)
        # distance-2 chords appear, antipodal pairs stay non-adjacent
        assert (0, 2) in aux
        assert (0, 3) not in aux

    def test_monotone_and_disjoint_neighborhoods(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = random_connected(rng, int(rng.integers(3, 14)), extra_edges=3)
            aux_set = set(conflict_edges(t))
            assert aux_set >= set(edge_pairs(t))
            nbrs = neighbors(t)
            for i, j in itertools.combinations(range(t.n), 2):
                if (i, j) not in aux_set:
                    assert not set(nbrs[i]) & set(nbrs[j])


class TestBetweenness:
    def test_p3(self):
        assert np.allclose(betweenness_centrality(path_topology(3)), [0.0, 1.0, 0.0])

    def test_ring6_uniform(self):
        ring = ring_topology(6)
        assert np.allclose(betweenness_centrality(ring), np.full(6, 1 / 6))

    def test_k4_uniform_fallback(self):
        k4 = Topology(4, itertools.combinations(range(4), 2))
        assert np.allclose(betweenness_centrality(k4), np.full(4, 0.25))

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            betweenness_centrality(Topology(3, [(0, 1)]))

    def test_probability_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            t = random_connected(rng, int(rng.integers(2, 16)), extra_edges=3)
            b = betweenness_centrality(t)
            assert np.all(b >= 0)
            assert abs(b.sum() - 1.0) < 1e-12

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = random_connected(rng, int(rng.integers(3, 9)), extra_edges=2)
            raw = brute_force_betweenness(t)
            expected = raw / raw.sum() if raw.sum() > 0 else np.full(t.n, 1 / t.n)
            assert np.allclose(betweenness_centrality(t), expected, atol=1e-9)

    def test_tree_raw_sum_equals_pair_traversals(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(3, 9))
            t = random_connected(rng, n, extra_edges=0)
            raw = brute_force_betweenness(t)
            b = betweenness_centrality(t)
            # on a tree the unique path makes credits integral
            assert np.allclose(b * raw.sum(), raw, atol=1e-9)
            # raw total = number of ordered (s, t) traversals through an
            # interior vertex, counted directly on the unique paths
            nbrs = neighbors(t)
            dist = np.full((n, n), np.inf)
            for s in range(n):
                dist[s, s] = 0
                frontier, d = [s], 0
                while frontier:
                    nxt = []
                    for v in frontier:
                        for w in nbrs[v]:
                            if dist[s, w] == np.inf:
                                dist[s, w] = d + 1
                                nxt.append(w)
                    frontier, d = nxt, d + 1
            traversals = sum(
                int(dist[s, v] + dist[v, targ] == dist[s, targ])
                for s in range(n)
                for targ in range(n)
                for v in range(n)
                if s != targ and v != s and v != targ
            )
            assert raw.sum() == pytest.approx(traversals, abs=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(connected_graphs())
    def test_matches_per_source_brandes(self, t):
        np.testing.assert_allclose(
            betweenness_centrality(t), brandes_betweenness(t), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("spec", ["two-stars(6,6)", "ring(200)"])
    def test_bit_identical_to_per_source_brandes(self, spec):
        # every path count and credit here is a dyadic rational, so no
        # summation order can round differently
        t = make_topology(spec)
        assert np.array_equal(betweenness_centrality(t), brandes_betweenness(t))

    def test_result_is_readonly_and_cached_per_topology(self):
        t = make_topology("er(30,0.2,1)")
        assert np.array_equal(t.betweenness, betweenness_centrality(t))
        assert t.betweenness is t.betweenness
        for result in (t.betweenness, betweenness_centrality(path_topology(3))):
            with pytest.raises(ValueError):
                result[0] = 1.0

    def test_er400_peak_memory_below_one_matrix(self):
        t = make_topology("er(400,0.012,1)")
        tracemalloc.start()
        try:
            betweenness_centrality(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.n**2 * 8

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        t = random_connected(rng, 9, extra_edges=3)
        perm = rng.permutation(9)
        relabeled = Topology(9, [(perm[i], perm[j]) for i, j in edge_pairs(t)])
        b = betweenness_centrality(t)
        rb = betweenness_centrality(relabeled)
        assert np.allclose(rb[perm], b, atol=1e-12)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        t = random_connected(rng, 10, extra_edges=4)
        path = tmp_path / "graph.txt"
        save_topology(t, path)
        assert load_topology(path) == t

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a path\n3\n\n0 1\n# middle\n1 2\n")
        assert load_topology(path) == path_topology(3)

    def test_malformed_line(self, tmp_path):
        # the file and the line number are named
        path = tmp_path / "bad.txt"
        cases = [
            ("3\n0 1 2\n", r"bad.txt:2: malformed line '0 1 2'"),
            ("# header\n3\n\n0 1\n1 x\n", r"bad.txt:5: non-integer token in line '1 x'"),
            ("3\n0 1.5\n", r"bad.txt:2: non-integer token"),
            ("three\n0 1\n", r"bad.txt:1: non-integer token in line 'three'"),
            ("3 4\n0 1\n", r"bad.txt:1: malformed line '3 4'"),
        ]
        for text, message in cases:
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                load_topology(path)
