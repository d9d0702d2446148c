import itertools
import re

import numpy as np
import pytest

from bass import topologies
from bass import (
    Topology,
    er_topology,
    make_topology,
    path_topology,
    ring_topology,
    star_topology,
    two_stars_topology,
)
from bass.graph import _connected

from .graph_helpers import degrees, edge_pairs, save_topology
from .test_graph import neighbors


class TestPresets:
    def test_path(self):
        assert edge_pairs(path_topology(4)) == ((0, 1), (1, 2), (2, 3))

    def test_ring6(self):
        assert ring_topology(6) == Topology(6, [(i, (i + 1) % 6) for i in range(6)])

    def test_star(self):
        t = star_topology(5)
        assert degrees(t)[0] == 4
        assert all(degrees(t)[i] == 1 for i in range(1, 5))

    def test_two_stars_4_4(self):
        t = two_stars_topology(4, 4)
        assert t.n == 8
        assert (0, 1) in edge_pairs(t)
        assert neighbors(t)[0] == [1, 2, 3, 4]
        assert neighbors(t)[1] == [0, 5, 6, 7]
        for leaf in range(2, 8):
            assert degrees(t)[leaf] == 1

    def test_er_deterministic_and_connected(self):
        a = er_topology(10, 0.4, seed=7)
        b = er_topology(10, 0.4, seed=7)
        assert a == b
        assert a.is_connected()

    @pytest.mark.parametrize(
        "n, p, seed", [(10, 0.3, 7), (100, 0.05, 3), (12, 0.2, 1), (20, 0.12, 1)]
    )
    def test_er_matches_per_pair_draws(self, n, p, seed):
        # one uniform per pair in lexicographic order, resampled until connected
        rng = np.random.default_rng(seed)
        for attempt in range(100):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            reference = Topology(n, pairs)
            if reference.is_connected():
                break
        if seed == 1:
            assert attempt > 0  # er(12, 0.2, 1) needs 1 resample, er(20, 0.12, 1) 10
        assert edge_pairs(er_topology(n, p, seed)) == edge_pairs(reference)

    def test_er_draw_blocks_keep_the_stream(self, monkeypatch):
        # 40 uniforms per block: one row per block at n = 100, several rows
        # per block below n = 40
        cases = [(10, 0.3, 7), (100, 0.05, 3), (20, 0.12, 1), (1, 0.5, 0)]
        whole = [er_topology(*case) for case in cases]
        monkeypatch.setattr(topologies, "_DRAW_BLOCK", 40)
        assert [er_topology(*case) for case in cases] == whole

    def test_er_isolated_node_pretest_keeps_every_draw(self):
        # The loop without the isolated-node pretest, as an oracle: the same
        # graph, or the same failure, and the pretest skips no uniforms.
        def reference(n, p, seed, max_tries=100):
            rng = np.random.default_rng(seed)
            step = max(1, topologies._DRAW_BLOCK // n)
            for _ in range(max_tries):
                blocks = []
                for lo in range(0, n, step):
                    counts = n - 1 - np.arange(lo, min(n, lo + step))
                    starts = np.cumsum(counts) - counts
                    hits = np.flatnonzero(rng.random(counts.sum()) < p)
                    row = np.searchsorted(starts, hits, side="right") - 1
                    blocks.append(np.column_stack([lo + row, lo + row + 1 + hits - starts[row]]))
                edges = np.concatenate(blocks)
                if _connected(n, edges):
                    return Topology(n, edges)
            return None

        for n in (1, 2, 3, 12, 60, 400):
            for p in (0.0, 0.012, 0.1, 0.5, 1.0):
                for seed in (0, 1, 7):
                    expected = reference(n, p, seed)
                    if expected is None:
                        with pytest.raises(ValueError, match="no connected graph"):
                            er_topology(n, p, seed)
                    else:
                        assert er_topology(n, p, seed) == expected, (n, p, seed)

    @pytest.mark.parametrize("block", [40, 2**15])
    def test_er_skips_the_rest_of_a_failed_attempt(self, monkeypatch, block):
        # The full-draw loop as the oracle: the same graph or the same
        # failure, the generator left where that loop leaves it, and an
        # attempt with an isolated node stops drawing at that node's block.
        class Counting(np.random.Generator):
            def random(self, size=None, *args, **kwargs):
                self.drawn += int(np.prod(size))
                return super().random(size, *args, **kwargs)

        made = []

        def counting_rng(seed):
            made.append(Counting(np.random.PCG64(seed)))
            made[-1].drawn = 0
            return made[-1]

        def full_draws(n, p, seed):
            rng = np.random.default_rng(seed)
            for _ in range(topologies._MAX_TRIES):
                u = rng.random(n * (n - 1) // 2)
                i, j = np.triu_indices(n, 1)
                edges = np.column_stack([i, j])[u < p]
                if _connected(n, edges):
                    return Topology(n, edges), rng.bit_generator.state
            return None, rng.bit_generator.state

        monkeypatch.setattr(topologies, "_DRAW_BLOCK", block)
        monkeypatch.setattr(topologies.np.random, "default_rng", counting_rng)
        cases = [(1, 0.0), (1, 0.5), (2, 0.0), (2, 1.0), (3, 0.5), (7, 0.3), (12, 0.2),
                 (40, 0.08), (100, 0.05), (120, 1.0), (400, 0.012), (400, 0.0)]
        for (n, p), seed in itertools.product(cases, (0, 1, 7, 23)):
            expected, state = full_draws(n, p, seed)
            if expected is None:
                with pytest.raises(ValueError, match="no connected graph in 100 draws"):
                    er_topology(n, p, seed)
            else:
                assert er_topology(n, p, seed) == expected, (n, p, seed)
            assert made[-1].bit_generator.state == state, (n, p, seed)
        # er(400, 0.012, 1) takes 24 attempts, and draws 55 % of their
        # uniforms in blocks of 81 rows, 40 % row by row
        made.clear()
        er_topology(400, 0.012, 1)
        assert made[-1].drawn < (0.6 if block > 400 else 0.45) * 24 * (400 * 399 // 2)

    @pytest.mark.parametrize("n", [0, -3])
    def test_er_needs_a_node(self, n):
        with pytest.raises(ValueError, match="node count"):
            er_topology(n, 0.5, seed=1)

    def test_er_sparse_gives_up(self):
        with pytest.raises(ValueError, match="larger p"):
            er_topology(10, 0.05, seed=1)


class TestMakeTopology:
    def test_preset_strings(self):
        assert make_topology("ring(6)") == ring_topology(6)
        assert make_topology("two-stars(4,4)") == two_stars_topology(4, 4)
        assert make_topology("two_stars(4, 4)") == two_stars_topology(4, 4)
        assert make_topology("er(10,0.4,7)") == er_topology(10, 0.4, 7)

    def test_file_path(self, tmp_path):
        t = path_topology(5)
        path = tmp_path / "t.txt"
        save_topology(t, path)
        assert make_topology(str(path)) == t

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            make_topology("torus(3,3)")

    def test_missing_file(self):
        with pytest.raises(ValueError):
            make_topology("no/such/file.txt")

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            make_topology("ring(6,7)")

    @pytest.mark.parametrize("spec, message", [
        ("ring(1.5)", "preset 'ring': n must be an integer, got '1.5'"),
        ("two-stars(3,x)", "preset 'two-stars': n2 must be an integer, got 'x'"),
        ("er(10,x,1)", "preset 'er': p must be a real number, got 'x'"),
        ("er(10,0.3,-1)", "preset 'er': seed must be nonnegative, got -1"),
        ("er(10,nan,1)", "preset 'er': edge probability p must lie in [0, 1], got nan"),
        ("er(0,0.3,1)", "preset 'er': node count n must be >= 1, got 0"),
        ("ring(2)", "preset 'ring': a ring needs node count n >= 3, got 2"),
        ("star(1)", "preset 'star': a star needs node count n >= 2, got 1"),
        ("two-stars(3,0)", "preset 'two-stars': each star needs at least its center, got n1 = 3, n2 = 0"),
    ])
    def test_bad_argument_names_the_preset_and_the_argument(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_topology(spec)
