import itertools
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bass import (
    CompactObjective,
    SchedulingPolicy,
    SpectralObjective,
    Topology,
    betweenness_centrality,
    closed_form_moments,
    expected_laplacian_gram,
    full_comm_policy,
    greedy_partition,
    make_topology,
    matcha_policy,
    monte_carlo_moments,
    node_probabilities,
    optimize_epsilon,
    sample_round,
    solve_probabilities,
    subset_betweenness,
)
from bass import experiment, mixing
from bass.experiment import ExperimentConfig
from bass.topologies import (
    er_topology,
    path_topology,
    ring_topology,
    star_topology,
    two_stars_topology,
)

from .graph_helpers import adjacency, random_connected
from .test_acceptance import c03_objectives


def full_comm_objective(t):
    part = greedy_partition(t)
    return expected_laplacian_gram(t, part, np.ones(t.n))


def random_objective(rng, n_lo=4, n_hi=12):
    t = random_connected(rng, int(rng.integers(n_lo, n_hi)), extra_edges=3)
    part = greedy_partition(t)
    node_p = node_probabilities(rng.uniform(0.15, 0.95, part.q), part)
    return expected_laplacian_gram(t, part, node_p), t


def grid_minimum(obj, hi, points=10_001):
    values = [obj.value(e) for e in np.linspace(0.0, hi, points)]
    return min(values)


class TestObjectiveValue:
    def test_eps_zero_is_one(self):
        obj = full_comm_objective(path_topology(3))
        assert obj.value(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_p3_full_comm_at_half(self):
        # Laplacian eigenvalues {0, 1, 3}: max((1-.5)^2, (1-1.5)^2) = 0.25
        obj = full_comm_objective(path_topology(3))
        assert obj.value(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_k2_full_comm_at_one(self):
        obj = full_comm_objective(path_topology(2))
        assert obj.value(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_eps_rejected(self):
        obj = full_comm_objective(path_topology(3))
        with pytest.raises(ValueError):
            obj.value(-0.1)

    def test_asymmetric_input_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            SpectralObjective(bad, np.eye(2))
        # one stray entry in the last row of tiles, then one above the
        # diagonal in an off-diagonal tile
        for stray in ((250, 10), (10, 250)):
            big = np.eye(300)
            big[stray] = 1e-6
            with pytest.raises(ValueError, match="e_gram is not symmetric"):
                SpectralObjective(np.eye(300), big)

    def test_non_finite_input_rejected(self):
        # NaN compares False against any bound, so it must be caught on its
        # own before the eigensolver sees it
        with pytest.raises(ValueError, match="e_laplacian has non-finite entries"):
            SpectralObjective(np.full((3, 3), np.nan), np.eye(3))
        big = np.eye(300)
        big[250, 10] = big[10, 250] = np.inf
        with pytest.raises(ValueError, match="e_gram has non-finite entries"):
            SpectralObjective(np.eye(300), big)

    def test_value_is_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            obj, _ = random_objective(rng)
            for eps in np.linspace(0.0, 1.0, 7):
                assert obj.value(eps) >= -1e-10

    def test_contraction_matrix_is_psd(self):
        # E[W^2] - J averages (W - J)^2 over realizations, so its smallest
        # eigenvalue must be nonnegative at any eps
        rng = np.random.default_rng(31)
        for _ in range(6):
            obj, _ = random_objective(rng)
            for eps in (0.0, 0.2, 0.7):
                mat = (
                    np.eye(obj.n)
                    - 2 * eps * obj.e_laplacian
                    + eps * eps * obj.e_gram
                    - np.full((obj.n, obj.n), 1.0 / obj.n)
                )
                assert np.linalg.eigvalsh(mat)[0] >= -1e-10

    def test_convexity_witness(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            obj, _ = random_objective(rng)
            e1, e2 = sorted(rng.uniform(0.0, 1.5, 2))
            mid = obj.value(0.5 * (e1 + e2))
            assert mid <= 0.5 * (obj.value(e1) + obj.value(e2)) + 1e-9


def oracle_minimum(obj):
    """Dense oracle for min s: golden section on eigvalsh over a bracket
    doubled until the minimum is inside, to an eps width of 1e-11."""
    hi = 2.0 / np.linalg.eigvalsh(obj.e_laplacian)[-1]
    while obj.value(hi) <= obj.value(0.5 * hi):
        hi *= 2.0
    lo, inv_phi = 0.0, (np.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-11:
        c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        if obj.value(c) < obj.value(d):
            hi = d
        else:
            lo = c
    return obj.value(0.5 * (lo + hi))


def grid_range(obj, res):
    """Past 2 / lambda_max(E[L~]) and twice eps*: never narrower than the
    bracket the search used to start from."""
    return max(2.0 / np.linalg.eigvalsh(obj.e_laplacian)[-1], 2.0 * res.epsilon)


def assert_certified(obj, res):
    assert -1e-12 <= res.value - res.lower <= 1e-12
    assert obj.value(res.epsilon) == pytest.approx(res.value, abs=1e-12)


def subset_objective(t, probs=None, seed=0):
    part = greedy_partition(t)
    if probs is None:
        probs = np.random.default_rng(seed).uniform(0.05, 1.0, part.q)
    return expected_laplacian_gram(t, part, node_probabilities(probs, part))


class TestOptimizeEpsilon:
    def test_p3_full_comm(self):
        res = optimize_epsilon(full_comm_objective(path_topology(3)))
        assert res.epsilon == pytest.approx(0.5, abs=1e-4)
        assert res.value == pytest.approx(0.25, abs=1e-6)
        assert not res.degenerate

    def test_k2_exact_averaging(self):
        res = optimize_epsilon(full_comm_objective(path_topology(2)))
        assert res.epsilon == pytest.approx(0.5, abs=1e-4)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_degenerate_no_communication(self):
        obj = SpectralObjective(np.zeros((3, 3)), np.zeros((3, 3)))
        res = optimize_epsilon(obj)
        assert res.degenerate
        assert res.epsilon == 0.0
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.lower == res.value
        assert res.evaluations == 1

    def test_deterministic_case_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            t = random_connected(rng, int(rng.integers(4, 12)), extra_edges=3)
            res = optimize_epsilon(full_comm_objective(t))
            eigs = np.linalg.eigvalsh(t.laplacian())
            expected = 2.0 / (eigs[1] + eigs[-1])
            assert res.epsilon == pytest.approx(expected, abs=1e-4)

    def test_matches_grid_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            obj, _ = random_objective(rng)
            res = optimize_epsilon(obj)
            grid_min = grid_minimum(obj, grid_range(obj, res), points=2001)
            assert res.value <= grid_min + 1e-5
            assert res.lower <= grid_min + 1e-12
            assert res.value - res.lower <= 1e-12

    def test_invalid_tolerance(self):
        for tol in (0.0, -1e-12, np.nan, np.inf):
            with pytest.raises(ValueError, match="^tol must be positive and finite$"):
                optimize_epsilon(full_comm_objective(path_topology(3)), tol=tol)

    def test_small_graphs_need_two_evaluations(self, monkeypatch):
        # up to 41 nodes the Ritz model is s itself, and its second point is
        # certified by a Cholesky factor as above 41 nodes; every other call
        # is one of the model's (n - 1) x (n - 1) eigenproblems
        rng = np.random.default_rng(19)
        calls = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            f = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda a, f=f, name=name: calls.append((name, a.shape)) or f(a)
            )
        for n in (3, 12, 41):
            obj = subset_objective(random_connected(rng, n, extra_edges=n), seed=n)
            calls.clear()
            assert optimize_epsilon(obj).evaluations == 2
            dense = [name for name, shape in calls if shape != (n - 1, n - 1)]
            assert dense == ["eigh", "cholesky"]

    def test_growing_basis_needs_few_evaluations(self, monkeypatch):
        # the bass policy of the large-er benchmark: golden section needed 45,
        # a dense spectrum at every model point 5, and a spectrum at the
        # first point only 2 (that spectrum and the certificate); a Lanczos
        # run takes the first point, so the certificate is the one dense
        # factorization, and no eigensolver call sees an n x n matrix
        # (tracemalloc cannot see LAPACK's copy, so the calls are counted)
        t = er_topology(400, 0.012, 1)
        part = greedy_partition(t)
        scores = subset_betweenness(betweenness_centrality(t), part)
        obj = subset_objective(t, solve_probabilities(scores, 0.5 * part.q, 0.01))
        eigvalsh, eigh, shapes = np.linalg.eigvalsh, np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        res = optimize_epsilon(obj)
        monkeypatch.undo()
        assert shapes and (t.n, t.n) not in shapes
        assert res.evaluations == 1
        assert_certified(obj, res)

    @pytest.mark.parametrize(
        "topology, tol, first",
        [("er(100,0.05,3)", 1e-12, ["eigh"]), ("er(400,0.012,1)", 1e-14, ["eigvalsh", "lanczos"])],
    )
    def test_first_point_is_a_spectrum_up_to_the_crossover(self, monkeypatch, topology, tol, first):
        # up to _LANCZOS_NODES nodes (the sweep's graph) the first point is
        # eigh's spectrum and vectors; above, where the certificate does not
        # fit inside tol, it is eigvalsh's spectrum, and a Lanczos run gives
        # the empty basis its vectors. Every later spectrum is of the first
        # kind, and there is no other run.
        t = make_topology(topology)
        part = greedy_partition(t)
        scores = subset_betweenness(t.betweenness, part)
        obj = subset_objective(t, solve_probabilities(scores, 0.5 * part.q, 0.01))
        calls = []
        for name in ("eigh", "eigvalsh"):
            f = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda a, f=f, name=name: (a.shape == (t.n, t.n) and calls.append(name)) or f(a),
            )
        lanczos = mixing._lanczos
        monkeypatch.setattr(mixing, "_lanczos", lambda *a: calls.append("lanczos") or lanczos(*a))
        res = optimize_epsilon(obj, tol=tol)
        monkeypatch.undo()
        assert calls[: len(first)] == first
        assert set(calls[len(first) :]) <= {first[0]}
        assert res.value - res.lower <= tol

    def test_failed_certificate_falls_back_to_the_spectrum(self, monkeypatch):
        # a Cholesky factor that fails once hands its point to eigh (the
        # model's eigenproblems are at most _BASIS_CAP wide)
        obj = subset_objective(er_topology(100, 0.05, 3), seed=3)
        cholesky, eigh, calls = np.linalg.cholesky, np.linalg.eigh, []

        def fails_once(a):
            calls.append("cholesky")
            if calls.count("cholesky") == 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", fails_once)
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: (len(a) == obj.n and calls.append("eigh")) or eigh(a)
        )
        res = optimize_epsilon(obj)
        monkeypatch.undo()
        assert calls[calls.index("cholesky") + 1] == "eigh"
        assert res.evaluations == len(calls)
        assert_certified(obj, res)

    def test_filter_steps_count_toward_the_cap(self, monkeypatch):
        # a residual that keeps shrinking but never passes the test: every
        # pass after the first spectrum is a filter step, and the cap ends
        # them; the filter steps at one point must not bend the lower bound
        obj = subset_objective(er_topology(100, 0.05, 3), seed=3)
        tests = []

        def never_passes(self, mat, eps):
            tests.append(eps)
            assert len(tests) < 100
            return 0.5, 1.0 / len(tests), 0.0

        monkeypatch.setattr(mixing._RitzBasis, "top_pair", never_passes)
        with pytest.warns(UserWarning, match=r"after 1 evaluations with s\(eps\) - lower"):
            res = optimize_epsilon(obj)
        assert len(tests) == mixing._MAX_EVALUATIONS - 1
        assert res.evaluations == 1
        monkeypatch.undo()
        assert res.lower <= optimize_epsilon(obj).value

    def test_first_spectrum_gives_the_basis_its_eigenvectors(self):
        # A first filter shaped by the spectrum kept one column of its block
        # here, whose Ritz value at the model's next point was 0, and the
        # search took 5 evaluations; the spectrum's own top eigenvectors
        # join the basis instead.
        obj = full_comm_objective(random_connected(np.random.default_rng(54548), 131, 79))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_epsilon(obj)
        assert res.evaluations <= 2
        assert_certified(obj, res)

    def test_filtered_blocks_stay_far_from_underflow(self, monkeypatch):
        # a filter is scaled to 1 at a Gershgorin bound of M, above s, so it
        # shrinks its block by its value at s; over 200 such searches the
        # smallest column maximum of a filtered block was about 1e-168
        rng = np.random.default_rng(7)
        chebyshev_filter, smallest = mixing._chebyshev_filter, []

        def seen(*args):
            block = chebyshev_filter(*args)
            smallest.append(np.abs(block).max(axis=0).min())
            return block

        monkeypatch.setattr(mixing, "_chebyshev_filter", seen)
        for i in range(24):
            n = int(rng.integers(42, 421))
            t = random_connected(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
            q = greedy_partition(t).q
            obj = subset_objective(t, np.ones(q) if i % 2 == 0 else rng.uniform(0.01, 1.0, q))
            assert_certified(obj, optimize_epsilon(obj))
        assert smallest and min(smallest) > 1e-250

    def test_no_certificate_below_its_rounding(self, monkeypatch):
        # at n = 100 the Cholesky factor's backward error, about 100 e, does
        # not fit inside tol = 1e-14: every point gets its spectrum
        obj = subset_objective(er_topology(100, 0.05, 3), seed=3)
        cholesky, calls = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        res = optimize_epsilon(obj, tol=1e-14)
        monkeypatch.undo()
        assert calls == []
        assert res.value - res.lower <= 1e-14
        assert_certified(obj, res)

    def test_evaluation_cap_warns_with_gap(self, monkeypatch):
        obj = subset_objective(random_connected(np.random.default_rng(23), 60, 30))
        monkeypatch.setattr(mixing, "_MAX_EVALUATIONS", 1)
        with pytest.warns(UserWarning, match=r"after 1 evaluations with s\(eps\) - lower"):
            res = optimize_epsilon(obj)
        assert res.evaluations == 1
        assert res.value - res.lower > 1e-12

    def test_loose_tolerance_stops_early(self):
        obj = subset_objective(random_connected(np.random.default_rng(29), 80, 40))
        loose = optimize_epsilon(obj, tol=1e-3)
        tight = optimize_epsilon(obj)
        assert loose.value - loose.lower <= 1e-3
        assert loose.evaluations <= tight.evaluations
        assert tight.lower <= loose.value

    @pytest.mark.parametrize(
        "topology",
        [
            ring_topology(200),
            star_topology(10),
            two_stars_topology(6, 6),
            two_stars_topology(40, 40),
            Topology(9, list(itertools.combinations(range(9), 2))),
            Topology(50, list(itertools.combinations(range(50), 2))),
        ],
        ids=["ring(200)", "star(10)", "two-stars(6,6)", "two-stars(40,40)", "complete(9)",
             "complete(50)"],
    )
    def test_full_communication_closed_form(self, topology):
        # ring(200)'s spectrum is degenerate pairs; a complete graph's is one
        # eigenvalue of multiplicity n - 1, and s* = 0; two-stars(40,40)'s
        # first spectrum gives eigenvectors of one end of L's spectrum only,
        # so the model's first point fails its certificate and takes a
        # second spectrum
        res = optimize_epsilon(full_comm_objective(topology))
        eigs = np.linalg.eigvalsh(topology.laplacian())
        lam2, lam_n = eigs[1], eigs[-1]
        assert res.epsilon == pytest.approx(2.0 / (lam2 + lam_n), rel=1e-6)
        assert res.value == pytest.approx(((lam_n - lam2) / (lam_n + lam2)) ** 2, abs=1e-12)
        assert_certified(full_comm_objective(topology), res)

    @pytest.mark.parametrize(
        "topology",
        [ring_topology(200), star_topology(10), two_stars_topology(6, 6)],
        ids=["ring(200)", "star(10)", "two-stars(6,6)"],
    )
    def test_random_subsets_match_dense_oracle(self, topology):
        obj = subset_objective(topology, seed=topology.n)
        res = optimize_epsilon(obj)
        oracle = oracle_minimum(obj)
        assert res.lower <= oracle + 1e-12
        assert res.value <= oracle + 1e-12
        assert_certified(obj, res)

    @settings(derandomize=True, deadline=None, max_examples=25, database=None)
    @given(
        n=st.integers(2, 150),
        extra=st.integers(0, 300),
        seed=st.integers(0, 2**16),
        unit=st.booleans(),
    )
    def test_lower_bound_is_certified(self, n, extra, seed, unit):
        # n up to 150 runs both the exact basis and the growing one
        rng = np.random.default_rng(seed)
        t = random_connected(rng, n, extra_edges=extra)
        part = greedy_partition(t)
        probs = np.ones(part.q) if unit else rng.uniform(0.01, 1.0, part.q)
        obj = expected_laplacian_gram(t, part, node_probabilities(probs, part))
        res = optimize_epsilon(obj)
        assert_certified(obj, res)
        for eps in rng.uniform(0.0, 2.0 * res.epsilon + 0.1, 4):
            assert res.lower <= obj.value(eps) + 1e-12

    def test_probability_monotonicity_flag(self):
        # raising every activation probability should not hurt the optimum;
        # not guaranteed in general, so this only reports, never fails
        rng = np.random.default_rng(13)
        t = random_connected(rng, 8, extra_edges=3)
        part = greedy_partition(t)
        values = []
        for scale in (0.4, 0.7, 1.0):
            node_p = node_probabilities(np.full(part.q, scale), part)
            ms = expected_laplacian_gram(t, part, node_p)
            values.append(optimize_epsilon(ms).value)
        if not all(a >= b - 1e-9 for a, b in zip(values, values[1:])):
            print(f"note: contraction factor not monotone in activation: {values}")


def complete_topology(n):
    return Topology(n, list(itertools.combinations(range(n), 2)))


def policy_objective(t, kind):
    """Closed-form moments of the full, bass or uniform policy at half the
    slots, floor 0.01, as ``build_policy`` takes them."""
    part = greedy_partition(t)
    if kind == "full":
        return closed_form_moments(t, full_comm_policy(part).units(part, t))
    scores = subset_betweenness(t.betweenness, part) if kind == "bass" else np.ones(part.q)
    return subset_objective(t, solve_probabilities(scores, 0.5 * part.q, 0.01))


def random_policy_objective(n, extra, seed, probs):
    """Moments of a random connected graph under subset probabilities all
    one, uniform on [0.01, 1], or all equal to one uniform on [0.05, 1]."""
    rng = np.random.default_rng(seed)
    t = random_connected(rng, n, extra_edges=extra)
    q = greedy_partition(t).q
    if probs == "ones":
        p = np.ones(q)
    elif probs == "random":
        p = rng.uniform(0.01, 1.0, q)
    else:
        p = np.full(q, rng.uniform(0.05, 1.0))
    return subset_objective(t, p), rng


def search_both_ways(obj):
    """The search of ``obj`` with its first point taken by a Lanczos run
    wherever the Helmert basis is not exact (above 41 nodes), and with it
    taken by eigh at every size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixing, "_LANCZOS_NODES", mixing._BASIS_CAP + 1)
        lanczos = optimize_epsilon(obj)
        mp.setattr(mixing, "_LANCZOS_NODES", np.inf)
        exact = optimize_epsilon(obj)
    return lanczos, exact


def assert_same_minimum(obj, lanczos, exact):
    """Both searches certified, each lower bound below the other's value,
    and the two values within tol = 1e-12 of each other. eps* is compared
    through s: on a flat minimum s moves by at most tol over an interval of
    eps much wider than tol."""
    assert_certified(obj, lanczos)
    assert_certified(obj, exact)
    assert lanczos.lower <= exact.value + 1e-12 and exact.lower <= lanczos.value + 1e-12
    assert abs(lanczos.value - exact.value) <= 1e-12


class TestLanczosFirstPoint:
    def test_c03_graphs_keep_the_exact_first_point(self):
        # criterion 3's graphs have at most 12 nodes: the Helmert basis is
        # exact there, and the search is the same with the Lanczos rule on
        for _, obj in c03_objectives():
            lanczos, exact = search_both_ways(obj)
            assert lanczos == exact

    @pytest.mark.parametrize("topology", ["er(100,0.05,3)", "er(150,0.03,1)", "er(400,0.012,1)"])
    @pytest.mark.parametrize("kind", ["bass", "uniform", "full"])
    def test_lanczos_search_is_the_exact_search(self, topology, kind):
        obj = policy_objective(make_topology(topology), kind)
        assert_same_minimum(obj, *search_both_ways(obj))

    @pytest.mark.parametrize(
        "topology",
        [complete_topology(9), complete_topology(50), ring_topology(200), star_topology(10),
         two_stars_topology(40, 40)],
        ids=["complete(9)", "complete(50)", "ring(200)", "star(10)", "two-stars(40,40)"],
    )
    @pytest.mark.parametrize("kind", ["full", "bass", "uniform"])
    def test_degenerate_spectra(self, topology, kind):
        # one eigenvalue of multiplicity n - 1 (complete graphs), pairs
        # (rings), and top eigenvectors that do not move with eps (stars,
        # full communication); the first two graphs take the Helmert basis
        obj = policy_objective(topology, kind)
        lanczos, exact = search_both_ways(obj)
        assert_same_minimum(obj, lanczos, exact)
        assert lanczos.lower <= oracle_minimum(obj) + 1e-12

    def test_invariant_subspace_takes_the_spectrum(self, monkeypatch):
        # complete(50) under full communication: M(eps) is a multiple of
        # I - J, so the run ends at its first step, and its one Ritz vector,
        # an eigenvector, joins the basis. The model's best point is the
        # exact search's first, where M vanishes: its top Ritz value is 0 to
        # rounding, so eigvalsh takes the point rather than a filter
        obj = policy_objective(complete_topology(50), "full")
        monkeypatch.setattr(mixing, "_LANCZOS_NODES", mixing._BASIS_CAP + 1)
        eigvalsh, lanczos, top_pair, calls = (
            np.linalg.eigvalsh, mixing._lanczos, mixing._RitzBasis.top_pair, []
        )
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        monkeypatch.setattr(mixing, "_lanczos", lambda *a: calls.append(lanczos(*a)) or calls[-1])
        monkeypatch.setattr(
            mixing._RitzBasis, "top_pair", lambda *a: calls.append(top_pair(*a)) or calls[-1]
        )
        res = optimize_epsilon(obj)
        monkeypatch.undo()
        (values, vectors), (theta, _, _), spectrum = calls
        assert values.size == 1 and vectors.shape == (50, 1)
        assert theta <= 0.0 and spectrum == (50, 50)
        assert res == search_both_ways(obj)[1]
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert_certified(obj, res)

    def test_cap_before_an_exact_value_takes_the_spectrum(self, monkeypatch):
        # two passes are the Lanczos run and one filter step, so neither
        # takes a value of s: the search then evaluates s at its last point
        # rather than report none
        obj = policy_objective(make_topology("er(400,0.012,1)"), "bass")
        monkeypatch.setattr(mixing, "_MAX_EVALUATIONS", 2)
        with pytest.warns(UserWarning, match=r"after 1 evaluations with s\(eps\) - lower"):
            res = optimize_epsilon(obj)
        assert res.evaluations == 1
        assert res.value == obj.value(res.epsilon)
        assert res.lower <= res.value

    @pytest.mark.parametrize("n, extra, seed", [(118, 155, 31861), (134, 246, 219)])
    def test_dropped_filter_columns_leave_the_block(self, n, extra, seed):
        # Found by a random search. A filter column that is rounding alone
        # once projected off U was dropped from Q only, after its Q column
        # had taken the top eigenvector's part of a later column: the basis
        # never gained that eigenvector, and with a Lanczos first point these
        # searches ran to the cap uncertified.
        obj, _ = random_policy_objective(n, extra, seed, "equal")
        assert_same_minimum(obj, *search_both_ways(obj))

    @settings(derandomize=True, deadline=None, max_examples=20, database=None)
    @given(
        n=st.integers(42, 260),
        extra=st.integers(0, 600),
        seed=st.integers(0, 2**16),
        probs=st.sampled_from(["ones", "random", "equal"]),
    )
    def test_lanczos_first_point_is_certified(self, n, extra, seed, probs):
        obj, rng = random_policy_objective(n, extra, seed, probs)
        lanczos, exact = search_both_ways(obj)
        assert_same_minimum(obj, lanczos, exact)
        for eps in rng.uniform(0.0, 2.0 * lanczos.epsilon + 0.1, 3):
            assert lanczos.lower <= obj.value(eps) + 1e-12


def fixed_weight_matrix(t, eps):
    """A full-communication round: the fixed equal-weight matrix I - eps * L."""
    part = greedy_partition(t)
    policy = full_comm_policy(part).with_epsilon(eps)
    return sample_round(policy, part, t, np.random.default_rng(0)).mixing_matrix


class TestFixedWeightMatrix:
    def test_k2_half_is_exact_averaging(self):
        w = fixed_weight_matrix(path_topology(2), 0.5)
        assert np.allclose(w, np.full((2, 2), 0.5))

    def test_p3_half(self):
        w = fixed_weight_matrix(path_topology(3), 0.5)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        assert np.allclose(w, expected)

    def test_eps_zero_is_identity(self):
        assert np.array_equal(fixed_weight_matrix(path_topology(3), 0.0), np.eye(3))

    def test_row_sums_and_support(self):
        rng = np.random.default_rng(17)
        t = random_connected(rng, 9, extra_edges=3)
        w = fixed_weight_matrix(t, 0.13)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        off_support = (adjacency(t) == 0) & ~np.eye(t.n, dtype=bool)
        assert np.all(w[off_support] == 0.0)


def compact_of(e_lap, e_gram):
    """The compact form of two dense moments, on the cells where either is
    nonzero (NaN included), or its mirror is."""
    e_lap, e_gram = np.asarray(e_lap, float), np.asarray(e_gram, float)
    nonzero = (e_lap != 0) | (e_gram != 0)
    cells = np.flatnonzero(nonzero | nonzero.T)
    return CompactObjective(e_lap.shape[0], cells, e_lap.ravel()[cells], e_gram.ravel()[cells])


def dense_of(obj):
    return SpectralObjective(obj.e_laplacian, obj.e_gram)


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def dense_fill(e_lap, e_gram, eps):
    """E[W^2] - J by the arithmetic of the cells on every entry of the
    dense moments: 2 eps (eps/2 E[L~^2] - E[L~]) - 1/n, plus 1 on the
    diagonal."""
    out = np.multiply(e_gram, 0.5 * eps)
    out -= e_lap
    out *= 2.0 * eps
    out -= 1.0 / len(out)
    out.reshape(-1)[:: len(out) + 1] += 1.0
    return out


# The policies the three benchmark workloads search epsilon for: headline,
# large-er and sweep.
WORKLOAD_CONFIGS = [
    dict(topology="two-stars(6,6)", policies=("bass", "matcha", "full"), budget_frac=0.5,
         min_subset_prob=0.1),
    dict(topology="er(400,0.012,1)", policies=("bass",), budget_frac=0.5, min_subset_prob=0.01),
    dict(topology="er(100,0.05,3)", policies=("bass",), budget_sweep=(0.2, 0.4, 0.6, 0.8, 1.0),
         min_subset_prob=0.01),
]


def workload_moments():
    """The moments ``build_policy`` searches: the closed form, and matcha's
    Monte Carlo estimate."""
    for config in WORKLOAD_CONFIGS:
        cfg = ExperimentConfig(**config)
        t, part, specs = experiment._setup(cfg)
        for spec in specs:
            units = experiment._unresolved_policy(spec, t, part, cfg).units(part, t)
            if spec.kind == "matcha":
                rng = np.random.default_rng(experiment._EPS_MC_SEED)
                yield spec.label, monte_carlo_moments(t, units, cfg.eps_mc_samples, rng)
            else:
                yield spec.label, closed_form_moments(t, units)


class TestCompactObjective:
    def test_contraction_matrix_is_the_dense_one_bit_for_bit(self):
        """CI runs this on both numpy versions of its matrix: it pins the
        compact fill's flat fancy assignment and flat subtraction, and its
        diagonal trace, to the dense arithmetic and numpy's trace."""
        # zero-probability subsets leave -0.0 edge weights in E[L~]
        rng = np.random.default_rng(41)
        cases = list(workload_moments())
        for n in (3, 8, 30):
            t = random_connected(rng, n, extra_edges=n)
            part = greedy_partition(t)
            probs = rng.uniform(0.1, 1.0, part.q)
            probs[rng.random(part.q) < 0.4] = 0.0
            cases.append((f"n={n}", subset_objective(t, probs)))
        for label, obj in cases:
            dense = dense_of(obj)
            buf = np.empty((obj.n, obj.n))
            for eps in (0.0, 0.013, 0.24, 1.7):
                want = dense_fill(dense.e_laplacian, dense.e_gram, eps)
                assert same_bits(obj.contraction_matrix(eps), want), label
                assert same_bits(dense.contraction_matrix(eps), want), label
                assert obj.contraction_matrix(eps, out=buf) is buf
                assert same_bits(buf, dense.contraction_matrix(eps)), label
            for power, view in ((1, dense.e_laplacian), (2, dense.e_gram)):
                assert same_bits(obj.moment(power, buf), view), label
                assert same_bits(dense.moment(power, np.empty_like(buf)), view), label
            ratio = np.trace(dense.e_laplacian) / np.trace(dense.e_gram)
            assert obj.trace_ratio() == dense.trace_ratio() == ratio, label

    def test_zero_probabilities_keep_negative_zero_weights(self):
        """CI runs this on both numpy versions of its matrix."""
        t = ring_topology(6)
        obj = subset_objective(t, np.zeros(greedy_partition(t).q))
        lap = obj.e_laplacian
        i, j = t.edge_array.T
        assert np.signbit(lap[i, j]).all() and not lap.any()
        assert same_bits(lap, t.laplacian(np.zeros(len(t.edge_array))))

    def test_search_is_the_dense_search_on_the_workload_configs(self):
        """The workloads include headline's matcha Monte Carlo moments. CI runs
        this on both numpy versions of its matrix."""
        for label, obj in workload_moments():
            assert optimize_epsilon(obj) == optimize_epsilon(dense_of(obj)), label

    @pytest.mark.parametrize("route", ["closed form", "matcha monte carlo"])
    def test_search_holds_one_buffer(self, route):
        # The moments keep their cells, and the search one n x n buffer
        # beside them (eigvalsh's LAPACK copy is not traced): 2.0 and 4.1
        # matrices when both moments were dense and the certificate called
        # np.linalg.cholesky on the whole buffer, and 2.03 and 3.37 for
        # matcha's dense Monte Carlo moments beside the compact search.
        t = make_topology("er(400,0.012,1)")
        if route == "closed form":
            part = greedy_partition(t)
            scores = subset_betweenness(betweenness_centrality(t), part)
            probs = solve_probabilities(scores, 0.5 * part.q, 0.01)
            units = SchedulingPolicy(probs, 0.5 * part.q).units(part, t)
            build = partial(closed_form_moments, t, units)
        else:
            md = t.matching_decomposition
            units = matcha_policy(md, md.r, t).units()  # half of the 2 r slots
            build = partial(monte_carlo_moments, t, units, 2000, np.random.default_rng(0))
        matrix = t.n**2 * 8
        tracemalloc.start()
        try:
            obj = build()
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res = optimize_epsilon(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a Lanczos run takes the first point: the certificate is the one
        # dense factorization (2 while eigvalsh took the first point)
        assert res.evaluations == 1
        assert held <= 0.25 * matrix
        assert peak <= 1.75 * matrix

    def test_rejections_are_the_dense_forms(self):
        obj = compact_of(path_topology(3).laplacian(), np.eye(3))
        with pytest.raises(ValueError, match="^eps must be nonnegative and finite$"):
            obj.value(-0.1)
        for form in (SpectralObjective, compact_of):
            for eps in (-0.1, np.nan, np.inf):
                with pytest.raises(ValueError, match="^eps must be nonnegative and finite$"):
                    form(path_topology(3).laplacian(), np.eye(3)).contraction_matrix(eps)
            with pytest.raises(ValueError, match="e_laplacian is not symmetric"):
                form(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
            for stray in ((250, 10), (10, 250)):
                big = np.eye(300)
                big[stray] = 1e-6
                with pytest.raises(ValueError, match="e_gram is not symmetric"):
                    form(np.eye(300), big)
            with pytest.raises(ValueError, match="e_laplacian has non-finite entries"):
                form(np.full((3, 3), np.nan), np.eye(3))
            big = np.eye(300)
            big[250, 10] = big[10, 250] = np.inf
            with pytest.raises(ValueError, match="e_gram has non-finite entries"):
                form(np.eye(300), big)

    def test_cells_must_be_increasing_and_in_range(self):
        for n in (0, True, 2.0, "3"):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                CompactObjective(n, np.array([0]), np.zeros(1), np.zeros(1))
        for cells in ([0, 0], [3, 1], [-1, 2], [0, 9]):
            with pytest.raises(ValueError, match="cells must be increasing"):
                CompactObjective(3, np.array(cells), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="one value per cell"):
            CompactObjective(3, np.array([0, 4]), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="1-D integer"):
            CompactObjective(3, np.array([0.0, 4.0]), np.zeros(2), np.zeros(2))
        # (0, 1) without (1, 0), even with zero values
        with pytest.raises(ValueError, match="cells must be a symmetric pattern"):
            CompactObjective(3, np.array([0, 1, 4]), np.zeros(3), np.zeros(3))

    def test_no_cells_are_two_zero_matrices(self):
        obj = CompactObjective(2, np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))
        dense = dense_of(obj)
        assert same_bits(dense.e_laplacian, np.zeros((2, 2)))
        with np.errstate(invalid="ignore"):
            assert np.isnan(obj.trace_ratio()) and np.isnan(dense.trace_ratio())
        assert optimize_epsilon(obj) == optimize_epsilon(dense)

    def test_mirror_check_at_every_column_type(self):
        # Columns fit 8, 16 and 32 bits; no n x n array is made.
        for n in (3, 300, 70000):
            i, j = [0, 0, 1, n - 1, n - 1], [0, n - 1, 1, 0, n - 1]
            cells = np.array(i) * n + np.array(j)
            values = np.array([1.0, 2.0, 3.0, 2.0, 4.0])
            obj = CompactObjective(n, cells, values, -values)
            assert obj.cells.dtype == np.intp
            with pytest.raises(ValueError, match="e_gram is not symmetric"):
                CompactObjective(n, cells, values, values * [1, 1, 1, -1, 1])
            with pytest.raises(ValueError, match="cells must be a symmetric pattern"):
                CompactObjective(n, np.delete(cells, 3), values[:4], values[:4])


def level_cases(rng, n, margin=1e-6):
    """A PSD M with spectrum in [0, 1] and top eigenvalue s, and the levels
    s + margin (the factor exists) and s - margin (it does not), the margin
    far above the certificate's slack n e."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = rng.uniform(0.0, 0.9, n)
    spectrum[rng.integers(n)] = top = 0.95
    mat = (q * spectrum) @ q.T
    mat = 0.5 * (mat + mat.T)
    return mat, ((top + margin, True), (top - margin, False))


def numpy_certifies(mat, level):
    try:
        np.linalg.cholesky(level * np.eye(len(mat)) - mat)
    except np.linalg.LinAlgError:
        return False
    return True


class TestInPlaceCertificate:
    @pytest.mark.parametrize("block, sizes", [
        # one call up to two blocks (1 x 1 included), then blocks with a
        # short last one, at exact multiples and between them
        (8, (1, 2, 7, 8, 9, 16, 17, 21, 24, 32, 64, 70)),
        (None, (1, 63, 64, 65, 128, 129, 150, 192)),
    ])
    def test_accepts_and_rejects_as_numpy_cholesky(self, monkeypatch, block, sizes):
        """CI runs this on both numpy versions of its matrix: it pins the
        blocked factor's np.linalg.cholesky and np.linalg.solve on blocks to
        np.linalg.cholesky's verdict on the whole matrix."""
        if block is not None:
            monkeypatch.setattr(mixing, "_FACTOR_BLOCK", block)
        rng = np.random.default_rng(43)
        for n in sizes:
            mat, levels = level_cases(rng, n)
            for level, holds in levels:
                if n == 1:
                    holds = level > mat[0, 0]
                assert numpy_certifies(mat, level) == holds, (n, level)
                assert mixing._certifies(mat.copy(), level) == holds, (n, level)

    def test_indefinite_with_definite_diagonal_blocks_is_rejected(self, monkeypatch):
        """CI runs this on both numpy versions of its matrix."""
        # level I - M fails only through the coupling of its blocks: each
        # diagonal block alone has a factor
        monkeypatch.setattr(mixing, "_FACTOR_BLOCK", 8)
        rng = np.random.default_rng(47)
        for n in (17, 24, 30, 40):
            mat, levels = level_cases(rng, n)
            level, holds = levels[1]
            shifted = level * np.eye(n) - mat
            blocks = [shifted[lo : lo + 8, lo : lo + 8] for lo in range(0, n, 8)]
            assert all(np.linalg.eigvalsh(b)[0] > 0 for b in blocks)
            assert not holds and not mixing._certifies(mat.copy(), level)

    def test_factor_block_grows_with_n(self):
        # the whole matrix up to two blocks, then an eighth of it, at least one
        sizes = (1, 128, 129, 400, 2000)
        assert [mixing._factor_block(n) for n in sizes] == [1, 128, 64, 64, 250]
