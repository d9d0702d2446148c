"""Mixing-parameter selection by minimizing the expected contraction factor.

With W(t) = I - eps * L~(t), the squared consensus deviation contracts in
expectation by at most the largest eigenvalue s(eps) of

    M(eps) = E[W^2(t)] - J = I - 2 eps E[L~] + eps^2 E[L~^T L~] - J.

That matrix is PSD (each realization satisfies W^2 - J = (W - J)^2), and s is
convex in eps as a pointwise maximum of the convex quadratics

    q_v(eps) = v^T M(eps) v = v^T (I - J) v - 2 eps v^T E[L~] v + eps^2 v^T E[L~^2] v

over unit vectors v. Every such quadratic is a minorant of s, which is what
makes the search certified: `optimize_epsilon` returns, beside eps* and
s* = s(eps*), a lower bound on min s, and stops when the two are within
`tol`. Its loop:

1. Writes M at the first eps into one reused n x n buffer from the
   moments' cells (``moments._Moments.contraction_matrix``). Above
   `_LANCZOS_NODES` nodes (where the certificate of step 4 fits inside
   tol), a Lanczos run on the buffer (`_lanczos`: full reorthogonalization,
   a mean-free random start) gives Ritz pairs there.
   A Ritz value is only a lower bound on s(eps), so it is never taken as a
   value of s. Otherwise a dense spectrum gives an exact value of s: `eigh`,
   with its eigenvectors, up to `_LANCZOS_NODES` nodes, and `eigvalsh`
   above.
2. Extends an orthonormal, mean-free Ritz basis U. Up to `_BASIS_CAP` + 1
   nodes U is all of the complement of the ones vector from the first step,
   so the model below is s itself and step 4's certificate normally ends the
   search at the second evaluation. Otherwise eigenvectors in hand join U
   as they are: an `eigh` spectrum's top `_BLOCK_SIZES[0]`, and while U is
   empty a Lanczos run's top `_BLOCK_SIZES[-1]` (a run follows an
   `eigvalsh` spectrum for them). At any other point a Chebyshev filter of
   the buffer (matmuls only), shaped by the model's Ritz values, adds a
   block of approximate top eigenvectors: it damps [0, cut-off] (M is PSD),
   is scaled at a Gershgorin bound, and its degree is at most that of a
   filter shaped by the Lanczos run's values. A thick restart keeps U at
   most `_BASIS_CAP` columns wide.
3. Minimizes the Ritz model m_U(eps) = lambda_max(U^T M(eps) U) <= s(eps), a
   problem of at most `_BASIS_CAP` columns, by the cuts q_v of its top
   eigenvectors v. The least maximum of all cuts so far is the certified
   lower bound; the next eps is the model's best point.
4. Tests the model's top Ritz pair at that point against M with one
   product: once its residual is small against the Ritz gap, one Cholesky
   factor of (lower + tol) I - M, formed in place in the buffer by blocks
   (`_certifies`), certifies s(eps) < lower + tol and ends the search. The
   factor exists iff that holds, up to its backward error of about n e (e
   the machine epsilon; near the boundary the shifted matrix has norm at
   most lower + tol <= 1 + tol, as M is PSD): 9e-14 at n = 400 and 4e-13 at
   n = 2000. The level is lowered by that estimate, and above about 4500
   nodes, where it no longer fits inside the default tol of 1e-12, every
   point gets its spectrum as in step 1. A residual that fails the test
   grows the basis by a filter while it shrinks and the top Ritz value is
   above 0; a factor that fails, a residual that stops shrinking, or a top
   Ritz value of 0 (a filter has nothing to damp below it) gets the dense
   spectrum there, as in step 1.
5. Stops once the best exact value minus the lower bound is at most `tol`.
   A search that reaches its cap without any exact value takes the
   spectrum at its last point.

An evaluation is one dense factorization of the buffer: an `eigh` or
`eigvalsh` spectrum or a Cholesky certificate; a Lanczos run is none.
`_MAX_EVALUATIONS` caps the passes of the loop, each of which makes at most
one factorization, one Lanczos run or one filter step. No bracket is needed,
because the cuts grow without bound in eps.

Memory: the buffer is the search's one n x n array. Once a spectrum, a
Lanczos run or a filter is done with M, each moment is written into it in
turn for the basis's projections, and the certificate overwrites it with its
factor, holding beside it one panel of about n^2 / 8 entries (up to 128
nodes, one np.linalg.cholesky call and its two small copies). The Lanczos
run holds `_LANCZOS_STEPS` vectors of n entries beside it. An `eigh`
spectrum, taken only up to `_LANCZOS_NODES` nodes, holds its eigenvectors
plus LAPACK's workspace, about 3 n^2 doubles and under 1 MB. Above that, an
`eigvalsh` spectrum adds LAPACK's n x n copy, so a search that takes one
(only at a fallback point while the certificate fits inside tol) peaks at
two n x n arrays beside the moments' cells, about 0.2 n^2 entries on a
sparse graph; one that takes none holds one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# SpectralObjective stays importable from here: bench/harness.py imports it
# from this module.
from .moments import SpectralObjective, _Moments  # noqa: F401

# Entries per row block of the Gershgorin bound `_row_bound`.
_CHECK_BLOCK = 2**15
# Columns of the Ritz basis: the model eigenproblems are at most this size,
# and up to this many nodes plus one the basis is exact.
_BASIS_CAP = 40
# Passes of the search before it gives up and warns with its gap. A pass
# makes at most one dense factorization (a spectrum or a Cholesky
# certificate), one Lanczos run or one filter step, so this caps all three.
_MAX_EVALUATIONS = 30
# Model eigenproblems per exact evaluation.
_MODEL_STEPS = 60
# Chebyshev filter: the block sizes it may choose from, the damping of the
# unwanted spectrum relative to the weakest wanted eigenvalue, and the
# degree cap. An eigh spectrum gives the fewest vectors, a Lanczos run the
# most.
_BLOCK_SIZES = range(4, 13)
_FILTER_DAMPING = 1e-4
_MAX_FILTER_DEGREE = 200
# Seeds of the filter's random start vectors and of the Lanczos start.
_FILTER_SEED = 0
_LANCZOS_SEED = 1
# The fewest columns per block of the in-place Cholesky certificate.
_FACTOR_BLOCK = 64
# Above this many nodes, while the certificate fits inside tol, the first
# point is a Lanczos run of _LANCZOS_STEPS steps in place of a spectrum;
# up to it, a spectrum is eigh's and gives its eigenvectors, above it
# eigvalsh's. The crossover was measured on the whole search (2 vCPUs, numpy
# 2.4, OpenBLAS 0.3; 200 random graphs with full, random and equal subset
# probabilities, best of 3 each): summed over the graphs, the Lanczos
# search took 1.25x the time of the spectrum's for 42-99 nodes and 1.05x
# for 100-199, and 0.89x, 0.87x and 0.92x for 200-299, 300-399 and 400-499.
_LANCZOS_NODES = 200
_LANCZOS_STEPS = 60


def contracts(value: float) -> bool:
    """True iff an objective value s(eps) is below one."""
    # A node that never mixes keeps an eigenvalue of exactly 1; the margin
    # absorbs eigensolver rounding.
    return value < 1.0 - 1e-12


@dataclass(frozen=True)
class EpsilonSearch:
    """Result of the 1-D mixing-parameter optimization: eps*, s* = s(eps*),
    a certified lower bound on min s, and the number of dense
    factorizations the search made (dense spectra plus Cholesky
    certificates). A first point taken by a Lanczos run counts none, so
    above ``_LANCZOS_NODES`` nodes a search that the first certificate
    ends reports 1.

    A search that ends on a certificate knows s(eps*) only to within tol:
    s* is then the top Ritz value clipped to [lower, lower + tol]."""

    epsilon: float
    value: float
    lower: float
    evaluations: int
    degenerate: bool = False


class _Cuts:
    """The cuts q_v(eps) = 1 - 2 eps beta + eps^2 gamma of unit, mean-free
    vectors v = U y: beta = y^T R1 y and gamma = y^T R2 y, where R1 and R2
    are E[L~] and E[L~^2] in the Ritz basis U (U^T (I - J) U = I).

    Every cut is at most s, and all of them pass through (0, 1), so their
    maximum is 1 + eps * g(eps) with g the upper envelope of the lines
    gamma * eps - 2 beta. Its minimum sits at a vertex beta / gamma or at a
    crossing 2 (beta_i - beta_j) / (gamma_i - gamma_j) of two lines, and a
    cut that attains the maximum at none of those points is dropped: it is
    nowhere on the envelope.
    """

    def __init__(self):
        self.beta = np.empty(0)
        self.gamma = np.empty(0)

    def add(self, beta: np.ndarray, gamma: np.ndarray):
        self.beta = np.concatenate([self.beta, beta])
        self.gamma = np.concatenate([self.gamma, gamma])

    def minimum(self) -> tuple[float, float]:
        """(argmin, min) over eps >= 0 of the maximum of the cuts."""
        beta, gamma = self.beta, self.gamma
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = beta / gamma
            cross = 2.0 * np.subtract.outer(beta, beta) / np.subtract.outer(gamma, gamma)
        cand = np.concatenate([vertex, cross.ravel()])
        cand = cand[np.isfinite(cand) & (cand > 0.0)]
        if cand.size == 0:  # every cut is the constant 1
            return 0.0, 1.0
        lines = cand[:, None] * (cand[:, None] * gamma - 2.0 * beta)
        top = lines.max(axis=1)
        i = int(np.argmin(top))
        keep = (lines >= top[:, None]).any(axis=0)
        self.beta, self.gamma = beta[keep], gamma[keep]
        return float(cand[i]), 1.0 + float(top[i])

    def sublevel(self, level: float) -> tuple[float, float]:
        """The interval of eps >= 0 on which every cut is at most ``level``."""
        pos = self.gamma > 0.0
        beta, gamma = self.beta[pos], self.gamma[pos]
        root = np.sqrt(np.maximum(beta * beta - gamma * (1.0 - level), 0.0))
        return (
            float(((beta - root) / gamma).max(initial=0.0)),
            float(((beta + root) / gamma).min(initial=np.inf)),
        )


class _RitzBasis:
    """An orthonormal, mean-free basis U with R1 = U^T E[L~] U and
    R2 = U^T E[L~^2] U. Blocks join it by ``add``: a spectrum's or a
    Lanczos run's eigenvectors as they are, and ``extend``'s filtered ones.
    Each projection takes its moment by ``moment``, given the search's
    n x n buffer ``buf`` to write it into."""

    def __init__(self, objective: _Moments, buf: np.ndarray):
        self.objective = objective
        n = objective.n
        self.rng = np.random.default_rng(_FILTER_SEED)
        if n - 1 <= _BASIS_CAP:
            # Helmert basis of the complement of the ones vector: column i
            # is (1, ..., 1, -i, 0, ...) / sqrt(i (i + 1)).
            i = np.arange(1, n)
            u = np.triu(np.ones((n, n - 1))) - np.diag(i, -1)[:, : n - 1]
            self.u = u / np.sqrt(i * (i + 1.0))
            self.r1 = self.u.T @ (objective.moment(1, buf) @ self.u)
            self.r2 = self.u.T @ (objective.moment(2, buf) @ self.u)
        else:
            self.u = np.empty((n, 0))
            self.r1 = self.r2 = np.empty((0, 0))
        # Degree of a filter shaped by a Lanczos run's Ritz values
        # (``_filter_shape``): the cap of ``extend``'s filters.
        self.degree = _MAX_FILTER_DEGREE

    def model(self, eps: float) -> np.ndarray:
        r1, r2 = self.r1, self.r2
        h = r2 * (eps * eps) - r1 * (2.0 * eps)
        h.reshape(-1)[:: r1.shape[0] + 1] += 1.0
        return h

    def top_pair(self, mat: np.ndarray, eps: float) -> tuple[float, float, float]:
        """The model's top Ritz value theta at eps, the squared residual
        ||r||^2 of its Ritz vector x against ``mat`` = M(eps), r = M x - theta x,
        and the gap g from theta to the nearest Ritz value more than ||r||
        below it (to the floor 0 if there is none).

        theta is then within about ||r||^2 / g of s(eps), and a degenerate
        top cluster, whose Ritz values lie within ||r|| of theta, does not
        shrink g.
        """
        vals, y = np.linalg.eigh(self.model(eps))
        theta = float(vals[-1])
        x = self.u @ y[:, -1]
        r = mat @ x - theta * x
        residual = float(r @ r)
        below = vals[vals < theta - math.sqrt(residual)]
        return theta, residual, theta - below[-1] if below.size else theta

    def extend(self, mat: np.ndarray, eps: float):
        """Add filtered approximations to the top eigenvectors of ``mat`` =
        M(eps), the search's buffer, by ``add``.

        The filter damps [0, cut-off] (M is PSD), the cut-off being one of
        the model's Ritz values at eps (``_filter_shape``), and is scaled to
        1 at a Gershgorin bound of ``mat``; its degree is at most
        ``degree``. A lone Ritz value theta > 0 shapes a one-vector filter
        that damps [0, theta]; the search takes the spectrum rather than
        pass a top Ritz value of 0. For a block of p, the filter starts from
        the model's top p - 1 Ritz vectors plus one random vector.
        """
        n, k = self.objective.n, self.u.shape[1]
        vals, y = np.linalg.eigh(self.model(eps))
        p, degree = _filter_shape(vals, self.degree)
        start = np.hstack([self.u @ y[:, max(k + 1 - p, 0) :], self.rng.standard_normal((n, 1))])
        # Scaled at the Gershgorin bound: the top Ritz value can lie below
        # s(eps), and scaled there the filter overflowed on two-stars(40,40)
        # and put the lower bound above min s on er(100,0.05,3). Scaled at
        # the bound, it shrinks the block by its value at s: over 200 random
        # searches (42-420 nodes, subset probabilities all one or uniform on
        # [0.01, 1]) the smallest column maximum of a filtered block was
        # 1e-168, still far above the underflow at about 1e-308.
        block = _chebyshev_filter(mat, start, vals[-p - 1], _row_bound(mat), degree)
        self.add(mat, block, eps)

    def add(self, mat: np.ndarray, block: np.ndarray, eps: float):
        """Join ``block``'s columns to U, made mean-free and orthonormal to U
        and to each other, and border R1 and R2 with their projections: the
        search's buffer ``mat`` is given to ``moment`` for them. A block
        that would overflow _BASIS_CAP first restarts U to the model's top
        Ritz vectors at eps; nothing joins an exact basis."""
        k, p = self.u.shape[1], block.shape[1]
        if k == self.objective.n - 1:
            return
        if k + p > _BASIS_CAP:
            y = np.linalg.eigh(self.model(eps))[1][:, k + p - _BASIS_CAP :]
            self.u = self.u @ y
            self.r1 = y.T @ self.r1 @ y
            self.r2 = y.T @ self.r2 @ y
        # Two passes of projection and QR keep U orthonormal and mean-free to
        # rounding. The first drops columns dependent on the block's others.
        # The second, whose input columns are unit, drops those that shrink
        # by more than sqrt(2) in it (Kahan and Parlett's "twice is enough"):
        # only rounding was left of them after the first pass, and it would
        # compound U's own rounding error if it joined U.
        for second in (False, True):
            block -= block.mean(axis=0)
            block -= self.u @ (self.u.T @ block)
            q, r = np.linalg.qr(block)
            diag = np.abs(np.diag(r))
            floor = math.sqrt(0.5) if second else 1e-8 * diag.max(initial=0.0)
            keep = diag > floor
            # A dropped column is dropped from the block, not only from Q:
            # Q's column of a column that is rounding alone points anywhere,
            # and the kept columns after it lose their parts along it.
            block = q[:, keep] if keep.all() else np.linalg.qr(block[:, keep])[0]
        self.r1 = _bordered(self.r1, self.u, block, self.objective.moment(1, mat) @ block)
        self.r2 = _bordered(self.r2, self.u, block, self.objective.moment(2, mat) @ block)
        self.u = np.hstack([self.u, block])

    def minimize(self, cuts: _Cuts, eps: float, tol: float) -> tuple[float, float]:
        """Minimize the Ritz model from ``eps``: returns its best point and the
        least maximum of the cuts, a lower bound on min s.

        Each step adds the cuts of the two top eigenvectors (two branches
        cross at a kink) and moves to the Newton point of the top eigenvalue
        when it lies where the cuts allow a better value, else to the cuts'
        minimum.
        """
        best_value, best_eps = np.inf, eps
        lower = -np.inf
        for _ in range(_MODEL_STEPS):
            vals, vecs = np.linalg.eigh(self.model(eps))
            if vals[-1] < best_value:
                best_value, best_eps = float(vals[-1]), eps
            top = vecs[:, -2:]
            r1y, r2y = self.r1 @ top, self.r2 @ top
            gamma = (top * r2y).sum(axis=0)
            cuts.add((top * r1y).sum(axis=0), gamma)
            point = eps
            eps, lower = cuts.minimum()
            if best_value - lower <= tol:
                break
            # d lambda / d eps = y^T M' y, and d^2 lambda / d eps^2 adds
            # 2 (z^T M' y)^2 / (lambda - mu) for every other eigenpair (mu, z).
            slope = vecs.T @ (2.0 * (point * r2y[:, -1] - r1y[:, -1]))
            gap = vals[-1] - vals[:-1]
            coupled = gap > 1e-9
            curvature = 2.0 * gamma[-1] + 2.0 * np.sum(slope[:-1][coupled] ** 2 / gap[coupled])
            if curvature > 0.0:
                newton = point - slope[-1] / curvature
                lo, hi = cuts.sublevel(best_value)
                if lo < newton < hi:
                    eps = float(newton)
        return best_eps, lower


def _bordered(r: np.ndarray, u: np.ndarray, block: np.ndarray, image: np.ndarray) -> np.ndarray:
    """[[r, u^T image], [image^T u, block^T image]] for image = A @ block."""
    side = u.T @ image
    corner = block.T @ image
    corner = 0.5 * (corner + corner.T)
    return np.block([[r, side], [side.T, corner]])


def _filter_shape(values: np.ndarray, max_degree: int) -> tuple[int, int]:
    """Block size p and degree of the Chebyshev filter for ascending
    eigenvalue estimates ``values`` of M, whose floor is 0 (M is PSD).

    The filter damps [0, cut-off], the cut-off being the (p+1)-th largest
    value. The degree that damps it by _FILTER_DAMPING relative to the p-th
    largest is acosh(1 / damping) / acosh(t_p), t_p that value mapped onto
    the Chebyshev variable, capped at ``max_degree``; p minimizes the matmul
    columns p * degree, which puts the cut-off in a gap of the values, never
    inside a degenerate cluster. Block sizes run up to one less than the
    number of values, so that every cut-off is one of them; a single value,
    which must lie above 0, gives p = 0, a cut-off at that value and the
    degree ``max_degree``.
    """
    sizes = range(min(_BLOCK_SIZES[0], values.size - 1), min(_BLOCK_SIZES[-1] + 1, values.size))
    best = (sizes[0], max_degree)
    for p in sizes:
        cut, weakest = values[-p - 1], values[-p]
        half = 0.5 * cut
        if half <= 0.0:
            # Only the block's eigenvalues are above the bottom of the
            # spectrum, so one product with M removes the rest.
            degree = 1
        elif weakest <= cut:
            continue
        else:
            t = (weakest - half) / half
            degree = math.ceil(math.acosh(1.0 / _FILTER_DAMPING) / math.acosh(t))
            degree = min(degree, max_degree)
        if p * degree < best[0] * best[1]:
            best = (p, degree)
    return best


def _row_bound(mat: np.ndarray) -> float:
    """Gershgorin bound max_i sum_j |mat_ij| on the spectrum of ``mat``, in
    row blocks of at most _CHECK_BLOCK entries."""
    rows = max(1, _CHECK_BLOCK // mat.shape[1])
    return max(
        float(np.abs(mat[r : r + rows]).sum(axis=1).max()) for r in range(0, mat.shape[0], rows)
    )


def _chebyshev_filter(mat, block, cut, top, degree):
    """Chebyshev polynomial of ``mat`` applied to ``block``: it damps the
    eigenvalues in [0, cut] and is scaled to 1 at ``top`` (Zhou & Saad's
    scaled three-term recurrence). The interval's center is its half-width."""
    half = 0.5 * cut
    sigma = first = half / (top - half)
    prev = block
    block = (mat @ block - half * block) / (top - half)
    for _ in range(degree - 1):
        sigma_next = 1.0 / (2.0 / first - sigma)
        nxt = mat @ block
        nxt -= half * block
        nxt *= 2.0 * sigma_next / half
        nxt -= (sigma * sigma_next) * prev
        prev, block, sigma = block, nxt, sigma_next
    return block


def _lanczos(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ritz pairs of ``mat`` = M(eps) from at most _LANCZOS_STEPS Lanczos
    steps with full reorthogonalization: the ascending Ritz values, and as
    columns the unit, mean-free Ritz vectors of the top _BLOCK_SIZES[-1] of
    them. A run that ends on an invariant subspace (at its first step on a
    spectrum of one eigenvalue, a complete graph's, and at every size up to
    _LANCZOS_STEPS nodes) returns that subspace's pairs, which are
    eigenpairs.

    The start is a mean-free random vector of the run's own generator, so
    that the filters draw the same vectors whether or not a run took the
    first point.

    Every Ritz value is at most s(eps), and from a random start the top one
    approaches s with high probability (Kuczynski and Wozniakowski, SIAM J.
    Matrix Anal. Appl. 13(4), 1992). Beside ``mat`` it holds the
    _LANCZOS_STEPS Lanczos vectors.
    """
    n, steps = mat.shape[0], _LANCZOS_STEPS
    q = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps - 1)
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    start -= start.mean()
    q[0] = start / np.linalg.norm(start)
    for j in range(steps):
        w = mat @ q[j]
        alpha[j] = q[j] @ w
        if j == steps - 1:
            break
        # Against all earlier vectors, twice, and against the ones vector,
        # which M annihilates only up to rounding.
        for _ in range(2):
            w -= q[: j + 1].T @ (q[: j + 1] @ w)
        w -= w.mean()
        beta[j] = np.linalg.norm(w)
        if beta[j] <= 1e-10:
            break
        q[j + 1] = w / beta[j]
    vals, y = np.linalg.eigh(np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1))
    return vals, q[: j + 1].T @ y[:, -_BLOCK_SIZES[-1] :]


def _certifies(mat: np.ndarray, level: float) -> bool:
    """True iff level * I - M has a Cholesky factor for ``mat`` = M(eps),
    i.e. s < level up to the factor's backward error.

    The factor is taken in place, a block of columns at a time (see
    ``_factor_block``): ``np.linalg.cholesky`` of the diagonal block of the
    Schur complement, a solve for the panel below it, which overwrites that
    panel, then the update of the trailing lower part, one chunk of as many
    columns at a time (the factor reads only the lower triangle). Beside
    ``mat``, which it overwrites, it holds one panel's solve or one chunk's
    product. Like LAPACK's blocked factor it is backward stable (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 10).
    """
    n = mat.shape[0]
    block = _factor_block(n)
    np.negative(mat, out=mat)
    mat.reshape(-1)[:: n + 1] += level
    try:
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            factor = np.linalg.cholesky(mat[lo:hi, lo:hi])
            if hi == n:
                break
            # L21 = A21 L11^-T, in place of A21
            mat[hi:, lo:hi] = np.linalg.solve(factor, mat[hi:, lo:hi].T).T
            for c in range(hi, n, block):
                mat[c:, c : c + block] -= mat[c:, lo:hi] @ mat[c : c + block, lo:hi].T
    except np.linalg.LinAlgError:
        return False
    return True


def _factor_block(n: int) -> int:
    """Columns per block of ``_certifies``: an eighth of the matrix, and at
    least _FACTOR_BLOCK. Its temporaries then stay within about n^2 / 8
    entries; wider blocks are faster at n = 2000, narrower ones at 400. A
    matrix of at most two such blocks is one block: a single
    np.linalg.cholesky is faster (74 against 198 us at n = 100 on 2 vCPUs),
    and its copies take at most 2 * 128^2 entries."""
    return n if n <= 2 * _FACTOR_BLOCK else max(_FACTOR_BLOCK, n // 8)


def optimize_epsilon(objective: _Moments, tol: float = 1e-12) -> EpsilonSearch:
    """Minimize the expected contraction factor s over the step size, to a
    certified gap: s(epsilon) - lower <= tol, with lower <= min s.

    Each evaluation is one dense factorization of M(eps): a spectrum
    (``eigh`` up to ``_LANCZOS_NODES`` nodes, whose top eigenvectors join
    the Ritz basis, ``eigvalsh`` above), or a Cholesky factor of
    (lower + tol) I - M that certifies s(eps) < lower + tol. Above
    ``_LANCZOS_NODES`` nodes the first point is a Lanczos run instead,
    which is no evaluation; a run also gives the vectors of an empty basis
    after an ``eigvalsh`` spectrum (see the module docstring).

    A degenerate result (eps = 0) is returned when E[L~] vanishes, i.e. no
    link is ever activated bidirectionally. A result with value >= 1 warns:
    no step size contracts. So does a search that reaches its cap
    (`_MAX_EVALUATIONS` passes, each at most one factorization, one Lanczos
    run or one filter step) with the gap still above tol.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    buf = np.empty((objective.n, objective.n))
    if not objective.moment(1, buf).any():
        value = float(np.linalg.eigvalsh(objective.contraction_matrix(0.0, out=buf))[-1])
        return EpsilonSearch(
            epsilon=0.0, value=value, lower=value, evaluations=1, degenerate=True
        )
    # The minimizer of the average eigenvalue, trace(M(eps)) / (n - 1).
    eps = objective.trace_ratio()
    basis = _RitzBasis(objective, buf)
    cuts = _Cuts()
    best_value, best_eps = np.inf, eps
    lower = 0.0  # M is PSD
    # Points after the first are certified by a Cholesky factor of
    # A = (lower + tol) I - M, whose backward error is about n e ||A|| (e the
    # machine epsilon) with ||A|| <= lower + tol <= 1 + tol, as M is PSD and
    # lower <= s(0) = 1. The certificate's level is lowered by that much, and
    # where it does not fit inside tol (above about 4500 nodes at the default
    # tol) every point gets its spectrum again.
    slack = objective.n * np.finfo(float).eps * (1.0 + tol)
    ritz_steps = slack < tol
    take_spectrum = not (ritz_steps and objective.n > _LANCZOS_NODES)
    evaluations = 0
    last_residual = math.inf
    for _ in range(_MAX_EVALUATIONS):
        objective.contraction_matrix(eps, out=buf)
        vectors = None
        if take_spectrum:
            if objective.n <= _LANCZOS_NODES:
                values, vectors = np.linalg.eigh(buf)
                vectors = vectors[:, -_BLOCK_SIZES[0] :]
            else:
                values = np.linalg.eigvalsh(buf)
            evaluations += 1
            if values[-1] < best_value:
                best_value, best_eps = float(values[-1]), eps
            if best_value - lower <= tol:
                break
            last_residual = math.inf
        elif basis.u.shape[1]:
            theta, residual, gap = basis.top_pair(buf, eps)
            if residual <= tol * gap:
                evaluations += 1
                if _certifies(buf, lower + tol - slack):
                    best_value, best_eps = min(max(theta, lower), lower + tol), eps
                    break
                take_spectrum = True
                continue
            # A filter step only while the residual shrinks, and only from a
            # top Ritz value above M's floor 0, which is all a filter damps
            # below it; the spectrum at this point otherwise.
            if residual >= last_residual or theta <= 0.0:
                take_spectrum = True
                continue
            last_residual = residual
        if vectors is None and not basis.u.shape[1]:
            # An empty basis without a spectrum's vectors takes a Lanczos
            # run's. Its Ritz values are only lower bounds on s, so none is
            # taken as a value.
            values, vectors = _lanczos(buf)
            basis.degree = _filter_shape(values, _MAX_FILTER_DEGREE)[1]
        if vectors is None:
            basis.extend(buf, eps)
        else:
            basis.add(buf, vectors, eps)
        eps, model_lower = basis.minimize(cuts, eps, 0.5 * tol)
        lower = max(lower, model_lower)
        if best_value - lower <= tol:
            break
        take_spectrum = not ritz_steps
    else:
        if best_value == math.inf:
            # The cap came before any exact value: the spectrum at the last point.
            spectrum = np.linalg.eigvalsh(objective.contraction_matrix(eps, out=buf))
            best_value, best_eps = float(spectrum[-1]), eps
            evaluations += 1
        warnings.warn(
            f"epsilon search stopped after {evaluations} evaluations with "
            f"s(eps) - lower bound = {best_value - lower:.3g} > tol = {tol:g}"
        )
    if not contracts(best_value):
        warnings.warn(
            f"s* = {best_value:.6g} >= 1: no step size contracts the expected consensus "
            "error, since some nodes never exchange (e.g. zero-probability "
            "subsets); raise min_subset_prob above 0"
        )
    return EpsilonSearch(
        epsilon=best_eps, value=best_value, lower=lower, evaluations=evaluations
    )
