"""Mixing-parameter selection by minimizing the expected contraction factor.

With W(t) = I - eps * L~(t), the squared consensus deviation contracts in
expectation by at most the largest eigenvalue of

    E[W^2(t)] - J = I - 2 eps E[L~] + eps^2 E[L~^T L~] - J.

That matrix is PSD (each realization satisfies W^2 - J = (W - J)^2), so the
largest eigenvalue equals the spectral norm, and as a pointwise maximum of
convex quadratics in eps the objective is convex: a 1-D bracketed search
finds the global optimum without any SDP machinery.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True, eq=False)
class SpectralObjective:
    """Expected-contraction objective built from the Laplacian moments."""

    e_laplacian: np.ndarray
    e_gram: np.ndarray

    def __post_init__(self):
        for name in ("e_laplacian", "e_gram"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.abs(mat - mat.T).max() > 1e-9:
                raise ValueError(f"{name} is not symmetric")
            object.__setattr__(self, name, mat)
        if self.e_laplacian.shape != self.e_gram.shape:
            raise ValueError("moment matrices must share a shape")

    @classmethod
    def from_moments(cls, moments) -> "SpectralObjective":
        return cls(e_laplacian=moments.e_laplacian, e_gram=moments.e_gram)

    @property
    def n(self) -> int:
        return self.e_laplacian.shape[0]

    @property
    def averaging_matrix(self) -> np.ndarray:
        return np.full((self.n, self.n), 1.0 / self.n)

    def value(self, eps: float) -> float:
        """Largest eigenvalue of E[W^2] - J at the given step size."""
        eps = float(eps)
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        mat = (
            np.eye(self.n)
            - 2.0 * eps * self.e_laplacian
            + eps * eps * self.e_gram
            - self.averaging_matrix
        )
        return float(np.linalg.eigvalsh(mat)[-1])


@dataclass(frozen=True)
class EpsilonSearch:
    """Result of the 1-D mixing-parameter optimization."""

    epsilon: float
    value: float
    bracket_hi: float
    degenerate: bool = False


def _golden_min(f, lo, hi, tol):
    """Golden-section minimum of a unimodal f on [lo, hi] to width tol."""
    if hi - lo <= tol:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    steps = int(math.ceil(math.log(tol / (hi - lo)) / math.log(_INV_PHI)))
    width = hi - lo
    c = lo + _INV_PHI_SQ * width
    d = lo + _INV_PHI * width
    fc, fd = f(c), f(d)
    for _ in range(max(steps - 1, 0)):
        if fc < fd:
            hi, d, fd = d, c, fc
            width = _INV_PHI * width
            c = lo + _INV_PHI_SQ * width
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            width = _INV_PHI * width
            d = lo + _INV_PHI * width
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def optimize_epsilon(objective: SpectralObjective, tol: float = 1e-6) -> EpsilonSearch:
    """Minimize the expected contraction factor over the step size.

    The initial bracket is [0, 2 / lambda_max(E[L~])], past which the
    deterministic analogue diverges; when the minimum lands on the right
    edge, the bracket is doubled (up to four times) before accepting a
    boundary solution. A degenerate result (eps = 0, value = 1) is returned
    when E[L~] vanishes, i.e. no link is ever activated bidirectionally.
    Otherwise a result with value >= 1 warns: no step size contracts.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam_max = float(np.linalg.eigvalsh(objective.e_laplacian)[-1])
    if lam_max <= 1e-12:
        return EpsilonSearch(
            epsilon=0.0, value=objective.value(0.0), bracket_hi=0.0, degenerate=True
        )
    # The objective can have a kink at the optimum with slopes of the order
    # of the Laplacian eigenvalues, so the bracket is shrunk well below the
    # requested eps tolerance to pin the optimal value too.
    width = tol * 1e-3
    hi = 2.0 / lam_max
    for _ in range(4):
        eps, val = _golden_min(objective.value, 0.0, hi, width)
        if hi - eps > 10.0 * tol:
            break
        hi *= 2.0
    else:
        eps, val = _golden_min(objective.value, 0.0, hi, width)
    # A node that never mixes keeps an eigenvalue of exactly 1; the margin
    # absorbs eigensolver rounding.
    if val >= 1.0 - 1e-12:
        warnings.warn(
            f"s* = {val:.6g} >= 1: no step size contracts the expected consensus "
            "error, since some nodes never exchange (e.g. zero-probability "
            "subsets); raise min_subset_prob above 0"
        )
    return EpsilonSearch(epsilon=eps, value=val, bracket_hi=hi)

