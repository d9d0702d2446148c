"""Topology presets and generators for experiments."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .graph import Topology, _connected, load_topology

# Uniforms per block of rows in one er_topology draw.
_DRAW_BLOCK = 2**16


def path_topology(n: int) -> Topology:
    return Topology(n, [(i, i + 1) for i in range(n - 1)])


def ring_topology(n: int) -> Topology:
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    return Topology(n, [(i, (i + 1) % n) for i in range(n)])


def star_topology(n: int) -> Topology:
    """Center 0 with n - 1 leaves."""
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    return Topology(n, [(0, i) for i in range(1, n)])


def two_stars_topology(n1: int, n2: int) -> Topology:
    """Two star centers joined by an edge.

    Nodes 0 and 1 are the centers; nodes 2..n1 are leaves of center 0 and
    nodes n1+1..n1+n2-1 are leaves of center 1 (n1, n2 count each star's
    nodes including its center).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("each star needs at least its center")
    edges = [(0, 1)]
    edges.extend((0, v) for v in range(2, n1 + 1))
    edges.extend((1, v) for v in range(n1 + 1, n1 + n2))
    return Topology(n1 + n2, edges)


def er_topology(n: int, p: float, seed: int, max_tries: int = 100) -> Topology:
    """Connected Erdos-Renyi graph, resampled up to max_tries times.

    Each attempt draws one uniform per node pair in lexicographic order, a
    block of whole rows i (the pairs (i, j > i)) at a time, so the result is
    deterministic given (n, p, seed) and a draw needs O(_DRAW_BLOCK + m)
    memory. Connectivity is tested on the drawn edges, after a cheap test
    that rejects a draw with an isolated node (every uniform of the attempt
    is drawn by then, so the stream does not change), and only the accepted
    draw is built into a Topology.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    step = max(1, _DRAW_BLOCK // n)
    for _ in range(max_tries):
        blocks = []
        for lo in range(0, n, step):
            counts = n - 1 - np.arange(lo, min(n, lo + step))
            starts = np.cumsum(counts) - counts
            hits = np.flatnonzero(rng.random(counts.sum()) < p)
            row = np.searchsorted(starts, hits, side="right") - 1
            blocks.append(np.column_stack([lo + row, lo + row + 1 + hits - starts[row]]))
        edges = np.concatenate(blocks)
        isolated = n > 1 and not np.bincount(edges.ravel(), minlength=n).all()
        if not isolated and _connected(n, edges):
            return Topology(n, edges)
    raise ValueError(
        f"no connected graph in {max_tries} draws of er(n={n}, p={p}); try a larger p"
    )


_PRESET_RE = re.compile(r"^\s*([a-zA-Z_-]+)\s*\(\s*([^)]*)\s*\)\s*$")


def make_topology(spec: str) -> Topology:
    """Build a topology from a preset string or a file path.

    Presets: ``path(n)``, ``ring(n)``, ``star(n)``, ``two-stars(n1,n2)``,
    ``er(n,p,seed)``. Anything else is treated as a topology file path.
    """
    match = _PRESET_RE.match(spec)
    if not match:
        path = Path(spec)
        if path.exists():
            return load_topology(path)
        raise ValueError(f"unknown topology spec {spec!r} (and no such file)")
    name = match.group(1).lower().replace("_", "-")
    args = [a.strip() for a in match.group(2).split(",") if a.strip()]
    builders = {
        "path": (1, lambda a: path_topology(int(a[0]))),
        "ring": (1, lambda a: ring_topology(int(a[0]))),
        "star": (1, lambda a: star_topology(int(a[0]))),
        "two-stars": (2, lambda a: two_stars_topology(int(a[0]), int(a[1]))),
        "er": (3, lambda a: er_topology(int(a[0]), float(a[1]), int(a[2]))),
    }
    if name not in builders:
        raise ValueError(f"unknown topology preset {name!r}")
    arity, build = builders[name]
    if len(args) != arity:
        raise ValueError(f"preset {name!r} takes {arity} argument(s), got {len(args)}")
    return build(args)
