"""Topology presets and generators for experiments."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .graph import Topology, _connected, load_topology

# Uniforms per block of rows in one er_topology draw.
_DRAW_BLOCK = 2**16
# Draws er_topology makes before it gives up on a connected graph.
_MAX_TRIES = 100


def path_topology(n: int) -> Topology:
    return Topology(n, [(i, i + 1) for i in range(n - 1)])


def ring_topology(n: int) -> Topology:
    if n < 3:
        raise ValueError(f"a ring needs node count n >= 3, got {n}")
    return Topology(n, [(i, (i + 1) % n) for i in range(n)])


def star_topology(n: int) -> Topology:
    """Center 0 with n - 1 leaves."""
    if n < 2:
        raise ValueError(f"a star needs node count n >= 2, got {n}")
    return Topology(n, [(0, i) for i in range(1, n)])


def two_stars_topology(n1: int, n2: int) -> Topology:
    """Two star centers joined by an edge.

    Nodes 0 and 1 are the centers; nodes 2..n1 are leaves of center 0 and
    nodes n1+1..n1+n2-1 are leaves of center 1 (n1, n2 count each star's
    nodes including its center).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"each star needs at least its center, got n1 = {n1}, n2 = {n2}")
    edges = [(0, 1)]
    edges.extend((0, v) for v in range(2, n1 + 1))
    edges.extend((1, v) for v in range(n1 + 1, n1 + n2))
    return Topology(n1 + n2, edges)


def er_topology(n: int, p: float, seed: int) -> Topology:
    """Connected Erdos-Renyi graph, resampled up to _MAX_TRIES times.

    Each attempt draws one uniform per node pair in lexicographic order, a
    block of whole rows i (the pairs (i, j > i)) at a time, so the result is
    deterministic given (n, p, seed) and a draw needs O(_DRAW_BLOCK + m)
    memory. Connectivity is tested on the drawn edges, after a cheap test
    that rejects a draw with an isolated node (every uniform of the attempt
    is drawn by then, so the stream does not change), and only the accepted
    draw is built into a Topology.
    """
    if n < 1:
        raise ValueError(f"node count n must be >= 1, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability p must lie in [0, 1], got {p}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    step = max(1, _DRAW_BLOCK // n)
    for _ in range(_MAX_TRIES):
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
        f"no connected graph in {_MAX_TRIES} draws of er(n={n}, p={p}); try a larger p"
    )


_PRESET_RE = re.compile(r"^\s*([a-zA-Z_-]+)\s*\(\s*([^)]*)\s*\)\s*$")


def make_topology(spec: str) -> Topology:
    """Build a topology from a preset string or a file path.

    Presets: ``path(n)``, ``ring(n)``, ``star(n)``, ``two-stars(n1,n2)``,
    ``er(n,p,seed)``. Anything else is treated as a topology file path. An
    argument that does not parse or is out of range fails with a message
    naming the preset and the argument.
    """
    match = _PRESET_RE.match(spec)
    if not match:
        path = Path(spec)
        if path.exists():
            return load_topology(path)
        raise ValueError(f"unknown topology spec {spec!r} (and no such file)")
    name = match.group(1).lower().replace("_", "-")
    args = [a.strip() for a in match.group(2).split(",") if a.strip()]
    # Each preset's builder and its arguments' names and types, in order.
    builders = {
        "path": (path_topology, (("n", int),)),
        "ring": (ring_topology, (("n", int),)),
        "star": (star_topology, (("n", int),)),
        "two-stars": (two_stars_topology, (("n1", int), ("n2", int))),
        "er": (er_topology, (("n", int), ("p", float), ("seed", int))),
    }
    if name not in builders:
        raise ValueError(f"unknown topology preset {name!r}")
    build, params = builders[name]
    if len(args) != len(params):
        raise ValueError(f"preset {name!r} takes {len(params)} argument(s), got {len(args)}")
    values = []
    for (key, kind), text in zip(params, args):
        try:
            values.append(kind(text))
        except ValueError:
            what = "an integer" if kind is int else "a real number"
            raise ValueError(f"preset {name!r}: {key} must be {what}, got {text!r}") from None
    try:
        return build(*values)
    except ValueError as err:
        raise ValueError(f"preset {name!r}: {err}") from None
