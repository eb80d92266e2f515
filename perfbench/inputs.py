"""Instance generators for the benchmark.

The benchmark makes its own inputs, so a change to the library's CLI
generators cannot change what is measured.  Every instance is a plain
``(n_left, n_right, edges)`` triple until it is round-tripped through the
library's ``p bm`` text format.
"""

from __future__ import annotations

import random


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Random bipartite G(n, p) with n vertices per side, edges in (left, right) order."""
    return [(u, v) for u in range(n) for v in range(n) if rng.random() < p]


def long_path_edges(pairs: int) -> list[tuple[int, int]]:
    """One path L-R-L-R-... through 2*pairs vertices, left labels reversed.

    Path position i holds left vertex pairs-1-i and right vertex i, so the
    edges are (pairs-1-i, i) and, between consecutive positions,
    (pairs-2-i, i).  The path has a perfect matching of size ``pairs``.
    """
    edges = []
    for i in range(pairs):
        edges.append((pairs - 1 - i, i))
        if i + 1 < pairs:
            edges.append((pairs - 2 - i, i))
    return edges


def drop_pairs(pairs, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """The warm-repair deletion rule: remove k pairs, drawn uniformly from the
    sorted pair list, and return the remaining pairs in sorted order."""
    ordered = sorted(pairs)
    dropped = set(rng.sample(ordered, k))
    return [q for q in ordered if q not in dropped]
