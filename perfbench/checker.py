"""Exactness check that shares no code with the library it checks.

A result passes when it is a matching of the graph (every pair is an edge and
no vertex repeats), no augmenting path exists (Berge's theorem: then the
matching is maximum), and its size equals the reference size given by the
caller.
"""

from __future__ import annotations

from collections import deque


def matching_errors(n_left: int, n_right: int, edges, pairs,
                    expected_size: int | None = None) -> list[str]:
    """Return one message per violated condition (empty = exact maximum matching)."""
    errors: list[str] = []
    edge_set = set(edges)
    mate_l: dict[int, int] = {}
    mate_r: dict[int, int] = {}
    for u, v in pairs:
        if (u, v) not in edge_set:
            errors.append(f"pair ({u},{v}) is not an edge")
        if u in mate_l or v in mate_r:
            errors.append(f"pair ({u},{v}) reuses a vertex")
        mate_l[u] = v
        mate_r[v] = u
    if errors:
        return errors
    if expected_size is not None and len(mate_l) != expected_size:
        errors.append(f"size {len(mate_l)} differs from reference size {expected_size}")
    path_end = _augmenting_path_end(n_left, n_right, edges, mate_l, mate_r)
    if path_end is not None:
        errors.append(f"augmenting path ends at free right vertex {path_end}")
    return errors


def _augmenting_path_end(n_left, n_right, edges, mate_l, mate_r) -> int | None:
    """Iterative alternating BFS from every free left vertex at once.

    Steps from a left vertex along unmatched edges and from a right vertex
    along its matched edge.  Reaching a free right vertex proves an
    augmenting path exists; that vertex is returned.
    """
    adj: list[list[int]] = [[] for _ in range(n_left)]
    for u, v in edges:
        adj[u].append(v)
    seen_l = [False] * n_left
    seen_r = [False] * n_right
    queue = deque()
    for u in range(n_left):
        if u not in mate_l:
            seen_l[u] = True
            queue.append(u)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if seen_r[v] or mate_l.get(u) == v:
                continue
            seen_r[v] = True
            w = mate_r.get(v)
            if w is None:
                return v
            if not seen_l[w]:
                seen_l[w] = True
                queue.append(w)
    return None
