"""Undirected multigraphs and deterministic Eulerian circuits."""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations, filterfalse

from .errors import GraphError, InputError

__all__ = ["Multigraph", "eulerian_circuit"]


class Multigraph:
    """Undirected multigraph on vertices 1..vertex_count; loops allowed.

    Every edge carries an identity so parallel edges can coexist.  A loop
    contributes 2 to its vertex's degree.
    """

    def __init__(self, vertex_count: int):
        if vertex_count < 1:
            raise InputError("vertex count must be at least 1")
        self.vertex_count = vertex_count
        self._incidence: list[list[tuple[int, int]]] = [
            [] for _ in range(vertex_count + 1)
        ]
        self._edges: list[tuple[int, int]] = []

    @classmethod
    def complete(cls, k: int, loops: bool = False, skip_edges=()) -> "Multigraph":
        """The complete graph on [k]; optionally a loop per vertex; edges
        listed in skip_edges (unordered pairs) are left out."""
        g = cls(k)
        skip = set()  # both orders of each skipped pair of distinct vertices
        for pair in map(tuple, map(frozenset, skip_edges)):
            if len(pair) == 2:
                skip.update((pair, pair[::-1]))
        edges = filterfalse(skip.__contains__, combinations(range(1, k + 1), 2))
        if loops:
            edges = chain(edges, zip(range(1, k + 1), range(1, k + 1)))
        for u, v in edges:
            g._link(u, v)
        return g

    def add_edge(self, u: int, v: int) -> int:
        for w in (u, v):
            if not 1 <= w <= self.vertex_count:
                raise InputError(f"vertex {w} out of range 1..{self.vertex_count}")
        return self._link(u, v)

    def _link(self, u: int, v: int) -> int:
        """Add edge (u, v) with no range check; ids rise within each incidence row."""
        edge_id = len(self._edges)
        self._edges.append((u, v))
        self._incidence[u].append((v, edge_id))
        if v != u:
            self._incidence[v].append((u, edge_id))
        return edge_id

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        return list(self._edges)

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.vertex_count:
            raise InputError(f"vertex {v} out of range 1..{self.vertex_count}")
        return sum(2 if nb == v else 1 for nb, _ in self._incidence[v])


def eulerian_circuit(g: Multigraph, start: int) -> list[int]:
    """Closed walk using every edge exactly once, returned as the vertex
    visit order with the final return to start omitted (so the list length
    equals the edge count).

    Deterministic: at each vertex the walk consumes loops first, then the
    lowest-numbered available neighbor.
    """
    if g.edge_count == 0:
        raise GraphError("graph has no edges")
    # each row in walk order, reversed so the next entry pops off its end:
    # loops first, then by neighbor; edge ids rise within a row, so ties
    # keep the order the edges were added in
    adjacency: list[list[tuple[int, int]]] = [[]]
    for v in range(1, g.vertex_count + 1):
        row = sorted(g._incidence[v])
        lo, hi = bisect_left(row, (v,)), bisect_left(row, (v + 1,))
        degree = len(row) + hi - lo  # a loop counts twice
        if degree % 2 == 1:
            raise GraphError(f"vertex {v} has odd degree {degree}; not Eulerian")
        row = row[lo:hi] + row[:lo] + row[hi:]
        row.reverse()
        adjacency.append(row)
    if g.degree(start) == 0:
        raise GraphError(f"start vertex {start} touches no edges")

    used = [False] * g.edge_count
    stack = [start]
    trail: list[int] = []
    while stack:
        v = stack[-1]
        while True:  # follow unused edges until stuck, then back up one vertex
            row = adjacency[v]
            while row and used[row[-1][1]]:
                row.pop()
            if not row:
                break
            v, eid = row.pop()
            used[eid] = True
            stack.append(v)
        trail.append(stack.pop())
    if not all(used):
        raise GraphError("edge set is not connected; no single circuit covers it")
    trail.reverse()
    return trail[:-1]
