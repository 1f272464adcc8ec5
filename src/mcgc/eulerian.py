"""Undirected multigraphs and deterministic Eulerian circuits."""

from __future__ import annotations

from itertools import combinations

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
        skip = set(map(frozenset, skip_edges))
        for u, v in combinations(range(1, k + 1), 2):
            if frozenset((u, v)) not in skip:
                g.add_edge(u, v)
        if loops:
            for v in range(1, k + 1):
                g.add_edge(v, v)
        return g

    def add_edge(self, u: int, v: int) -> int:
        for w in (u, v):
            if not 1 <= w <= self.vertex_count:
                raise InputError(f"vertex {w} out of range 1..{self.vertex_count}")
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
    # each row in walk order (loops first, then by neighbor, then by edge id),
    # reversed so that the next edge pops off its end
    rows: list[list[tuple[int, int]]] = [[]]
    for v in range(1, g.vertex_count + 1):
        if g.degree(v) % 2 == 1:
            raise GraphError(f"vertex {v} has odd degree {g.degree(v)}; not Eulerian")
        rows.append(sorted(g._incidence[v], key=lambda e: (e[0] != v, e), reverse=True))
    if g.degree(start) == 0:
        raise GraphError(f"start vertex {start} touches no edges")

    used = [False] * g.edge_count
    stack = [start]
    trail: list[int] = []
    while stack:  # take one unused edge from the top vertex, or back up from it
        row = rows[stack[-1]]
        while row and used[row[-1][1]]:
            row.pop()
        if row:
            v, eid = row.pop()
            used[eid] = True
            stack.append(v)
        else:
            trail.append(stack.pop())
    if not all(used):
        raise GraphError("edge set is not connected; no single circuit covers it")
    trail.reverse()
    return trail[:-1]
