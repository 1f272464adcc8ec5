import hashlib
import random

import pytest

from mcgc.errors import GraphError, InputError
from mcgc.eulerian import Multigraph, eulerian_circuit


def assert_valid_circuit(g: Multigraph, circuit: list[int], start: int):
    """Circuit covers every edge exactly once when read cyclically."""
    assert len(circuit) == g.edge_count
    assert circuit[0] == start
    remaining = {}
    for eid, (u, v) in enumerate(g.edges()):
        remaining.setdefault(frozenset((u, v)), []).append(eid)
    for i in range(len(circuit)):
        u, v = circuit[i], circuit[(i + 1) % len(circuit)]
        key = frozenset((u, v))
        assert remaining.get(key), f"step {u}-{v} is not an available edge"
        remaining[key].pop()
    assert all(not ids for ids in remaining.values())


def test_complete_5_circuit():
    g = Multigraph.complete(5)
    circuit = eulerian_circuit(g, 1)
    assert_valid_circuit(g, circuit, 1)
    assert len(circuit) == 10


def test_complete_6_minus_matching():
    g = Multigraph.complete(6, skip_edges=[(1, 2), (3, 4), (5, 6)])
    circuit = eulerian_circuit(g, 1)
    assert_valid_circuit(g, circuit, 1)
    assert len(circuit) == 12


def test_loops_consumed_on_first_arrival():
    g = Multigraph.complete(3, loops=True)
    circuit = eulerian_circuit(g, 1)
    assert_valid_circuit(g, circuit, 1)
    # every vertex appears doubled at its first visit
    assert circuit == [1, 1, 2, 2, 3, 3]


def test_single_vertex_loop():
    g = Multigraph(1)
    g.add_edge(1, 1)
    assert eulerian_circuit(g, 1) == [1]


def test_deterministic():
    g1 = Multigraph.complete(7, loops=True)
    g2 = Multigraph.complete(7, loops=True)
    assert eulerian_circuit(g1, 1) == eulerian_circuit(g2, 1)


def test_odd_degree_rejected():
    g = Multigraph(3)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    with pytest.raises(GraphError, match="odd degree"):
        eulerian_circuit(g, 1)


def test_disconnected_edges_rejected():
    g = Multigraph(4)
    g.add_edge(1, 1)
    g.add_edge(2, 3)
    g.add_edge(3, 4)
    g.add_edge(4, 2)
    with pytest.raises(GraphError, match="not connected"):
        eulerian_circuit(g, 1)


def test_no_edges_rejected():
    with pytest.raises(GraphError, match="no edges"):
        eulerian_circuit(Multigraph(2), 1)


def test_degree_counts_loops_twice():
    g = Multigraph(2)
    g.add_edge(1, 1)
    g.add_edge(1, 2)
    assert g.degree(1) == 3
    assert g.degree(2) == 1


def _outcome(g: Multigraph, start: int) -> str:
    try:
        walked = eulerian_circuit(g, start)
    except (GraphError, InputError) as exc:
        walked = str(exc)
    return f"{g.edges()} {start} {walked}\n"


def _random_outcomes(rng: random.Random):
    """Closed walks added edge by edge in shuffled order, each edge turned at
    random (loops, parallel edges and ties between edge ids), plus stray edges
    (odd degrees, out-of-range vertices) and starts anywhere in 0..n+1."""
    for _ in range(5000):
        n = rng.randint(1, 7)
        g, added = Multigraph(n), []
        for _ in range(rng.choice((0, 1, 1, 2, 3))):  # two or more may not meet
            walk = rng.choices(range(1, n + 1), k=rng.randint(1, 9))
            pairs = list(zip(walk, walk[1:] + walk[:1]))
            rng.shuffle(pairs)
            for u, v in pairs:
                added.append(g.add_edge(*rng.sample((u, v), 2)))
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            try:
                added.append(g.add_edge(rng.randint(0, n + 1), rng.randint(0, n + 1)))
            except InputError as exc:
                added.append(str(exc))
        yield f"{added} " + _outcome(g, rng.choice((1, 1, rng.randint(0, n + 1))))


def _complete_outcomes():
    """Complete graphs with and without loops, less a perfect matching given in
    both orders, and skip pairs that name no edge: loops, single vertices,
    triples and vertices out of range."""
    for k in range(1, 31):
        matching = [(v + 1, v) for v in range(1, k, 2)] if k % 2 == 0 else []
        skips = [*matching, (k, k), (1,), (1, 2, 3), (0, k + 1)]
        for loops in (False, True):
            yield _outcome(Multigraph.complete(k, loops=loops), 1)
            yield _outcome(Multigraph.complete(k, loops=loops, skip_edges=skips), k)


def test_circuits_and_errors_are_pinned():
    # recorded before the walk was written as one sorted row per vertex and
    # one edge per step
    digest = hashlib.sha256()
    for line in (*_random_outcomes(random.Random(0xE01E)), *_complete_outcomes()):
        digest.update(line.encode())
    assert digest.hexdigest() == (
        "6df24550742ff2ba9e692a1a8147ccc455fd9b889c8b0646c0bd4087c44c32e9"
    )
