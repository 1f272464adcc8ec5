"""Library error paths that no other test reaches: each call's exception
class and exact text."""

import pytest

from mcgc import bounds, sim
from mcgc.construct import build_m3_pair, canonical_one_factor
from mcgc.crossing import compose_for_m, plan_cross, shift_palette, split_window
from mcgc.errors import (
    GraphError,
    InputError,
    PlanError,
    UnsupportedParameterError,
)
from mcgc.eulerian import Multigraph, eulerian_circuit
from mcgc.grid2d import ColorGrid2D, block_multiset
from mcgc.sequences import ColorSequence, Multiset, window_multiset


def two_edge_graph() -> Multigraph:
    g = Multigraph(3)
    g.add_edge(1, 2)
    g.add_edge(2, 1)
    return g


CYCLIC_GRID = ColorGrid2D(((1, 2), (2, 1)), 2, "cyclic")

CASES = {
    "upper_bound": (
        lambda: bounds.upper_bound(0, 3),
        InputError, "need m >= 1 and k >= 1",
    ),
    "min_colors_1d": (
        lambda: bounds.min_colors_1d(1000, 2),
        UnsupportedParameterError, "no palette up to 5 reaches length 1000 for window 2",
    ),
    "canonical_one_factor": (
        lambda: canonical_one_factor(3),
        InputError, "a perfect matching needs an even vertex count",
    ),
    "build_m3_pair": (
        lambda: build_m3_pair(4),
        UnsupportedParameterError,
        "recursion pair needs k a multiple of 3 with k >= 6, got 4",
    ),
    "plan_cross": (
        lambda: plan_cross(0, 1, 4, 2),
        PlanError, "M1 must be positive, got 0",
    ),
    "shift_palette": (
        lambda: shift_palette(ColorSequence((1, 2, 1, 1, 2, 2), 2), -1),
        InputError, "palette shift must be non-negative",
    ),
    "split_window": (
        lambda: split_window(1),
        InputError, "composition needs a window of at least 2",
    ),
    "compose_for_m": (
        lambda: compose_for_m(4, min_length=0),
        InputError, "min_length must be at least 1",
    ),
    "Multigraph": (
        lambda: Multigraph(0),
        InputError, "vertex count must be at least 1",
    ),
    "add_edge": (
        lambda: Multigraph(3).add_edge(1, 9),
        InputError, "vertex 9 out of range 1..3",
    ),
    "degree": (
        lambda: Multigraph(3).degree(9),
        InputError, "vertex 9 out of range 1..3",
    ),
    "eulerian_circuit": (
        lambda: eulerian_circuit(two_edge_graph(), 3),
        GraphError, "start vertex 3 touches no edges",
    ),
    "ColorGrid2D": (
        lambda: ColorGrid2D((), 1),
        InputError, "grid needs at least one row and one column",
    ),
    "block_multiset": (
        lambda: block_multiset(CYCLIC_GRID, 2, 0, 1, 1),
        InputError, "tag point (2, 0) outside the grid",
    ),
    # a whole-valued float lies in range(n) but cannot index the cells
    "block_multiset_float": (
        lambda: block_multiset(CYCLIC_GRID, 1.0, 0, 1, 1),
        InputError, "tag point (1.0, 0) outside the grid",
    ),
    "window_multiset_float": (
        lambda: window_multiset(ColorSequence((1, 2, 1), 2, "linear"), 1.0, 2),
        InputError, "window start 1.0 out of range for mode linear",
    ),
    "Multiset": (
        lambda: Multiset((1, -1)),
        InputError, "negative multiplicity in count vector",
    ),
    "from_key": (
        lambda: Multiset.from_key("1-x"),
        InputError, "malformed multiset key '1-x'",
    ),
    "axis_sequence_window": (
        lambda: sim.axis_sequence(5, 0),
        InputError, "window must be at least 1",
    ),
    "axis_sequence_side": (
        lambda: sim.axis_sequence(1, 2),
        InputError, "axis shorter than the window",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_error_class_and_text(case, monkeypatch):
    # lets min_colors_1d(1000, 2) give up at once; no other case reads it
    monkeypatch.setattr(bounds, "_K_LIMIT", 5)
    call, error, text = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text
    if error is PlanError:
        assert info.value.failed == "positive"


def test_non_integer_tag_is_outside_the_coding_area():
    with pytest.raises(InputError, match=r"tag point \(0\.5, 0\) outside the grid"):
        block_multiset(CYCLIC_GRID, 0.5, 0, 1, 1)
