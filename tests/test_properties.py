"""Property tests: the window-key kernel against the naive quadratic oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_distinguishable, naive_grid_distinguishable

from mcgc.grid2d import ColorGrid2D, check_grid_distinguishable, product_grid
from mcgc.sequences import ColorSequence, check_distinguishable

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def words(draw, max_k=8, max_len=40, modes=("linear", "cyclic")):
    k = draw(st.integers(1, max_k))
    colors = draw(st.lists(st.integers(1, k), min_size=1, max_size=max_len))
    return ColorSequence(tuple(colors), k, draw(st.sampled_from(modes)))


@st.composite
def word_and_window(draw):
    seq = draw(words())
    return seq, draw(st.integers(1, len(seq)))


@st.composite
def grid_and_block(draw):
    mode = draw(st.sampled_from(("plain", "cyclic")))
    if draw(st.booleans()):
        axis_mode = "cyclic" if mode == "cyclic" else "linear"
        axes = words(max_k=4, max_len=9, modes=(axis_mode,))
        g = product_grid(draw(axes), draw(axes))
    else:
        k = draw(st.integers(1, 6))
        M, N = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        row = st.lists(st.integers(1, k), min_size=N, max_size=N).map(tuple)
        rows = draw(st.lists(row, min_size=M, max_size=M))
        g = ColorGrid2D(tuple(rows), k, mode)
    return g, draw(st.integers(1, g.M)), draw(st.integers(1, g.N))


@PROPERTY
@given(word_and_window())
def test_sequence_check_matches_naive_oracle(case):
    seq, m = case
    report = check_distinguishable(seq, m)
    assert (report.ok, report.collision) == naive_distinguishable(seq, m)
    expected = len(seq) if seq.mode == "cyclic" else len(seq) - m + 1
    assert report.window_count == expected


@PROPERTY
@given(grid_and_block())
def test_grid_check_matches_naive_oracle(case):
    g, m, n = case
    report = check_grid_distinguishable(g, m, n)
    assert (report.ok, report.collision) == naive_grid_distinguishable(g, m, n)
