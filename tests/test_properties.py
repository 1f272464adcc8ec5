"""Property tests: the window-key kernel against the naive quadratic oracles,
and format-then-parse round trips of the sequence, grid and codebook files."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_distinguishable, naive_grid_distinguishable

from mcgc.grid2d import (
    Codebook,
    ColorGrid2D,
    check_grid_distinguishable,
    format_codebook,
    format_grid,
    parse_codebook,
    parse_grid,
    product_grid,
)
from mcgc.sequences import (
    ColorSequence,
    Multiset,
    check_distinguishable,
    format_sequence,
    parse_sequences,
)

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


# Comment words as the commands write them: free words and key=value tokens
# whose keys are not header keys of the sequence format.
COMMENT_TOKEN = st.one_of(
    st.sampled_from(["search", "proven", "cap-limited", "stage", "0:", "compose"]),
    st.builds(
        "{}={}".format,
        st.sampled_from(["m", "max", "cap", "ceiling", "split", "d", "L", "palettes"]),
        st.integers(0, 500),
    ),
)
COMMENTS = st.lists(st.lists(COMMENT_TOKEN, max_size=5).map(" ".join), max_size=3)


@st.composite
def split_header(draw, text):
    """The same file with its first '#' line split over several header lines,
    with blank lines between."""
    first, rest = text.split("\n", 1)
    tokens = first[1:].split()
    cuts = sorted(draw(st.sets(st.integers(1, len(tokens) - 1), max_size=3)))
    groups = [tokens[i:j] for i, j in zip([0, *cuts], [*cuts, len(tokens)])]
    sep = draw(st.sampled_from(["\n", "\n\n", "\n  \n"]))
    return sep.join("# " + " ".join(group) for group in groups) + "\n" + rest


@st.composite
def codebooks(draw):
    m, n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    block = st.lists(st.integers(1, k), min_size=m * n, max_size=m * n)
    key = block.map(lambda colors: Multiset.of(colors, k).counts)
    keys = draw(st.lists(key, min_size=1, max_size=12))
    tags = st.tuples(st.integers(0, 50), st.integers(0, 50))
    entries = {key: draw(tags) for key in keys}
    return Codebook(m, n, k, draw(st.sampled_from(("plain", "cyclic"))), entries)


@PROPERTY
@given(st.lists(st.tuples(words(), COMMENTS), min_size=1, max_size=4))
def test_sequence_files_round_trip(cases):
    text = "".join(format_sequence(seq, comments) for seq, comments in cases)
    assert parse_sequences(text) == [seq for seq, _ in cases]


@PROPERTY
@given(grid_and_block(), st.data())
def test_grid_files_round_trip(case, data):
    g = case[0]
    assert parse_grid(format_grid(g)) == g
    assert parse_grid(data.draw(split_header(format_grid(g)))) == g


@PROPERTY
@given(codebooks(), st.data())
def test_codebook_files_round_trip(cb, data):
    assert parse_codebook(format_codebook(cb)) == cb
    assert parse_codebook(data.draw(split_header(format_codebook(cb)))) == cb
