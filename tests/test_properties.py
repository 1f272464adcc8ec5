"""Property tests: the window-key kernel against the naive quadratic oracles,
the axis-backed product codebook against the grid's codebook (also on keys
of other lengths than a block's), decoding from reported colors against
decoding a multiset, the count-vector keys a codebook takes and finds
against an independent oracle, compose_for_m's pick against the exhaustive
palette oracle, the exhaustive search against a search over every word,
format-then-parse round trips of the sequence, grid and codebook files, and
a slot record's and the bound, kmin and gain tables' JSON against
json.dumps."""

import json
from dataclasses import asdict, fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    naive_compose,
    naive_distinguishable,
    naive_grid_distinguishable,
    naive_max_cyclic,
)

from mcgc.bounds import BoundRecord, GainRecord, _table_chunks, gain_3dp, upper_bound
from mcgc.construct import build
from mcgc.crossing import compose_for_m
from mcgc.errors import ComposeError, InputError, McgcError, UnknownBlockError
from mcgc.grid2d import (
    Codebook,
    ColorGrid2D,
    block_multiset,
    block_starts,
    build_codebook,
    check_grid_distinguishable,
    decode,
    decode_colors,
    format_codebook,
    format_grid,
    parse_codebook,
    parse_grid,
    product_codebook,
    product_grid,
)
from mcgc.search import brute_force_max_cyclic
from mcgc.sequences import (
    ColorSequence,
    Multiset,
    check_distinguishable,
    format_sequence,
    parse_sequences,
)
from mcgc.sim import SlotRecord

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


# Codes of windows 1 to 3: axes that are distinguishable at their window.
CODES = [build(1, 4), build(2, 3), build(2, 4), build(3, 3)]


@st.composite
def axes(draw):
    """A short random word or, twice as often, a prefix of a code; linear or
    cyclic."""
    if draw(st.integers(0, 2)) == 0:
        seq = draw(words(max_k=4, max_len=7))
    else:
        code = draw(st.sampled_from(CODES))
        size = draw(st.integers(1, len(code)))
        seq = ColorSequence(code.colors[:size], code.palette_size)
    return seq.with_mode(draw(st.sampled_from(("linear", "cyclic"))))


def _outcome(fn, *args):
    """fn's result, or the type and args of the package error it raised."""
    try:
        return fn(*args)
    except McgcError as exc:
        return type(exc), exc.args


@PROPERTY
@given(axes(), axes(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_product_codebook_matches_grid_codebook(s1, s2, m, n, data):
    g = product_grid(s1, s2)
    want = _outcome(build_codebook, g, m, n)
    got = _outcome(product_codebook, s1, s2, m, n)
    if not isinstance(want, Codebook):
        assert got == want
        return
    assert isinstance(got, Codebook)
    assert got.size == want.size and got == want
    assert format_codebook(got) == format_codebook(want)
    queries = [block_multiset(g, x0, y0, m, n) for x0, y0 in block_starts(g, m, n)]
    block = st.lists(st.integers(1, g.palette_size), min_size=m * n, max_size=m * n)
    queries += [Multiset.of(colors, g.palette_size) for colors in data.draw(
        st.lists(block, max_size=20))]
    for query in queries:
        assert _outcome(decode, got, query) == _outcome(decode, want, query)


def _decode_multiset(cb, colors):
    return decode(cb, Multiset.of(colors, cb.palette_size))


@PROPERTY
@given(axes(), axes(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_decode_colors_matches_decode(s1, s2, m, n, data):
    g = product_grid(s1, s2)
    books = [_outcome(build_codebook, g, m, n), _outcome(product_codebook, s1, s2, m, n)]
    books = [cb for cb in books if isinstance(cb, Codebook)]
    books += [parse_codebook(format_codebook(cb)) for cb in books]
    k, size = g.palette_size, m * n
    shuffle = data.draw(st.randoms(use_true_random=False)).shuffle
    queries = []
    for x0, y0 in block_starts(g, m, n) if books else ():
        colors = [g.color((x0 + i) % g.M, (y0 + j) % g.N) for i in range(m) for j in range(n)]
        shuffle(colors)
        queries.append(colors)
    misses = st.lists(st.integers(1, k), min_size=size, max_size=size)
    wrong_size = st.lists(st.integers(1, k), max_size=size + 2).filter(lambda c: len(c) != size)
    off_palette = st.tuples(  # two or three colors outside the palette, anywhere
        st.lists(st.integers(1, k), max_size=size),
        st.lists(st.sampled_from((-1, 0, k + 1, k + 9)), min_size=2, max_size=3),
    ).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
    queries += data.draw(st.lists(st.one_of(misses, wrong_size, off_palette), max_size=20))
    for cb in books:
        rows = format_codebook(cb).splitlines()[2:]
        counts = [tuple(map(int, row.split(",")[0].split("-"))) for row in rows]
        assert counts == sorted(counts) and len(counts) == cb.size
        for colors in queries:
            assert _outcome(decode_colors, cb, colors) == _outcome(_decode_multiset, cb, colors)


def _count_vector_ok(v, k, size):
    """Independent oracle: is v a codebook key of size colors over k?"""
    return len(v) == k and min(v) >= 0 and sum(v) == size


def count_vectors(k):
    """Count vectors of length k-1..k+1 with entries in -1..3."""
    return st.lists(st.integers(-1, 3), min_size=k - 1, max_size=k + 1).map(tuple)


@PROPERTY
@given(
    st.integers(1, 2), st.integers(1, 2),
    st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), count_vectors(k))),
    st.sampled_from(("plain", "cyclic")),
)
@example(2, 1, (3, (2, -1, 1)), "plain")
@example(1, 2, (3, (1, -1, 2)), "cyclic")
@example(1, 1, (1, ()), "plain")
def test_codebook_takes_exactly_the_count_vectors_of_its_shape(m, n, case, mode):
    k, v = case
    try:
        cb = Codebook(m, n, k, mode, {v: (0, 0)})
    except InputError:
        assert not _count_vector_ok(v, k, m * n)
    else:
        assert _count_vector_ok(v, k, m * n)
        assert cb.entries[v] == (0, 0) and list(cb.entries) == [v]


@PROPERTY
@given(axes(), axes(), st.integers(1, 2), st.integers(1, 2), st.data())
def test_count_vector_lookup_matches_oracle(s1, s2, m, n, data):
    g = product_grid(s1, s2)
    books = [_outcome(build_codebook, g, m, n), _outcome(product_codebook, s1, s2, m, n)]
    books = [cb for cb in books if isinstance(cb, Codebook)]
    if not books:
        return
    k = g.palette_size
    blocks = sorted({block_multiset(g, x0, y0, m, n).counts for x0, y0 in block_starts(g, m, n)})
    # a block's vector with one entry moved by one: near misses, some negative
    moved = st.tuples(st.sampled_from(blocks), st.integers(0, k - 1), st.sampled_from((-1, 1)))
    nudged = moved.map(lambda b: b[0][: b[1]] + (b[0][b[1]] + b[2],) + b[0][b[1] + 1 :])
    vectors = data.draw(
        st.lists(st.one_of(st.sampled_from(blocks), nudged, count_vectors(k)), max_size=20)
    )
    for v in vectors:
        want = _count_vector_ok(v, k, m * n) and v in blocks
        for cb in books:
            assert (v in cb.entries) == want


@PROPERTY
@given(axes(), axes(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_product_lookup_matches_grid_lookup_at_nearby_key_lengths(s1, s2, m, n, data):
    books = [
        _outcome(build_codebook, product_grid(s1, s2), m, n),
        _outcome(product_codebook, s1, s2, m, n),
    ]
    if not all(isinstance(cb, Codebook) for cb in books):
        return
    want, got = (cb.entries.table for cb in books)
    size, color = m * n, st.integers(1, books[0].palette_size)
    lengths = st.integers(max(0, size - 2), size + 2)
    fresh = lengths.flatmap(lambda length: st.lists(color, min_size=length, max_size=length))
    # a real key cut short, or padded with two more colors, to length
    resized = st.tuples(st.sampled_from(sorted(want)), st.lists(color, min_size=2, max_size=2),
                        lengths).map(lambda t: (t[0] + tuple(t[1]))[: t[2]])
    for key in data.draw(st.lists(st.one_of(fresh, resized), min_size=1, max_size=30)):
        key = tuple(sorted(key))
        assert got.get(key) == want.get(key)


def test_product_codebook_checks_the_pairs_not_only_the_projections():
    # the block at (0, 0) holds the pairs (1,1), (1,2), (2,1), (2,2); the
    # multisets {(1,1), (2,2)} and {(1,2), (2,1)}, each twice, have the same
    # row and column projections but are no block
    axis = ColorSequence((1, 2, 2), 2, "linear")
    cb = product_codebook(axis, axis, 2, 2)
    assert decode(cb, Multiset.of([1, 2, 3, 4], 4)) == (0, 0)
    for colors in ([1, 1, 4, 4], [2, 2, 3, 3]):
        query = Multiset.of(colors, 4)
        with pytest.raises(UnknownBlockError, match="is not a code symbol"):
            decode(cb, query)
        assert query.counts not in cb.entries
    assert cb == build_codebook(product_grid(axis, axis), 2, 2)


# cached_builds only memoizes deterministic builds, so sharing it between
# examples is sound.
@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(range(2, 10)),
    st.integers(0, 30),
    st.one_of(st.integers(1, 3000), st.integers(1, 10**12)),
)
def test_compose_matches_exhaustive_oracle(cached_builds, m, max_colors, min_length):
    want = naive_compose(m, max_colors, min_length)
    if want is None:
        with pytest.raises(ComposeError):
            compose_for_m(m, max_colors=max_colors, min_length=min_length)
        return
    got = compose_for_m(m, max_colors=max_colors, min_length=min_length)
    assert (got.factor_palettes, got.plans) == want


@st.composite
def search_instances(draw):
    # ceilings up to 10 keep the oracle's k**(cap - 1) words few
    m, k = draw(
        st.tuples(st.integers(1, 9), st.integers(1, 6)).filter(
            lambda mk: upper_bound(*mk, cyclic=True) <= 10
        )
    )
    return m, k, draw(st.integers(1, upper_bound(m, k, cyclic=True) + 1))


@settings(PROPERTY, max_examples=100)
@given(search_instances())
def test_search_matches_exhaustive_oracle(case):
    m, k, cap = case
    result = brute_force_max_cyclic(m, k, cap)
    assert (result.max_length, result.witness.colors) == naive_max_cyclic(m, k, cap)


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


# Small ints, and ints beyond 64 bits of either sign.
RECORD_INT = st.one_of(
    st.integers(-1000, 1000), st.integers(2**63, 2**80), st.integers(-(2**80), -(2**63))
)
RECORD_POINT = st.tuples(RECORD_INT, RECORD_INT)


@st.composite
def slot_records(draw):
    """Records whose sensors and report have as many entries as an m x m
    block for m = 1, 2, 3."""
    size = draw(st.sampled_from((1, 4, 9)))
    return SlotRecord(
        draw(RECORD_INT),
        draw(RECORD_POINT),
        tuple(draw(st.lists(RECORD_POINT, min_size=size, max_size=size))),
        tuple(draw(st.lists(RECORD_INT, min_size=size, max_size=size))),
        draw(RECORD_POINT),
        draw(RECORD_INT),
    )


@PROPERTY
@given(slot_records())
@example(SlotRecord(-1, (2**64, -3), ((0, -(2**70)),), (2**63,), (5, -6), 0))
def test_slot_record_json_matches_json_dumps(record):
    payload = {f.name: getattr(record, f.name) for f in fields(record)}
    want = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert record.to_json() == want


TABLE_ROWS = {
    "bounds": st.builds(
        BoundRecord, RECORD_INT, RECORD_INT, RECORD_INT, RECORD_INT, st.booleans(),
        st.text(), st.text(), st.booleans(),
    ),
    "kmin": st.tuples(RECORD_INT, RECORD_INT, RECORD_INT),
    "gain": st.builds(
        GainRecord, *[RECORD_INT] * 6, st.floats(-1e6, 1e6) | st.sampled_from([0.4347, 1.0])
    ),
}
# the reference: each table's JSON objects built directly from its rows
TABLE_OBJECTS = {
    "bounds": asdict,
    "kmin": lambda row: {"m": row[0], "M": row[1], "k": row[2]},
    "gain": lambda r: asdict(r) | {"gain": gain_3dp(r.gain)},
}


@PROPERTY
@given(st.sampled_from(sorted(TABLE_ROWS)).flatmap(
    lambda table: st.tuples(st.just(table), st.lists(TABLE_ROWS[table], max_size=5))
))
@example(("bounds", []))
def test_table_json_matches_json_dumps(case):
    table, rows = case
    want = json.dumps([TABLE_OBJECTS[table](r) for r in rows], sort_keys=True, indent=2)
    assert "".join(_table_chunks(table, rows, "json")) == want + "\n"
