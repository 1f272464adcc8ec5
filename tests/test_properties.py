"""Property tests: the window-key kernel against the naive quadratic oracles,
also with color weights whose sums repeat or collide, and on colors drawn
sparsely from palettes up to 10**12, past its weight memo, the palette rule
against a color-by-color loop, the axis-backed product codebook against the
grid's codebook (also on keys of other lengths than a block's), decoding
from reported colors against an oracle on their counts, decoding a multiset
however it was made (from colors, counts or key, copied or pickled) against
its count vector, the count-vector keys a codebook takes and finds against
an independent oracle, compose_for_m's pick
against the exhaustive palette oracle, the exhaustive search against a
search over every word and its node loop against the earlier one, node for
node, the gain table against one gain_record per row, min_colors_1d against
the least palette whose bound record reaches the length, search-max's early
refusal of a ceiling against its exact digits, format-then-parse round trips of the sequence, grid and codebook files, the
codebook rows and unknown-block text against count-vector keys, a slot
record's and the bound, kmin and gain tables' JSON against json.dumps, and
the slot loop, which decodes each cell once, against one that decodes every
slot."""

import copy
import itertools
import json
import math
import pickle
import random
import sys
from dataclasses import asdict, fields
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    naive_compose,
    naive_distinguishable,
    naive_grid_distinguishable,
    naive_max_cyclic,
    patched_placement,
)
from reference_search import _search as reference_search

from mcgc import sequences, sim
from mcgc.bounds import (
    BoundRecord,
    GainRecord,
    _refuse_unprintable_ceiling,
    _table_chunks,
    bound_record,
    gain_3dp,
    gain_record,
    gain_table,
    min_colors_1d,
    upper_bound,
)
from mcgc.construct import build
from mcgc.crossing import compose_for_m
from mcgc.errors import (
    CardinalityError,
    ComposeError,
    InputError,
    McgcError,
    TrackingError,
    UnknownBlockError,
    UnsupportedParameterError,
)
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
from mcgc.search import _search, brute_force_max_cyclic
from mcgc.sequences import (
    ColorSequence,
    Multiset,
    check_distinguishable,
    format_sequence,
    parse_sequences,
)
from mcgc.sim import SimConfig, SlotRecord, deploy, iter_slots

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


def _checks_match_oracles(word_case, grid_case):
    """Both checks agree with their oracles; a window longer than the word,
    or a block larger than the grid, is refused."""
    (seq, m), (g, bm, bn) = word_case, grid_case
    if m > len(seq):
        with pytest.raises(InputError, match="exceeds sequence length"):
            check_distinguishable(seq, m)
    else:
        report = check_distinguishable(seq, m)
        assert (report.ok, report.collision) == naive_distinguishable(seq, m)
    if bm > g.M or bn > g.N:
        with pytest.raises(InputError, match="larger than grid"):
            check_grid_distinguishable(g, bm, bn)
    else:
        report = check_grid_distinguishable(g, bm, bn)
        assert (report.ok, report.collision) == naive_grid_distinguishable(g, bm, bn)


# Palettes above stay within 16 colors, so a list of 17 weights covers them.
@PROPERTY
@given(word_and_window(), grid_and_block())
def test_checks_match_oracles_when_every_window_sum_repeats(word_case, grid_case):
    # one weight for every color: every window takes the exact-key path
    with patch.object(sequences, "_mix", lambda c: 1):
        _checks_match_oracles(word_case, grid_case)


@PROPERTY
@given(word_and_window(), grid_and_block(), st.lists(st.integers(1, 3), min_size=17, max_size=17))
def test_checks_match_oracles_when_weight_sums_collide(word_case, grid_case, weights):
    # sums of unequal multisets collide among the equal ones
    with patch.object(sequences, "_mix", weights.__getitem__):
        _checks_match_oracles(word_case, grid_case)


# The strategies above reuse 16 colors, whose weights the checks' memo
# (sequences._mix, 4096 colors) keeps after the first examples.  Colors drawn
# sparsely from palettes up to 10**12 miss it, and over a run evict from it.
@st.composite
def sparse_palette(draw):
    k = draw(st.integers(1, 10**12))
    return k, draw(st.lists(st.integers(1, k), min_size=1, max_size=6, unique=True))


@st.composite
def sparse_word_and_window(draw):
    k, palette = draw(sparse_palette())
    colors = draw(st.lists(st.sampled_from(palette), min_size=1, max_size=12))
    seq = ColorSequence(tuple(colors), k, draw(st.sampled_from(("linear", "cyclic"))))
    return seq, draw(st.integers(1, 4))


@st.composite
def sparse_grid_and_block(draw):
    k, palette = draw(sparse_palette())
    M, N = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(st.sampled_from(palette), min_size=N, max_size=N).map(tuple)
    rows = draw(st.lists(row, min_size=M, max_size=M))
    g = ColorGrid2D(tuple(rows), k, draw(st.sampled_from(("plain", "cyclic"))))
    return g, draw(st.integers(1, 4)), draw(st.integers(1, 4))


@PROPERTY
@given(sparse_word_and_window(), sparse_grid_and_block())
def test_checks_match_oracles_on_sparse_palettes(word_case, grid_case):
    for _ in range(2):  # with the weights not yet kept, then kept
        _checks_match_oracles(word_case, grid_case)


@st.composite
def many_colored_word_and_grid(draw):
    """A word, and a grid of 4 rows, each of more than 4096 distinct colors
    drawn sparsely from a palette up to 10**12, so that one check evicts
    weights it asked for.  One window of the word, and one block of the
    grid, is made again at a random place as a permutation of its colors,
    so the oracle's first collision, if any, is the one to find past the
    memo."""
    k = draw(st.integers(10**4, 10**12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    m, bm, bn = (draw(st.integers(1, 4)) for _ in range(3))
    colors = rng.sample(range(1, k + 1), rng.randint(4101, 4160))
    src, dst = (rng.randrange(len(colors) - m) for _ in range(2))
    colors[dst : dst + m] = rng.sample(colors[src : src + m], m)
    seq = ColorSequence(tuple(colors), k, draw(st.sampled_from(("linear", "cyclic"))))
    N = rng.randint(1029, 1040)
    cells = rng.sample(range(1, k + 1), 4 * N)
    rows = [cells[x * N : (x + 1) * N] for x in range(4)]
    (x0, y0), (x1, y1) = ((rng.randrange(5 - bm), rng.randrange(N - bn)) for _ in range(2))
    block = [rows[x0 + i][y0 + j] for i in range(bm) for j in range(bn)]
    rng.shuffle(block)
    for i in range(bm):
        rows[x1 + i][y1 : y1 + bn] = block[i * bn : (i + 1) * bn]
    g = ColorGrid2D(tuple(map(tuple, rows)), k, draw(st.sampled_from(("plain", "cyclic"))))
    return (seq, m), (g, bm, bn)


@settings(PROPERTY, max_examples=4)
@given(many_colored_word_and_grid())
def test_checks_match_oracles_past_the_weight_memo(case):
    for _ in range(2):
        _checks_match_oracles(*case)


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


def _palette_loop(k, colors):
    """The palette rule read color by color: the oracle for _require_palette."""
    if k < 1:
        raise InputError("palette size must be at least 1")
    for c in colors:
        if not 1 <= c <= k:
            raise InputError(f"color {c} outside palette [1..{k}]")


def _palette_words(k):
    """Words on [k], or with colors one past either end of it, or far off;
    short ones, and ones of 60-100 colors, around the 64 colors above which
    the rule reads a word by its set."""
    hi = max(k, 1)
    ranges = st.sampled_from([(1, hi), (0, hi), (1, hi + 1), (-3, hi + 3)])
    sizes = st.sampled_from([(0, 10), (60, 100)])
    words = st.tuples(ranges, sizes).flatmap(
        lambda rs: st.lists(st.integers(*rs[0]), min_size=rs[1][0], max_size=rs[1][1]))
    return st.tuples(st.just(k), words)


@PROPERTY
@given(st.integers(-1, 9).flatmap(_palette_words))
@example((5, [1] * 70 + [6, 0]))  # long enough for the set, bad near its end
@example((5, [1] * 70 + [float("nan"), 9]))  # a color no order places
def test_palette_rule_matches_a_loop_over_the_colors(case):
    k, colors = case
    want = _outcome(_palette_loop, k, colors)
    assert _outcome(sequences._require_palette, k, colors) == want
    if colors:  # words and multisets raise the rule's errors
        for make in (ColorSequence, Multiset.of):
            made = _outcome(make, tuple(colors), k)
            assert made == want if want else isinstance(made, (ColorSequence, Multiset))


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
            assert _outcome(decode_colors, cb, colors) == _colors_oracle(cb, colors)


def _decode_oracle(cb, counts):
    """decode's outcome read from a count vector alone, looked up through
    the codebook's count-vector view."""
    if len(counts) != cb.palette_size:
        return CardinalityError, (
            f"multiset palette {len(counts)} differs from codebook palette {cb.palette_size}",)
    size, want = sum(counts), cb.block_m * cb.block_n
    if size != want:
        return CardinalityError, (f"multiset has {size} elements; blocks have {want}",)
    if counts not in cb.entries:
        return UnknownBlockError, (f"multiset {'-'.join(map(str, counts))} is not a code symbol",)
    return cb.entries[counts]


def _colors_oracle(cb, colors):
    """decode_colors's outcome read from the colors alone: the first color
    outside the palette, else the count-vector oracle's on their counts."""
    k = cb.palette_size
    for c in colors:
        if not 1 <= c <= k:
            return InputError, (f"color {c} outside palette [1..{k}]",)
    return _decode_oracle(cb, tuple(map(colors.count, range(1, k + 1))))


def _remade(forms):
    """Each multiset copied, and sent through a pickle."""
    return [copy.copy(ms) for ms in forms] + [pickle.loads(pickle.dumps(ms)) for ms in forms]


@PROPERTY
@given(axes(), axes(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_decode_reads_the_multiset_however_it_was_made(s1, s2, m, n, data):
    g = product_grid(s1, s2)
    books = [_outcome(build_codebook, g, m, n), _outcome(product_codebook, s1, s2, m, n)]
    books = [cb for cb in books if isinstance(cb, Codebook)]
    books += [parse_codebook(format_codebook(cb)) for cb in books]
    k, size = g.palette_size, m * n
    # colors on this palette or one next to it, of the block's size or one
    # off; or a block of the grid, as it is or with one color drawn anew
    palettes = st.sampled_from(list(dict.fromkeys((k, k + 1, max(1, k - 1)))))
    sizes = st.sampled_from(list(dict.fromkeys((size, size + 1, size - 1))))
    queries = st.tuples(palettes, sizes).flatmap(lambda ps: st.tuples(
        st.just(ps[0]), st.lists(st.integers(1, ps[0]), min_size=ps[1], max_size=ps[1])))
    if books:
        blocks = st.sampled_from(block_starts(g, m, n)).map(lambda tag: [
            g.color((tag[0] + i) % g.M, (tag[1] + j) % g.N) for i in range(m) for j in range(n)])
        redrawn = st.tuples(blocks, st.integers(0, size - 1), st.integers(1, k)).map(
            lambda b: b[0][: b[1]] + [b[2]] + b[0][b[1] + 1 :])
        queries |= st.tuples(st.just(k), blocks | redrawn)
    palette, colors = data.draw(queries)
    colors = data.draw(st.permutations(colors))
    counts = tuple(map(colors.count, range(1, palette + 1)))
    want = Multiset(counts)
    # each read below is the first of a multiset made from colors, which
    # makes its count vector then; equality last, from either side
    for read in (hash, pickle.dumps, repr, asdict, Multiset.key):
        assert read(Multiset.of(colors, palette)) == read(want)
    assert Multiset.of(colors, palette) == want and want == Multiset.of(colors, palette)
    assert Multiset.of(colors, palette) == Multiset.of(colors, palette)
    made = Multiset.of(colors, palette)
    forms = [made, want, Multiset.from_key(want.key())]
    for cb in books:  # the first book decodes multisets that have kept nothing yet
        outcome = _decode_oracle(cb, counts)
        assert all(_outcome(decode, cb, ms) == outcome for ms in forms)
        # copies of multisets that have been decoded, and their pickles
        assert all(_outcome(decode, cb, ms) == outcome for ms in _remade(forms))
    forms += _remade(forms)
    for ms in forms:
        assert ms == want and hash(ms) == hash(want) and repr(ms) == repr(want)
        assert asdict(ms) == {"counts": counts} and len(fields(ms)) == 1
        assert ms.elements() == sorted(colors) and ms.cardinality == len(colors)
        assert pickle.dumps(ms) == pickle.dumps(want)  # kept colors stay out


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


# For m 1..8 and k 1..7, the largest cap such that the reference places at
# most 50k symbols at it and at every cap below it, one row per m.
REFERENCE_CAPS = {
    (m, k): cap
    for m, caps in enumerate([
        (2, 3, 4, 5, 6, 7, 8),
        (2, 3, 7, 9, 16, 19, 29),
        (2, 5, 10, 21, 36, 51, 81),
        (2, 6, 16, 32, 38, 112, 120),
        (2, 7, 22, 50, 44, 220, 398),
        (2, 8, 29, 67, 50, 390, 42),
        (2, 9, 21, 83, 57, 70, 49),
        (2, 10, 24, 62, 40, 40, 40),
    ], 1)
    for k, cap in enumerate(caps, 1)
}


@st.composite
def reference_instances(draw):
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    return m, k, draw(st.integers(1, min(upper_bound(m, k, cyclic=True) + 1, REFERENCE_CAPS[m, k])))


def _with_pinned_cells(test):
    # the cells of test_search.py::test_symbols_placed_are_pinned, deep words
    # on many colors, and short words wrapped many times, as explicit examples
    cells = [(2, 6, 60), (3, 4, 60), (3, 5, 60), (4, 3, 60), (5, 3, 60), (4, 4, 26), (2, 8, 32),
             (3, 6, 56), (2, 45, 1035), (1, 1200, 1200)]
    for case in cells + [(m, k, upper_bound(m, k, cyclic=True) + 1) for m in range(8, 13) for k in (1, 2)]:
        test = example(case)(test)
    return test


@settings(PROPERTY)
@_with_pinned_cells
@given(reference_instances())
def test_search_matches_its_reference_node_for_node(case):
    # equal dataclasses: every SearchResult field, the witness's too, and
    # the count of symbols placed
    assert _search(*case) == reference_search(*case)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
@settings(PROPERTY, max_examples=150)
@given(st.integers(1, 20000), st.integers(1, 20000))
@example(20000, 20000)  # refused on the window alone
@example(15000, 15000)  # refused by the estimate
@example(8000, 8000)  # left to the exact ceiling, which is too long to print
def test_search_max_refuses_early_only_ceilings_too_long_to_print(m, k):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        _refuse_unprintable_ceiling(m, k)
    except ValueError as exc:
        assert str(exc).startswith("Exceeds the limit (4300 digits)")
        assert upper_bound(m, k, cyclic=True) >= 10**4300
    finally:
        sys.set_int_max_str_digits(limit)


def _rows_or_refusal(make_rows):
    try:
        return make_rows()
    except McgcError as exc:
        return type(exc), str(exc)


# Sizes below a block side raise InputError, and a size past the palette
# limit at side 1 raises UnsupportedParameterError.
@settings(PROPERTY, max_examples=150)
@given(
    st.lists(st.sampled_from([1, 2, 3, 50, 200, 10_000_001]), max_size=4),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=3),
)
@example([1, 50], [(1, 2)])
@example([1, 10_000_001], [(1, 1), (2, 2)])
def test_gain_table_is_one_gain_record_per_row(sizes, blocks):
    ordered = sorted(set(sizes))
    rows = [(M, N, m, n) for m, n in blocks for M in ordered for N in ordered]
    assert _rows_or_refusal(lambda: gain_table(sizes, blocks)) == _rows_or_refusal(
        lambda: [gain_record(*row) for row in rows]
    )


def _least_palette_reaching(M, m):
    """The least k whose bound record's lower bound reaches M, skipping
    palettes no formula covers."""
    for k in itertools.count(1):
        try:
            if bound_record(m, k).lower >= M:
                return k
        except UnsupportedParameterError:
            pass


@settings(PROPERTY, max_examples=150)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(st.integers(m, 2000), st.just(m))))
@example((2000, 1))
@example((7, 7))  # no formula covers k = 1..7
@example((2000, 8))
def test_min_colors_is_the_least_palette_whose_record_reaches_the_length(case):
    M, m = case
    assert min_colors_1d(M, m) == _least_palette_reaching(M, m)


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


@PROPERTY
@given(st.integers(1, 60), st.integers(1, 3), st.integers(1, 3), st.data())
def test_codebook_rows_and_unknown_block_text_match_count_vector_keys(k, m, n, data):
    few = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=3))  # so colors repeat
    color = st.one_of(st.sampled_from(few), st.integers(1, k))
    blocks = st.lists(color, min_size=m * n, max_size=m * n).map(lambda c: tuple(sorted(c)))
    tags = st.tuples(st.integers(0, 900), st.integers(0, 900))
    table = data.draw(st.dictionaries(blocks, tags, min_size=1, max_size=12))
    counts = {key: Multiset.of(key, k).counts for key in table}
    cb = Codebook(m, n, k, "plain", {counts[key]: tag for key, tag in table.items()})
    rows = "".join(  # ascending count vectors, each written as Multiset.key() writes it
        "{},{},{}\n".format(Multiset.of(key, k).key(), *table[key])
        for key in sorted(table, key=counts.get)
    )
    assert format_codebook(cb) == f"# m={m} n={n} k={k} mode=plain\nkey,x0,y0\n" + rows
    for key in data.draw(st.lists(blocks, max_size=5)):
        if key in table:
            assert decode_colors(cb, key) == table[key]
        else:
            with pytest.raises(UnknownBlockError) as info:
                decode_colors(cb, key)
            assert str(info.value) == f"multiset {Multiset.of(key, k).key()} is not a code symbol"


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


def _reference_slots(config, placement):
    """iter_slots as a plain loop that decodes every slot's report."""
    rng = random.Random(config.seed)
    m, cells = config.block, placement.grid.cells
    bits = math.ceil(math.log2(placement.colors)) if placement.colors > 1 else 0
    cell = None
    for slot in range(config.slots):
        cell = sim._next_cell(rng, config, cell)
        sensors = tuple((cell[0] + i, cell[1] + j) for i in range(m) for j in range(m))
        colors = [cells[x][y] for x, y in sensors]
        rng.shuffle(colors)
        decoded = decode_colors(placement.codebook, colors)
        if decoded != cell:
            raise TrackingError(f"slot {slot}: decoded {decoded} but object is at {cell}")
        yield SlotRecord(slot, cell, sensors, tuple(colors), decoded, bits)


def _run_outcome(slots):
    """Each record's JSON, and the error's type and text if one stopped the run."""
    lines = []
    try:
        for record in slots:
            lines.append(record.to_json())
    except McgcError as exc:
        return lines, (type(exc), str(exc))
    return lines, None


@st.composite
def tracking_runs(draw):
    """A small run, an optional codebook patch (see patched_placement) with
    the cell it patches, and the number of cells the slot loop keeps."""
    C = draw(st.integers(1, 8))
    config = SimConfig(
        C, draw(st.integers(1, min(C, 3))), draw(st.integers(1, 300)), 8,
        seed=draw(st.integers(0, 2**64)),
        trajectory=draw(st.sampled_from(("uniform", "walk"))),
        p_move=draw(st.sampled_from((0.0, 0.3, 1.0))),
    )
    how = draw(st.sampled_from(("none", "non_injective", "unknown", "small_palette")))
    cell = (draw(st.integers(0, C - 1)), draw(st.integers(0, C - 1)))
    return config, how, cell, draw(st.sampled_from((1, 2, 2**14)))


@PROPERTY
@given(tracking_runs())
def test_slots_decoding_each_cell_once_match_decoding_every_slot(case):
    config, how, cell, kept = case
    placement = deploy(config) if how == "none" else patched_placement(config, how, cell)
    with patch.object(sim, "_VISITED_CELLS", kept):
        got = _run_outcome(iter_slots(config, placement))
    assert got == _run_outcome(_reference_slots(config, placement))


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
