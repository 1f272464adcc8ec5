import hashlib
from itertools import groupby

import pytest

from conftest import naive_distinguishable
from vectors import CERTIFIED_MAX

from mcgc.bounds import upper_bound
from mcgc.errors import InputError
from mcgc.search import _search, brute_force_max_cyclic
from mcgc.sequences import ColorSequence, check_distinguishable


def test_two_colors_pairs_max_is_one():
    # every length-2 word on two colors collides; a single symbol stands
    result = brute_force_max_cyclic(2, 2, 10)
    assert result.max_length == 1
    assert result.witness.colors == (1,)
    assert result.proven


def test_pairs_on_three_colors():
    result = brute_force_max_cyclic(2, 3, 60)
    assert result.max_length == 6 == upper_bound(2, 3, cyclic=True)
    assert result.proven
    assert check_distinguishable(result.witness, 2).ok


def test_pairs_on_four_colors_meets_refined_ceiling():
    result = brute_force_max_cyclic(2, 4, 60)
    assert result.max_length == 8 == upper_bound(2, 4, cyclic=True)
    assert result.proven
    assert check_distinguishable(result.witness, 2).ok


def test_triples_on_three_colors():
    result = brute_force_max_cyclic(3, 3, 60)
    assert result.max_length == 9 == upper_bound(3, 3, cyclic=True)
    assert result.proven
    assert "".join(map(str, result.witness.colors)) == "111222333"


def test_singletons_find_the_palette():
    result = brute_force_max_cyclic(1, 4, 10)
    assert result.max_length == 4
    assert result.witness.colors == (1, 2, 3, 4)


def test_cap_limits_are_reported_distinctly():
    capped = brute_force_max_cyclic(2, 4, 5)
    assert capped.max_length == 5
    assert not capped.proven
    assert capped.ceiling == 8
    assert check_distinguishable(capped.witness, 2).ok


def test_never_exceeds_ceilings():
    for m, k in ((1, 3), (2, 2), (2, 3), (2, 4), (3, 3)):
        result = brute_force_max_cyclic(m, k, 64)
        assert result.max_length <= upper_bound(m, k, cyclic=True)


def test_witness_is_canonical():
    for m, k in ((2, 3), (2, 4), (3, 3)):
        witness = brute_force_max_cyclic(m, k, 64).witness.colors
        assert witness[0] == 1
        seen_max = 0
        for c in witness:
            assert c <= seen_max + 1
            seen_max = max(seen_max, c)


def test_bad_arguments():
    with pytest.raises(InputError):
        brute_force_max_cyclic(0, 3, 5)
    with pytest.raises(InputError):
        brute_force_max_cyclic(2, 3, 0)


def test_words_shorter_than_the_window_wrap_more_than_once():
    # at m=5 the word 12 is read as the windows 12121 and 21212, which differ;
    # every length-3 word on two colors repeats a window
    result = brute_force_max_cyclic(5, 2, 10)
    assert result.max_length == 2 and result.proven
    assert result.witness.colors == (1, 2)
    # at m=4 the windows 1212 and 2121 are the same multiset
    assert brute_force_max_cyclic(4, 2, 10).max_length == 1


def test_sweep_is_pinned():
    # every result for m, k in 1..7 with ceiling <= 21 at caps 1..ceiling + 1,
    # recorded before the search became one pass
    records = []
    for m in range(1, 8):
        for k in range(1, 8):
            ceiling = upper_bound(m, k, cyclic=True)
            if ceiling > 21:
                continue
            for cap in range(1, ceiling + 2):
                r = brute_force_max_cyclic(m, k, cap)
                records.append((m, k, cap, r.max_length, r.witness.colors, r.proven, r.ceiling))
    assert len(records) == 205
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "75dd50037032882cfeed7d31be0510fe1e678a5c73dff051cb0b9018423cd8a8"


def test_wider_sweep_is_pinned():
    # every result for m, k in 1..7 with 21 < ceiling <= 36 at caps
    # 1..ceiling + 1, but (7, 3) and (4, 4) above cap 26, which take seconds;
    # recorded before words were cut for want of an end window
    records = []
    for m in range(1, 8):
        for k in range(1, 8):
            ceiling = upper_bound(m, k, cyclic=True)
            if not 21 < ceiling <= 36 or (m, k) == (7, 3):
                continue
            for cap in range(1, ceiling + 2):
                if (m, k) == (4, 4) and cap > 26:
                    continue
                r = brute_force_max_cyclic(m, k, cap)
                records.append((m, k, cap, r.max_length, r.witness.colors, r.proven, r.ceiling))
    assert len(records) == 120
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "233337fb155ea80a815c1e87064768abafd5f600d07962f1619ac77544d3e8af"


def test_capped_wider_sweep_is_pinned():
    # the cases that test_wider_sweep_is_pinned skips: (7, 3) at caps 1..37
    # and (4, 4) at caps 27..32, where a cap limits the witness; recorded
    # before a word's runs were bounded by its first
    records = []
    for m, k, caps in ((7, 3, range(1, 38)), (4, 4, range(27, 33))):
        for cap in caps:
            r = brute_force_max_cyclic(m, k, cap)
            records.append((m, k, cap, r.max_length, r.witness.colors, r.proven, r.ceiling))
    assert len(records) == 43
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "e008fdeb0096693aa0e04ce92ac702b5b6cc64d619193293570043d2e5d8a7bb"


def _relabeled(word):
    """The word with its colors renamed 1, 2, ... in order of first occurrence."""
    names = {}
    return tuple(names.setdefault(c, len(names) + 1) for c in word)


def _cyclic_runs(word):
    """Lengths of the maximal runs of one color, read cyclically."""
    start = next((i for i in range(len(word)) if word[i] != word[i - 1]), 0)  # a run's start
    return [len(list(run)) for _, run in groupby(word[start:] + word[:start])]


def test_witness_is_its_smallest_rotation_and_its_first_run_is_longest():
    # the search returns the smallest canonical closing word of its length;
    # every rotation, relabeled, is one too, so none is smaller, and no run
    # (read cyclically) outlasts the first
    for m in range(1, 8):
        for k in range(1, 8):
            ceiling = upper_bound(m, k, cyclic=True)
            if ceiling > 21:
                continue
            for cap in range(1, ceiling + 2):
                w = brute_force_max_cyclic(m, k, cap).witness.colors
                assert all(w <= _relabeled(w[i:] + w[:i]) for i in range(len(w)))
                first = next((i for i, c in enumerate(w) if c != w[0]), len(w))
                assert max(_cyclic_runs(w)) == first, (m, k, cap, w)


@pytest.mark.parametrize(("m", "k"), sorted(CERTIFIED_MAX))
def test_certified_witnesses_meet_their_ceilings(m, k):
    _, best, witness = CERTIFIED_MAX[m, k]
    word = ColorSequence(tuple(map(int, witness)), k, "cyclic")
    assert len(word) == best == upper_bound(m, k, cyclic=True)
    assert naive_distinguishable(word, m) == (True, None)


def test_deep_words_need_no_recursion():
    # one symbol per level: deeper than the interpreter's recursion limit
    assert brute_force_max_cyclic(1, 1200, 1200).max_length == 1200


def test_short_words_wrapped_many_times_are_pinned():
    # m 8..12 on one or two colors wraps a short word several times; the
    # larger instances reach deep words.  Recorded before windows were keyed
    # by weight sums.
    records = []
    cases = [(m, k, cap) for m in range(8, 13) for k in (1, 2)
             for cap in range(1, upper_bound(m, k, cyclic=True) + 2)]
    for m, k, cap in cases + [(6, 3, 29), (5, 3, 60), (4, 4, 26), (2, 45, 1035)]:
        r = brute_force_max_cyclic(m, k, cap)
        records.append((m, k, cap, r.max_length, r.witness.colors, r.proven, r.ceiling))
    assert len(records) == 74
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "4125b2661e343352de8fccf67e477d0776c8e2bd2c9732a5bf033cd2e94d5656"


@pytest.mark.parametrize(("m", "k", "cap", "placed"), [
    (2, 6, 60, 52),
    (3, 4, 60, 36),
    (3, 5, 60, 1864),
    (4, 3, 60, 233),
    (5, 3, 60, 1513),
    (4, 4, 26, 326),
    (2, 8, 32, 47633),
    (3, 6, 56, 374313),
])
def test_symbols_placed_are_pinned(m, k, cap, placed):
    # a weaker cut keeps every result and witness but places more symbols;
    # the six benchmark instances and the two certified cells
    assert _search(m, k, cap)[1] == placed
