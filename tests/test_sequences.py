import hashlib
import random

import pytest

from conftest import naive_distinguishable, random_sequence, run_child
from vectors import BASE_K3, PROBE_15

from mcgc import sequences
from mcgc.errors import InputError
from mcgc.grid2d import ColorGrid2D, check_grid_distinguishable
from mcgc.sequences import (
    ColorSequence,
    Multiset,
    check_distinguishable,
    format_sequence,
    parse_sequences,
    t_cut,
    window_keys,
    window_multiset,
    window_starts,
)


def seq(digits, k=None, mode="cyclic"):
    return ColorSequence.from_digits(digits, k, mode)


class TestMultiset:
    def test_of_counts(self):
        ms = Multiset.of([3, 1, 3], 3)
        assert ms.counts == (1, 0, 2)
        assert ms.cardinality == 3
        assert ms.elements() == [1, 3, 3]
        assert ms.key() == "1-0-2"

    def test_key_roundtrip(self):
        ms = Multiset.of([2, 2, 5], 6)
        assert Multiset.from_key(ms.key()) == ms

    def test_rejects_out_of_palette(self):
        with pytest.raises(InputError):
            Multiset.of([4], 3)
        with pytest.raises(InputError):
            Multiset(())


class TestWindowKeys:
    def test_linear_and_cyclic(self):
        assert window_keys((3, 1, 2, 1), 2, cyclic=False) == [(1, 3), (1, 2), (1, 2)]
        assert window_keys((3, 1, 2, 1), 2, cyclic=True)[-1] == (1, 3)

    def test_short_cyclic_word_wraps_more_than_once(self):
        assert window_keys((1, 2), 5, cyclic=True) == [(1, 1, 1, 2, 2), (1, 1, 2, 2, 2)]

    def test_empty_word_has_no_windows_in_either_reading(self):
        # nothing to wrap: the cyclic reading must not divide by the length
        for m in (1, 2, 5):
            assert window_keys((), m, cyclic=False) == []
            assert window_keys((), m, cyclic=True) == []

    def test_step(self):
        assert window_keys((4, 3, 2, 1, 5, 6), 4, cyclic=True, step=2) == [
            (1, 2, 3, 4),
            (1, 2, 5, 6),
            (3, 4, 5, 6),
        ]

    def test_keys_pinned(self):
        # recorded before the start rule had one owner: every start, wrap and
        # step of words of 1..9 colors over 3, at windows 1..11
        digest = hashlib.sha256()
        for n in range(1, 10):
            word = tuple(random.Random(n).choices(range(1, 4), k=n))
            for m in range(1, 12):
                for step in (1, 2, 3):
                    for cyclic in (False, True):
                        keys = window_keys(word, m, cyclic, step)
                        digest.update(f"{n},{m},{step},{cyclic}:{keys!r}\n".encode())
        assert digest.hexdigest() == (
            "efe4c0dfbf24f72f84fd251978f383b0d9b4ca8047278aa5fe1d2362dd5e486d"
        )


class TestColorSequence:
    def test_validation(self):
        with pytest.raises(InputError):
            ColorSequence((), 3)
        with pytest.raises(InputError):
            ColorSequence((1, 4), 3)
        with pytest.raises(InputError):
            ColorSequence((1,), 1, "spiral")

    def test_of_infers_palette(self):
        s = ColorSequence.of([2, 5, 1])
        assert s.palette_size == 5 and s.mode == "cyclic"

    def test_iterates_its_colors_in_order(self):
        assert list(ColorSequence((3, 1, 2, 1), 3, "linear")) == [3, 1, 2, 1]


class TestWindowMultiset:
    def test_base_word_wrap(self):
        # windows 7, 8 of the 9-symbol base word wrap around
        s = seq(BASE_K3)
        assert window_multiset(s, 7, 3).elements() == [1, 3, 3]
        assert window_multiset(s, 8, 3).elements() == [1, 1, 3]

    def test_probe_wrap_windows_equal(self):
        s = seq(PROBE_15, 5)
        assert window_multiset(s, 13, 3) == window_multiset(s, 14, 3)
        assert window_multiset(s, 13, 3).elements() == [1, 2, 4]

    def test_m1_is_singleton(self):
        s = seq("31323", 3)
        for t in range(len(s)):
            assert window_multiset(s, t, 1).elements() == [s.colors[t]]

    def test_range_errors(self):
        s = seq("1122", 2, "linear")
        with pytest.raises(InputError):
            window_multiset(s, 3, 2)  # linear: last start is 2
        with pytest.raises(InputError):
            window_multiset(s, 0, 5)  # m > len
        with pytest.raises(InputError):
            window_multiset(seq("1122", 2), 4, 2)  # cyclic: t < len

    def test_cardinality_always_m(self, rng):
        for _ in range(60):
            s = random_sequence(rng, mode=rng.choice(["linear", "cyclic"]))
            m = rng.randint(1, len(s))
            for t in window_starts(s, m):
                assert window_multiset(s, t, m).cardinality == m


class TestCheckDistinguishable:
    def test_probe_all_documented_modes(self):
        s = seq(PROBE_15, 5)
        assert check_distinguishable(s, 2).ok
        assert check_distinguishable(s.with_mode("linear"), 2).ok
        assert check_distinguishable(s.with_mode("linear"), 3).ok
        report = check_distinguishable(s, 3)
        assert not report.ok
        assert report.collision == (13, 14)

    def test_all_equal_pair(self):
        report = check_distinguishable(seq("11", 1), 2)
        assert not report.ok and report.collision == (0, 1)

    def test_m_too_large(self):
        with pytest.raises(InputError):
            check_distinguishable(seq("12", 2), 3)

    def test_collision_pair_is_lex_smallest(self):
        # keys: A B B A -> colliding pairs (0,3) and (1,2); lex-min is (0,3)
        s = ColorSequence((1, 2, 2, 1), 2, "linear")
        report = check_distinguishable(s, 1)
        assert report.collision == (0, 3)

    def test_cost_follows_the_word_not_its_largest_color(self):
        # only the colors that occur get weights: no table up to the largest;
        # timed in a child, so a regression fails instead of hanging
        code = (
            "import time\n"
            "from mcgc.sequences import ColorSequence, check_distinguishable\n"
            "big = 10**12\n"
            "start = time.perf_counter()\n"
            "report = check_distinguishable(ColorSequence((big, 1, big - 1), big, 'cyclic'), 2)\n"
            "assert report.ok and report.window_count == 3\n"
            "report = check_distinguishable(ColorSequence((big, 1, big), big, 'cyclic'), 1)\n"
            "assert report.collision == (0, 2)\n"
            "assert time.perf_counter() - start < 0.5\n"
        )
        proc = run_child("-c", code, timeout=10)
        assert proc.returncode == 0, proc.stderr

    def test_agrees_with_naive_oracle(self, rng):
        for _ in range(120):
            s = random_sequence(rng, max_len=14, max_k=4,
                                mode=rng.choice(["linear", "cyclic"]))
            m = rng.randint(1, min(4, len(s)))
            ok, _ = naive_distinguishable(s, m)
            assert check_distinguishable(s, m).ok == ok

    def test_cyclic_windowing_shift_equivariant(self, rng):
        for _ in range(40):
            s = random_sequence(rng, max_len=16, max_k=4)
            m = rng.randint(1, len(s))
            r = rng.randrange(len(s))
            rotated = ColorSequence(
                s.colors[r:] + s.colors[:r], s.palette_size, "cyclic"
            )
            for t in range(len(s)):
                assert window_multiset(rotated, t, m) == window_multiset(
                    s, (t + r) % len(s), m
                )


class TestShortcutCounts:
    """Work the checks skip: a shortcut that does more work keeps every
    result, so only a count shows that it was dropped."""

    @pytest.mark.parametrize("word, weights, collision, keyed", [
        # windows 0, 4 and 8 are {1, 1}: the repeat of a bucket's first
        # window ends the search at window 4
        ((1, 1, 2, 2, 1, 1, 2, 2, 1, 1), None, (0, 4), [0, 4]),
        # {1, 4} and {2, 3} weigh 5: windows 0, 2, 3, 4 share a sum and
        # give the best pair (2, 3), which ends the search before the
        # bucket of windows 6, 7, 8 ({1, 3}) starts
        ((1, 4, 2, 3, 2, 3, 3, 1, 3, 1), lambda c: c, (2, 3), [0, 2, 3, 4, 1, 5]),
    ])
    def test_exact_keys_built_where_sums_repeat(self, word, weights, collision, keyed,
                                                monkeypatch):
        summed_report, calls = sequences._summed_report, []

        def counted(sums, tags, key):
            return summed_report(sums, tags, lambda i: calls.append(i) or key(i))

        monkeypatch.setattr(sequences, "_summed_report", counted)
        if weights:
            monkeypatch.setattr(sequences, "_mix", weights)
        report = check_distinguishable(ColorSequence(word, 4, "linear"), 2)
        assert report.collision == collision
        assert calls == keyed

    def test_a_long_word_checks_each_distinct_color_once(self):
        compared = []

        class Palette(int):  # c <= k asks k.__ge__(c) first
            def __ge__(self, c):
                compared.append(c)
                return int(self) >= c

        for length, checks in (1, 1), (64, 64), (65, 3), (1000, 3):
            compared.clear()
            sequences._require_palette(Palette(5), ([1, 2, 3] * 334)[:length])
            assert len(compared) == checks


class TestWeightMemo:
    """The weights the checks ask of _mix: each color's computed once per
    process, and no more than 4096 of them kept."""

    def test_checking_again_weighs_no_color_again(self):
        weighed = []

        class Color(int):  # _mix starts with c * 0x9E3779B97F4A7C15
            def __mul__(self, other):
                weighed.append(int(self))
                return int(self) * other

        word = tuple(map(Color, (7, 10**12, 7, 3, 3, 10**12 - 1, 42)))
        for mode in "linear", "cyclic", "cyclic":
            check_distinguishable(ColorSequence(word, 10**12, mode), 2)
            check_grid_distinguishable(ColorGrid2D((word, word[::-1]), 10**12), 2, 2)
        assert sorted(weighed) == [3, 7, 42, 10**12 - 1, 10**12]

    def test_a_word_of_more_colors_leaves_the_memo_at_its_bound(self):
        word = ColorSequence(tuple(range(10**9, 10**9 + 5000)), 10**9 + 5000, "linear")
        assert check_distinguishable(word, 3).ok
        assert sequences._mix.cache_info().currsize <= 4096


class TestTCut:
    def test_base_word_documented_cut(self):
        out = t_cut(seq(BASE_K3), 8, 3)
        assert "".join(map(str, out.colors)) == "11122233311"
        assert out.mode == "linear" and len(out) == 11

    def test_pairs_word_cut(self):
        out = t_cut(seq("11332244", 4), 7, 2)
        assert "".join(map(str, out.colors)) == "113322441"

    def test_length_for_all_t(self):
        s = seq(PROBE_15, 5)
        for t in range(len(s)):
            for m in (1, 2, 3):
                assert len(t_cut(s, t, m)) == len(s) + m - 1

    def test_every_cut_of_distinguishable_stays_distinguishable(self):
        from mcgc.construct import build_m2, build_m3

        for s, m in ((seq(PROBE_15, 5), 2), (build_m2(6), 2), (build_m3(6), 3)):
            assert check_distinguishable(s, m).ok
            for t in range(len(s)):
                out = t_cut(s, t, m)
                assert len(out) == len(s) + m - 1
                assert check_distinguishable(out, m).ok

    def test_requires_cyclic(self):
        with pytest.raises(InputError):
            t_cut(seq("123", 3, "linear"), 0, 2)

    def test_window_longer_than_sequence_rejected(self):
        # the output could not hold len + m - 1 symbols of the word
        with pytest.raises(InputError, match="window size 9 exceeds sequence length 6"):
            t_cut(seq("112233"), 0, 9)
        with pytest.raises(InputError, match="at least 1"):
            t_cut(seq("112233"), 0, 0)


class TestTextFormat:
    def test_roundtrip_with_header(self):
        s = seq(PROBE_15, 5)
        text = format_sequence(s, comments=["extra note"])
        assert text.startswith("# k=5 mode=cyclic\n")
        parsed = parse_sequences(text)
        assert parsed == [s]

    def test_headerless_defaults(self):
        parsed = parse_sequences("1 2 10 2\n")
        assert parsed == [ColorSequence((1, 2, 10, 2), 10, "linear")]

    def test_multiple_sequences_one_header(self):
        text = "# k=3 mode=cyclic\n1 2 3\n3 2 1\n"
        parsed = parse_sequences(text)
        assert len(parsed) == 2
        assert all(p.mode == "cyclic" and p.palette_size == 3 for p in parsed)

    def test_bad_line_rejected(self):
        with pytest.raises(InputError):
            parse_sequences("1 two 3\n")
