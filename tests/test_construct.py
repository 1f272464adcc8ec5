import math
from itertools import combinations_with_replacement

import pytest

from vectors import BASE_K3, BASE_K6, CIRCUIT_6, DOUBLED_6, X9, Y9, Z9

from mcgc import construct
from mcgc.construct import (
    RecursionPair,
    _y_word,
    _z_word,
    build,
    build_m1,
    build_m2,
    build_m3,
    build_m3_pair,
    canonical_one_factor,
    cyclic_length,
    pad_with_new_colors,
    palettes,
    repeat_first_occurrences,
)
from mcgc.crossing import compose_for_m
from mcgc.errors import InputError, SelfCheckError, UnsupportedParameterError
from mcgc.sequences import ColorSequence, check_distinguishable, t_cut, window_multiset


def digits(seq):
    return "".join(str(c) for c in seq.colors)


def window_sets(seq, m):
    return {
        tuple(sorted(window_multiset(seq, t, m).elements()))
        for t in range(len(seq))
    }


class TestBuildM1:
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_identity_palette(self, k):
        s = build_m1(k)
        assert s.colors == tuple(range(1, k + 1))
        assert check_distinguishable(s, 1).ok

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            build_m1(0)


class TestBuildM2:
    def test_even_4_documented_word(self):
        assert digits(build_m2(4)) == "11332244"

    def test_doubling_step_documented_circuit(self):
        assert "".join(map(str, repeat_first_occurrences(CIRCUIT_6))) == DOUBLED_6

    def test_odd_lengths(self):
        for k in range(3, 22, 2):
            s = build_m2(k)
            assert len(s) == math.comb(k + 1, 2)
            assert check_distinguishable(s, 2).ok

    def test_even_lengths(self):
        for k in range(4, 21, 2):
            s = build_m2(k)
            assert len(s) == math.comb(k + 1, 2) - k // 2
            assert check_distinguishable(s, 2).ok

    @pytest.mark.parametrize("k", [5, 7, 9])
    def test_odd_covers_every_pair_exactly_once(self, k):
        s = build_m2(k)
        everything = {
            tuple(sorted(p)) for p in combinations_with_replacement(range(1, k + 1), 2)
        }
        assert window_sets(s, 2) == everything
        assert len(s) == len(everything)

    def test_even_misses_exactly_the_matching(self):
        for k in (4, 6, 8):
            missing = set(map(tuple, canonical_one_factor(k)))
            everything = {
                tuple(sorted(p))
                for p in combinations_with_replacement(range(1, k + 1), 2)
            }
            assert everything - window_sets(build_m2(k), 2) == missing

    @pytest.mark.parametrize("k", [1, 2])
    def test_degenerate_palettes_rejected(self, k):
        with pytest.raises(UnsupportedParameterError):
            build_m2(k)


class TestBuildM3:
    def test_base_words_verbatim(self):
        assert digits(build_m3(3)) == BASE_K3
        assert digits(build_m3(6)) == BASE_K6

    def test_base_pair_split(self):
        pair = build_m3_pair(6)
        assert "".join(map(str, pair.s_part)) == BASE_K3
        assert len(pair.t_part) == 45
        assert pair.sequence.colors == tuple(int(c) for c in BASE_K6)

    def test_k9_recursion_pieces(self):
        p6 = build_m3_pair(6)
        p9 = build_m3_pair(9)
        assert p9.s_part == p6.s_part + p6.t_part
        x, y, z = p9.t_part[:45], p9.t_part[45:83], p9.t_part[83:]
        assert "".join(map(str, x)) == X9
        assert "".join(map(str, y)) == Y9
        assert "".join(map(str, z)) == Z9

    def test_template_words_match_k9_pieces(self):
        assert "".join(map(str, _y_word(9))) == Y9
        assert "".join(map(str, _z_word(9))) == Z9

    @pytest.mark.parametrize("k", [3, 6, 9, 12, 15])
    def test_lengths_and_validity(self, k):
        s = build_m3(k)
        assert len(s) == math.comb(k + 2, 3) - k // 3
        assert check_distinguishable(s, 3).ok

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_missing_triples_are_the_consecutive_ones(self, k):
        everything = {
            tuple(sorted(p)) for p in combinations_with_replacement(range(1, k + 1), 3)
        }
        missing = everything - window_sets(build_m3(k), 3)
        assert missing == {(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(k // 3)}

    def test_pair_endpoint_structure(self):
        for k in (6, 9, 12):
            pair = build_m3_pair(k)
            assert pair.s_part[:2] == (1, 1)
            assert pair.t_part[:2] == (1, 1)
            assert pair.t_part[-2:] == (k, k - 1)

    @pytest.mark.parametrize("k", [0, 4, 5, 7])
    def test_bad_palettes_rejected(self, k):
        with pytest.raises(UnsupportedParameterError):
            build_m3(k)

    def test_pair_type_sequence_property(self):
        pair = RecursionPair((1, 1, 2), (1, 1, 3, 2), 3)
        assert pair.sequence.colors == (1, 1, 2, 1, 1, 3, 2)


class TestPadWithNewColors:
    def test_pad_pairs_word(self):
        out = pad_with_new_colors(build_m2(5), 2, 1)
        assert len(out) == 18 and out.palette_size == 6
        assert check_distinguishable(out, 2).ok

    def test_pad_triples_word(self):
        out = pad_with_new_colors(build_m3(3), 3, 2)
        assert len(out) == 17 and out.palette_size == 5
        assert out.colors[-6:] == (4, 4, 4, 5, 5, 5)
        assert check_distinguishable(out, 3).ok

    def test_zero_new_colors_is_plain_cut(self):
        s = build_m2(5)
        assert pad_with_new_colors(s, 2, 0) == t_cut(s, len(s) - 1, 2)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            pad_with_new_colors(build_m2(5), 2, -1)

    def test_self_check_names_the_collision(self):
        word = ColorSequence.from_digits("1111", 1)
        with pytest.raises(SelfCheckError) as info:
            pad_with_new_colors(word, 2, 0)
        assert str(info.value) == "padded sequence failed validation at windows (0, 1)"


class TestBaseDispatch:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_listed_palette_builds_at_its_length(self, m):
        ks = list(palettes(m, 12))
        assert ks == {1: list(range(1, 13)), 2: list(range(3, 13)), 3: [3, 6, 9, 12]}[m]
        for k in ks:
            seq = build(m, k)
            assert len(seq) == cyclic_length(m, k)
            assert seq == {1: build_m1, 2: build_m2, 3: build_m3}[m](k)

    def test_generators_looked_up_when_called(self, monkeypatch):
        # a wrapper set on the module (as the tracer does) sees every build
        calls = []

        def counting(k):
            calls.append(k)
            return build_m2(k)

        monkeypatch.setattr(construct, "build_m2", counting)
        assert build(2, 5) == build_m2(5)
        assert calls == [5]
        compose_for_m(4)
        assert len(calls) == 3

    def test_build_self_check_names_the_collision(self, monkeypatch):
        # a circuit of the right length whose windows repeat
        monkeypatch.setattr(construct, "eulerian_circuit", lambda g, start: [1] * 6)
        with pytest.raises(SelfCheckError) as info:
            build_m2(3)
        assert str(info.value) == "output failed 2-distinguishability at windows (0, 1)"

    @pytest.mark.parametrize("call", [build, cyclic_length, palettes])
    def test_windows_without_a_generator_rejected(self, call):
        for m in (0, 4):
            with pytest.raises(InputError, match="no base construction"):
                call(m, 6)
