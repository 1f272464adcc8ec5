import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vectors import CROSS_S, CROSS_T

import mcgc
from mcgc.crossing import (
    compose_for_m,
    cross,
    plan_cross,
    shift_palette,
    split_window,
)
from mcgc.construct import build_m2
from mcgc.errors import ComposeError, InputError, PaletteError, PlanError, SelfCheckError
from mcgc.sequences import ColorSequence, check_distinguishable, window_starts


def cyclic(colors, k):
    return ColorSequence(tuple(colors), k, "cyclic")


class TestPlan:
    def test_documented_plan(self):
        plan = plan_cross(12, 2, 30, 3)
        assert (plan.d, plan.L, plan.output_length) == (2, 30, 150)

    def test_equal_word_counts(self):
        plan = plan_cross(12, 2, 18, 3)
        assert (plan.d, plan.L, plan.output_length) == (6, 6, 30)

    def test_symmetric_window_plan(self):
        plan = plan_cross(10, 2, 10, 2)
        assert (plan.d, plan.L, plan.output_length) == (5, 5, 20)

    def test_divisibility_failures_named(self):
        with pytest.raises(PlanError) as err:
            plan_cross(7, 2, 30, 3)
        assert err.value.failed == "m1-divides-M1"
        with pytest.raises(PlanError) as err:
            plan_cross(12, 2, 31, 3)
        assert err.value.failed == "m2-divides-M2"

    def test_low_gcd_named(self):
        with pytest.raises(PlanError) as err:
            plan_cross(6, 2, 15, 3)
        assert err.value.failed == "common-factor"

    def test_coprimality_failures_named(self):
        with pytest.raises(PlanError) as err:
            plan_cross(16, 2, 8, 2)
        assert err.value.failed == "coprime-first"
        with pytest.raises(PlanError) as err:
            plan_cross(8, 2, 16, 2)
        assert err.value.failed == "coprime-second"

    def test_index_pairs_cover_matching_residues(self):
        plan = plan_cross(12, 2, 30, 3)
        pairs = plan.index_pairs()
        assert len(pairs) == 30 and len(set(pairs)) == 30
        assert set(pairs) == {
            (i, j) for i in range(6) for j in range(10) if i % 2 == j % 2
        }


class TestCross:
    def test_documented_operands(self):
        s = cyclic(CROSS_S, 5)
        t = cyclic(CROSS_T, 10)
        out = cross(s, t, plan_cross(12, 2, 30, 3))
        assert len(out) == 150 and out.palette_size == 10
        assert check_distinguishable(out, 5).ok
        # layout check: the word at slot x is alpha[x mod 6] then beta[x mod 10]
        assert out.colors[:5] == (1, 1) + CROSS_T[0:3]  # x=0
        assert out.colors[30:35] == (1, 1) + CROSS_T[18:21]  # x=6: alpha_0 beta_6

    def test_every_window_mixes_palettes_in_ratio(self):
        s = cyclic(CROSS_S, 5)
        t = cyclic(CROSS_T, 10)
        out = cross(s, t, plan_cross(12, 2, 30, 3))
        for start in window_starts(out, 5):
            window = [out.colors[(start + i) % len(out)] for i in range(5)]
            low = sum(1 for c in window if c <= 5)
            assert low == 2 and len(window) - low == 3

    def test_equal_word_count_plan_builds(self):
        # length-18 window-3 operand found by the exhaustive search
        from mcgc.search import _find_at_length

        s = cyclic(CROSS_S, 5)
        t = shift_palette(cyclic(_find_at_length(3, 5, 18), 5), 5)
        out = cross(s, t, plan_cross(12, 2, 18, 3))
        assert len(out) == 30
        assert check_distinguishable(out, 5).ok

    def test_symmetric_window_plan_builds(self):
        from mcgc.search import _find_at_length

        word = _find_at_length(2, 5, 10)
        s = cyclic(word, 5)
        t = shift_palette(cyclic(word, 5), 5)
        out = cross(s, t, plan_cross(10, 2, 10, 2))
        assert len(out) == 20 and out.palette_size == 10
        assert check_distinguishable(out, 4).ok

    def test_palette_overlap_rejected(self):
        s = cyclic(CROSS_S, 5)
        with pytest.raises(PaletteError):
            cross(s, s, plan_cross(12, 2, 12, 2))

    def test_plan_mismatch_rejected(self):
        s = cyclic(CROSS_S, 5)
        t = cyclic(CROSS_T, 10)
        with pytest.raises(PlanError) as err:
            cross(s, t, plan_cross(12, 2, 18, 3))
        assert err.value.failed == "plan-mismatch"

    def test_self_check_names_the_collision(self):
        # a valid plan whose first operand is not 3-distinguishable
        s = cyclic((1, 1, 1, 2, 2, 2, 1, 1, 1), 2)
        t = shift_palette(build_m2(3), 2)
        with pytest.raises(SelfCheckError) as info:
            cross(s, t, plan_cross(9, 3, 6, 2))
        assert str(info.value) == (
            "interleaving failed 5-distinguishability at windows (10, 11)"
        )

    def test_linear_operands_rejected(self):
        s = cyclic(CROSS_S, 5).with_mode("linear")
        t = cyclic(CROSS_T, 10)
        with pytest.raises(InputError):
            cross(s, t, plan_cross(12, 2, 30, 3))

    def test_shift_palette(self):
        s = cyclic((1, 2), 2)
        shifted = shift_palette(s, 3)
        assert shifted.colors == (4, 5) and shifted.palette_size == 5


class TestCompose:
    def test_split_rules(self):
        assert split_window(2) == [2]
        assert split_window(3) == [3]
        assert split_window(4) == [2, 2]
        assert split_window(5) == [3, 2]
        assert split_window(6) == [3, 3]
        assert split_window(7) == [3, 2, 2]

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_outputs_validate(self, m):
        result = compose_for_m(m)
        assert check_distinguishable(result.sequence, m).ok
        assert len(result.plans) == len(result.split) - 1
        assert sum(result.split) == m

    def test_five_splits_into_three_plus_two(self):
        result = compose_for_m(5)
        assert result.split == (3, 2)
        assert result.sequence.palette_size == sum(result.factor_palettes)

    def test_min_length_forces_larger_bases(self):
        small = compose_for_m(4)
        large = compose_for_m(4, min_length=len(small.sequence) + 1)
        assert len(large.sequence) > len(small.sequence)
        assert check_distinguishable(large.sequence, 4).ok

    def test_budget_exhaustion_reports_split(self):
        with pytest.raises(ComposeError, match="2\\+2"):
            compose_for_m(4, max_colors=5)

    def test_ten_factor_window_stays_within_budget(self):
        # the first walk spends only the least total the ten window-3
        # factors need (30 colors) and already reaches min_length, so the
        # search ends in well under a second
        result = compose_for_m(30)
        assert result.split == (3,) * 10
        assert result.factor_palettes == (3,) * 10
        assert result.sequence.palette_size == 30

    def test_single_factor_windows(self):
        assert len(compose_for_m(3).sequence) == 9
        assert len(compose_for_m(2).sequence) == 6

    def test_single_factor_keeps_lengths_the_window_does_not_divide(self):
        # build_m2(5) has 15 symbols; only interleaving needs divisibility
        result = compose_for_m(2, min_length=10)
        assert result.factor_palettes == (5,) and result.plans == ()
        assert len(result.sequence) == 15 and result.sequence.palette_size == 5

    def test_single_factor_budget_exhaustion(self):
        with pytest.raises(ComposeError, match="no window-3 word from split 3 "):
            compose_for_m(3, max_colors=8, min_length=100)

    def test_thousand_factors_fail_without_recursion(self):
        # one window-3 factor per three units of m; the walk is iterative
        with pytest.raises(ComposeError, match="within 3000 colors"):
            compose_for_m(3000, max_colors=3000, min_length=10**12)

    def test_unreachable_length_fails_fast(self):
        # merged (colors used, length) states keep the failure path small
        code = (
            "from mcgc import compose_for_m\n"
            "from mcgc.errors import ComposeError\n"
            "try:\n"
            "    compose_for_m(30, max_colors=72, min_length=10**12)\n"
            "except ComposeError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(mcgc.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("no window-30 word from split 3+3+3")
        assert proc.stdout.endswith("within 72 colors\n")


# sha256 of every selection in the sweep below, recorded before the palette
# totals were walked in ascending order
COMPOSE_SELECTIONS_SHA256 = (
    "6770b1206099d32ff6fae9559af33752bed9b07ada9c923fc993093e78fbc79f"
)


class TestComposeSelections:
    def test_selections_pinned(self, cached_builds):
        digest = hashlib.sha256()
        for m in range(3, 13):
            for max_colors in range(8, 49):
                for min_length in (1, 50, 200, 600, 1500, 4000):
                    try:
                        r = compose_for_m(m, max_colors=max_colors, min_length=min_length)
                        line = repr((r.sequence, r.factor_palettes, r.plans))
                    except ComposeError:
                        line = "ComposeError"
                    digest.update(f"{m},{max_colors},{min_length}:{line}\n".encode())
        assert digest.hexdigest() == COMPOSE_SELECTIONS_SHA256
