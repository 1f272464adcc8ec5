import hashlib
import math

import pytest

from vectors import GAIN_43, GAIN_ERRATA, GAIN_MM, KMIN_TABLE, SIZES

from mcgc import bounds
from mcgc.bounds import (
    bound_record,
    bounds_table,
    coding_gain,
    gain_3dp,
    gain_record,
    gain_table,
    kmin_table,
    lower_bound,
    min_colors_1d,
    min_colors_2d,
    multichoose,
    render_bounds_csv,
    render_gain_csv,
    render_kmin_csv,
    upper_bound,
)
from mcgc.construct import build_m2, build_m3
from mcgc.errors import InputError, UnsupportedParameterError
from mcgc.sequences import t_cut


class TestMultichoose:
    def test_values(self):
        assert multichoose(3, 3) == 10
        assert multichoose(5, 2) == 15
        assert multichoose(7, 0) == 1

    def test_big_integers_exact(self):
        assert multichoose(10**4, 6) % 10 == multichoose(10**4, 6) % 10  # exact int
        assert multichoose(200, 8) == math.comb(207, 8)

    def test_rejects_bad_args(self):
        with pytest.raises(InputError):
            multichoose(0, 2)
        with pytest.raises(InputError):
            multichoose(3, -1)


class TestUpperBound:
    def test_refined_cyclic_for_prime_window_dividing_palette(self):
        assert upper_bound(2, 4, cyclic=True) == 8
        assert upper_bound(3, 3, cyclic=True) == 9
        assert upper_bound(2, 2, cyclic=True) == 2

    def test_plain_cyclic_otherwise(self):
        assert upper_bound(2, 5, cyclic=True) == 15
        assert upper_bound(4, 4, cyclic=True) == multichoose(4, 4)  # 4 not prime

    def test_linear_is_window_count_plus_m_minus_1(self):
        assert upper_bound(3, 5, cyclic=False) == math.comb(7, 3) + 2 == 37
        assert upper_bound(1, 9, cyclic=False) == 9
        # the cyclic refinement must not leak into linear mode: a linear
        # 2-distinguishable word of length 10 exists on four colors
        assert upper_bound(2, 4, cyclic=False) == 11


class TestLowerBound:
    def test_documented_values(self):
        assert lower_bound(2, 7) == math.comb(8, 2) + 1
        assert lower_bound(3, 9) == 164
        assert lower_bound(6, 15) == math.comb(18, 6) + 17

    def test_m1_exact(self):
        for k in (1, 5, 100):
            record = bound_record(1, k)
            assert record.lower == k and record.tight

    def test_m2_even_prefers_dense_cyclic(self):
        record = bound_record(2, 8)
        assert record.lower == multichoose(8, 2) - 4 + 1
        assert record.lower_provenance == "dense-cyclic-cut"

    def test_m2_k2_uses_padded_family(self):
        record = bound_record(2, 2)
        assert record.lower == 4
        assert record.lower_provenance == "padded-mcycle-cut"

    def test_m3_multiple_of_three_prefers_dense_cyclic(self):
        record = bound_record(3, 6)
        assert record.lower == multichoose(6, 3) - 2 + 2
        assert record.lower_provenance == "dense-cyclic-cut"

    def test_tightness_classes(self):
        # odd palettes at window 2 and coprime palettes at 3, 4, 6 hit the ceiling
        for k in (3, 7, 21):
            assert bound_record(2, k).tight
        for m, k in ((3, 4), (3, 7), (4, 5), (4, 11), (6, 13), (6, 17)):
            record = bound_record(m, k)
            assert record.tight, (m, k)
            assert record.lower_provenance == "mcycle-cut"

    def test_m6_residue_table(self):
        assert lower_bound(6, 12) == math.comb(16, 6) + 11
        assert lower_bound(6, 14) == math.comb(18, 6) + 11
        assert lower_bound(6, 16) == math.comb(18, 6) + 23

    def test_unsupported_parameters(self):
        for m, k in ((3, 2), (4, 4), (6, 10)):
            with pytest.raises(UnsupportedParameterError):
                lower_bound(m, k)

    def test_general_window_via_subset_cycles(self):
        # window 5: applies only when 5 divides C(k-1, 4)
        record = bound_record(5, 8)  # C(7,4) = 35
        assert record.lower == math.comb(8, 5) + 4
        assert record.lower_provenance == "ucycle-cut"
        assert record.existence_only

    def test_lower_never_exceeds_upper_sweep(self):
        for m in (1, 2, 3, 4, 6):
            for k in range(1, 10_001):
                try:
                    record = bound_record(m, k)
                except UnsupportedParameterError:
                    continue
                assert record.lower <= record.upper, (m, k)

    def test_constructive_lengths_match_dense_bounds(self):
        # when the bound comes from the dense cyclic family the builders
        # realize it exactly, cut open
        for k in (4, 6, 8, 10, 12):
            assert len(t_cut(build_m2(k), len(build_m2(k)) - 1, 2)) == lower_bound(2, k)
        for k in (3, 6, 9, 12):
            assert len(t_cut(build_m3(k), len(build_m3(k)) - 1, 3)) == lower_bound(3, k)


class TestMinColors:
    def test_published_cells(self):
        for m, row in KMIN_TABLE.items():
            assert [min_colors_1d(M, m) for M in SIZES] == list(row)

    def test_monotone_in_length(self):
        for m in (1, 2, 3, 4):
            values = [min_colors_1d(M, m) for M in (10, 60, 300, 2000, 10000)]
            assert values == sorted(values)

    def test_non_increasing_in_window(self):
        for M in (50, 1000, 10000):
            values = [min_colors_1d(M, m) for m in (1, 2, 3, 4)]
            assert values == sorted(values, reverse=True)

    def test_m1_is_identity(self):
        assert min_colors_1d(37, 1) == 37

    def test_2d_is_the_product(self):
        assert min_colors_2d(10000, 200, 4, 3) == 21 * 10
        assert min_colors_2d(50, 50, 2, 2) == 100
        assert min_colors_2d(7, 9, 1, 1) == 63

    def test_rejects_bad_args(self):
        with pytest.raises(InputError):
            min_colors_1d(1, 2)

    @pytest.mark.parametrize("m, k", [(1, 10**7), (2, 4473), (3, 391), (4, 123)])
    def test_scan_starts_at_the_linear_ceiling(self, m, k, monkeypatch):
        calls = []
        candidates = bounds._lower_candidates

        def counting(m, k):
            calls.append(k)
            return candidates(m, k)

        monkeypatch.setattr(bounds, "_lower_candidates", counting)
        assert min_colors_1d(10**7, m) == k
        assert len(calls) < 50

    def test_subset_cycle_windows_scan_from_the_window(self, monkeypatch):
        # no family covers a palette below the window there: a window past
        # the palette limit failed after 10**7 calls
        calls = []
        candidates = bounds._lower_candidates

        def counting(m, k):
            calls.append(k)
            return candidates(m, k)

        monkeypatch.setattr(bounds, "_lower_candidates", counting)
        assert min_colors_1d(7, 7) == 8
        assert min(calls) == 7
        calls.clear()
        huge = 10**18 + 3
        with pytest.raises(UnsupportedParameterError, match=f"reaches length {huge} "):
            min_colors_1d(huge, huge)
        assert calls == []

    def test_no_record_per_palette_tried(self, monkeypatch):
        calls = {"bound_record": 0, "lower_bound": 0}

        def counted(name):
            original = getattr(bounds, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(bounds, name, counted(name))
        assert min_colors_1d(3000, 3000) == 3001
        assert calls == {"bound_record": 1, "lower_bound": 0}

    def test_ceiling_probes_stay_near_the_answer(self, monkeypatch):
        # a ceiling at k near the palette limit has millions of digits
        probed = []
        ceiling = bounds.upper_bound

        def counting(m, k, cyclic=True):
            probed.append(k)
            return ceiling(m, k, cyclic)

        monkeypatch.setattr(bounds, "upper_bound", counting)
        assert min_colors_1d(100000, 100000) == 100001
        assert max(probed) <= 2 * 100001


class TestCodingGain:
    def test_documented_cells(self):
        assert gain_3dp(coding_gain(10000, 200, 4, 3)) == 0.368
        assert gain_3dp(coding_gain(50, 50, 2, 2)) == 0.588
        assert gain_3dp(coding_gain(10000, 10000, 4, 4)) == 0.330

    def test_definition(self):
        record = gain_record(200, 1000, 3, 3)
        want = (math.log2(10) + math.log2(18)) / (math.log2(200) + math.log2(1000))
        assert record.gain == pytest.approx(want, rel=1e-12)
        assert (record.k_M, record.k_N) == (10, 18)

    def test_square_block_floor(self):
        for m in (2, 3, 4):
            for M in SIZES:
                for N in SIZES:
                    g = coding_gain(M, N, m, m)
                    assert 1 / m**2 <= g <= 1

    def test_published_table_4x3(self):
        for i, M in enumerate(SIZES):
            for j, N in enumerate(SIZES):
                got = gain_3dp(coding_gain(M, N, 4, 3))
                key = (4, 3, M, N)
                if key in GAIN_ERRATA:
                    published, computed = GAIN_ERRATA[key]
                    assert got == computed
                    assert got != published  # the printed cell contradicts its formula
                else:
                    assert got == GAIN_43[i][j], (M, N)

    def test_published_tables_square(self):
        for m, grid in GAIN_MM.items():
            for i, M in enumerate(SIZES):
                for j, N in enumerate(SIZES):
                    got = gain_3dp(coding_gain(M, N, m, m))
                    key = (m, m, M, N)
                    if key in GAIN_ERRATA:
                        published, computed = GAIN_ERRATA[key]
                        assert got == computed
                        assert got != published
                    else:
                        assert got == grid[i][j], (m, M, N)

    def test_published_table_is_internally_inconsistent(self):
        # Two cells of the 4x3 table share the same k pair numerators up to
        # 5e-6 yet print differently, so no rounding rule reproduces both:
        a = coding_gain(10000, 200, 4, 3)  # printed 0.368
        b = coding_gain(10000, 50, 4, 3)   # printed 0.369
        assert abs(a - b) < 1e-4
        assert round(a, 3) == round(b, 3)
        assert gain_3dp(a) == gain_3dp(b)


class TestTables:
    def test_kmin_table_rows(self):
        rows = kmin_table([2, 3, 4], SIZES)
        assert rows[0] == (2, 50, 10)
        assert (4, 10000, 21) in rows
        assert len(rows) == 12

    def test_bounds_table_matches_published_window4_row(self):
        # the published bracket for window 4: coprime palettes are tight at
        # C(k+3,4)+3; even palettes sit at C(k+2,4)+7 under the same ceiling
        for record in bounds_table(4, range(5, 14)):
            assert record.upper == math.comb(record.k + 3, 4) + 3
            if record.k % 4 in (1, 3):
                assert record.lower == math.comb(record.k + 3, 4) + 3
            else:
                assert record.lower == math.comb(record.k + 2, 4) + 7

    def test_csv_shapes(self):
        bounds_csv = render_bounds_csv(bounds_table(2, range(3, 6)))
        assert bounds_csv.splitlines()[0].startswith("m,k,lower,upper,tight")
        assert len(bounds_csv.splitlines()) == 4

        kmin_csv = render_kmin_csv(kmin_table([2], [50, 200]))
        assert kmin_csv.splitlines() == ["m,M,k", "2,50,10", "2,200,20"]

        gain_csv = render_gain_csv(gain_table([50], [(2, 2)]))
        assert gain_csv.splitlines() == [
            "m,n,M,N,k_M,k_N,gain",
            "2,2,50,50,10,10,0.588",
        ]

    def test_gain_table_order(self):
        records = gain_table([200, 50], [(3, 3)])
        assert [(r.M, r.N) for r in records] == [
            (50, 50), (50, 200), (200, 50), (200, 200),
        ]


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update((line + "\n").encode())
    return digest.hexdigest()


def _record_or_refusal(m: int, k: int) -> str:
    try:
        return repr(bound_record(m, k))
    except UnsupportedParameterError as exc:
        return str(exc)


class TestBoundSweepPin:
    """Every family and threshold at once: the records (or refusals) for
    m 1..13 x k 1..399 and the minimal palettes for m 1..7, pinned by sha256."""

    def test_bound_records(self):
        lines = (_record_or_refusal(m, k) for m in range(1, 14) for k in range(1, 400))
        assert _sha256(lines) == (
            "6682cf9b2f010fda923d5bb9b1463d4e120ee947fcf9dbdec5ea3df3139d2aff"
        )

    def test_min_colors(self):
        lines = (
            f"{m},{M},{min_colors_1d(M, m)}"
            for m in range(1, 8)
            for M in [*range(m, 400), 1000, 5000, 20000]
        )
        assert _sha256(lines) == (
            "655e24255174f0b76f9feebf867c4116e8a3ddb6b4dcb4f4e15f22e74a0805f7"
        )

    def test_min_colors_subset_cycle_windows(self):
        """From m 8 on only the subset-cycle family applies, and many
        palettes are covered by none: the scan must skip exactly those."""

        def line(m, M):
            try:
                return f"{m},{M},{min_colors_1d(M, m)}"
            except Exception as exc:
                return f"{m},{M},{type(exc).__name__}: {exc}"

        lines = (
            line(m, M) for m in range(8, 14) for M in [*range(m, 1501), 10**4, 10**5]
        )
        assert _sha256(lines) == (
            "b5462bfb0f7b45e84b82ded16c5d699c57a0fea4793b35aff780fe94b49fa840"
        )
