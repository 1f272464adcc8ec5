import hashlib
import random
import tracemalloc

import pytest

from conftest import naive_grid_distinguishable, random_sequence, run_child

from mcgc import construct, grid2d
from mcgc.bounds import multichoose
from mcgc.construct import build_m1, build_m2
from mcgc.errors import (
    CardinalityError,
    CollisionError,
    InputError,
    UnknownBlockError,
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
    flat_pair,
    format_codebook,
    format_grid,
    parse_codebook,
    parse_grid,
    product_codebook,
    product_grid,
)
from mcgc.sequences import (
    ColorSequence,
    Multiset,
    check_distinguishable,
    t_cut,
    window_multiset,
)
from mcgc.sim import SimConfig, axis_sequence, deploy


def linear_pairs_axis():
    base = build_m2(4)
    return t_cut(base, len(base) - 1, 2)  # 113322441, linear, 2-distinguishable


def uniform_grid(size, color=1, k=1, mode="plain"):
    return ColorGrid2D(tuple((color,) * size for _ in range(size)), k, mode)


class TestProductGrid:
    def test_two_by_two_distinct(self):
        g = product_grid(build_m1(2), build_m1(2))
        assert (g.M, g.N, g.palette_size) == (2, 2, 4)
        assert {g.color(x, y) for x in range(2) for y in range(2)} == {1, 2, 3, 4}

    def test_flat_pair_encoding(self):
        s1 = ColorSequence((2, 1), 2, "linear")
        s2 = ColorSequence((1, 3), 3, "linear")
        g = product_grid(s1, s2)
        assert g.color(0, 1) == flat_pair(2, 3, 3) == 6
        assert g.mode == "plain"

    def test_mode_is_cyclic_only_when_both_axes_are(self):
        cyc = build_m1(3)
        assert product_grid(cyc, cyc).mode == "cyclic"
        assert product_grid(cyc, cyc.with_mode("linear")).mode == "plain"

    def test_rectangular(self):
        g = product_grid(
            ColorSequence(tuple([1] * 12), 1, "linear"),
            ColorSequence(tuple([1] * 30), 1, "linear"),
        )
        assert (g.M, g.N) == (12, 30)

    def test_cell_limit(self, monkeypatch):
        monkeypatch.setattr(grid2d, "MAX_CELLS", 12)
        ones = {n: ColorSequence(tuple([1] * n), 1, "linear") for n in (1, 3, 4, 13)}
        assert product_grid(ones[3], ones[4]).cells == ((1,) * 4,) * 3  # at the limit
        for s1, s2 in [(ones[13], ones[1]), (ones[1], ones[13])]:
            with pytest.raises(InputError) as info:
                product_grid(s1, s2)
            assert str(info.value) == (
                f"grid of {len(s1)} x {len(s2)} has 13 cells, more than the limit of 12"
            )

    def test_eight_square_from_pairs_word(self):
        axis = build_m2(4)  # 11332244, cyclic
        g = product_grid(axis, axis)
        assert (g.M, g.N, g.palette_size, g.mode) == (8, 8, 16, "cyclic")
        assert check_grid_distinguishable(g, 2, 2).ok


class TestBlockMultiset:
    def test_singleton_block(self):
        axis = linear_pairs_axis()
        g = product_grid(axis, axis)
        assert block_multiset(g, 2, 5, 1, 1).elements() == [g.color(2, 5)]

    def test_uniform_block(self):
        g = uniform_grid(3)
        assert block_multiset(g, 0, 0, 2, 2).counts == (4,)

    def test_projection_is_n_copies_of_axis_window(self):
        axis = linear_pairs_axis()
        g = product_grid(axis, axis)
        k2 = axis.palette_size
        for x0, y0 in ((0, 0), (3, 4), (7, 7)):
            block = block_multiset(g, x0, y0, 2, 2)
            projected = [(c - 1) // k2 + 1 for c in block.elements()]
            axis_window = window_multiset(axis, x0, 2).elements()
            assert sorted(projected) == sorted(axis_window * 2)

    def test_out_of_area_rejected(self):
        axis = linear_pairs_axis()
        g = product_grid(axis, axis)
        with pytest.raises(InputError):
            block_multiset(g, 8, 0, 2, 2)
        with pytest.raises(InputError):
            block_multiset(g, 0, 0, 10, 2)

    def test_cyclic_blocks_wrap(self):
        g = product_grid(build_m1(3), build_m1(3))
        ms = block_multiset(g, 2, 2, 2, 2)
        want = {g.color(2, 2), g.color(2, 0), g.color(0, 2), g.color(0, 0)}
        assert set(ms.elements()) == want


class TestCheckGrid:
    def test_product_of_distinguishable_axes_passes(self):
        axis = linear_pairs_axis()
        assert check_grid_distinguishable(product_grid(axis, axis), 2, 2).ok

    def test_bad_axis_fails_with_collision(self):
        good = linear_pairs_axis()
        bad = ColorSequence((1, 2, 1, 2, 1), 2, "linear")  # windows repeat
        report = check_grid_distinguishable(product_grid(bad, good), 2, 2)
        assert not report.ok
        (x0, y0), (x1, y1) = report.collision
        a = block_multiset(product_grid(bad, good), x0, y0, 2, 2)
        b = block_multiset(product_grid(bad, good), x1, y1, 2, 2)
        assert a == b

    def test_uniform_grid_collides(self):
        report = check_grid_distinguishable(uniform_grid(3), 2, 2)
        assert not report.ok
        assert report.collision == ((0, 0), (0, 1))

    def test_block_larger_than_grid(self):
        with pytest.raises(InputError):
            check_grid_distinguishable(uniform_grid(2), 3, 1)

    def test_cost_follows_the_grid_not_its_largest_color(self):
        # timed in a child, so a regression fails instead of hanging
        code = (
            "import time\n"
            "from mcgc.grid2d import ColorGrid2D, check_grid_distinguishable\n"
            "big = 10**12\n"
            "start = time.perf_counter()\n"
            "g = ColorGrid2D(((big, 1), (2, big - 1)), big, 'cyclic')\n"
            "assert check_grid_distinguishable(g, 1, 1).ok\n"
            "report = check_grid_distinguishable(g, 2, 1)\n"
            "assert report.collision == ((0, 0), (1, 0))\n"
            "assert time.perf_counter() - start < 0.5\n"
        )
        proc = run_child("-c", code, timeout=10)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("cells, mode, collision", [
        # blocks (0, 0), (0, 1), (0, 2), (1, 1) and (1, 2) are {1, 1, 2, 2}:
        # the repeat of the bucket's first block ends the search before
        # (0, 3) and (1, 3) ({1, 1, 1, 2}) are keyed
        (((1, 2, 1, 2, 1), (2, 1, 2, 1, 1), (2, 2, 1, 2, 1)), "plain", ((0, 0), (0, 1))),
        # eight wrapped blocks are {1, 2, 2, 2}, six {2, 2, 2, 2} and two
        # {1, 1, 2, 2}; only the first pair is keyed
        (((1, 2, 2, 2), (2, 2, 2, 1), (2, 2, 1, 2), (2, 2, 2, 2)), "cyclic", ((0, 0), (0, 2))),
    ], ids=["plain", "cyclic"])
    def test_exact_keys_built_where_sums_repeat(self, cells, mode, collision, monkeypatch):
        block_colors, keyed = grid2d._block_colors, []

        def counted(g, x0, y0, m, n):
            keyed.append((x0, y0))
            return block_colors(g, x0, y0, m, n)

        monkeypatch.setattr(grid2d, "_block_colors", counted)
        report = check_grid_distinguishable(ColorGrid2D(cells, 2, mode), 2, 2)
        assert report.collision == collision
        assert keyed == list(collision)

    @pytest.mark.parametrize("cells, mode, collision", [
        (((1, 4, 1, 3, 5), (5, 5, 4, 2, 2), (5, 2, 1, 2, 5), (5, 2, 4, 5, 3)), "plain",
         ((1, 1), (2, 2))),
        (((5, 4, 3, 3, 2), (5, 2, 3, 2, 2), (3, 1, 3, 1, 4)), "cyclic", ((1, 1), (1, 2))),
    ], ids=["plain", "cyclic"])
    def test_collision_tags_named_without_listing_every_block(
        self, cells, mode, collision, monkeypatch
    ):
        # a band holds N - n + 1 plain blocks but N cyclic ones, and the
        # collision sits past the first band, so a miscounted band misnames it
        g = ColorGrid2D(cells, 5, mode)
        assert naive_grid_distinguishable(g, 2, 2) == (False, collision)

        def refuse(*args):
            raise AssertionError("block_starts listed every block")

        monkeypatch.setattr(grid2d, "block_starts", refuse)
        report = check_grid_distinguishable(g, 2, 2)
        assert (report.ok, report.collision) == (False, collision)

    def test_product_iff_both_axes(self, rng):
        hits = {True: 0, False: 0}
        for _ in range(60):
            s1 = random_sequence(rng, max_len=12, max_k=4, mode="linear")
            s2 = random_sequence(rng, max_len=12, max_k=4, mode="linear")
            m = rng.randint(1, min(3, len(s1)))
            n = rng.randint(1, min(3, len(s2)))
            both = (
                check_distinguishable(s1, m).ok
                and check_distinguishable(s2, n).ok
            )
            got = check_grid_distinguishable(product_grid(s1, s2), m, n).ok
            assert got == both
            hits[both] += 1
        assert hits[True] and hits[False]  # the sample exercised both sides


class TestCodebook:
    def test_size_plain(self):
        axis = linear_pairs_axis()
        cb = build_codebook(product_grid(axis, axis), 2, 2)
        assert cb.size == (9 - 2 + 1) ** 2 == 64
        assert cb.size <= multichoose(cb.palette_size, 4)

    def test_size_cyclic_is_whole_grid(self):
        axis = build_m2(5)  # cyclic
        cb = build_codebook(product_grid(axis, axis), 2, 2)
        assert cb.size == 15 * 15

    def test_size_49_on_plain_eight_square(self):
        axis = build_m2(4).with_mode("linear")  # 11332244, 7 distinct windows
        cb = build_codebook(product_grid(axis, axis), 2, 2)
        assert cb.size == 49

    def test_round_trip_every_position(self):
        axis = linear_pairs_axis()
        g = product_grid(axis, axis)
        cb = build_codebook(g, 2, 2)
        for x0, y0 in block_starts(g, 2, 2):
            assert decode(cb, block_multiset(g, x0, y0, 2, 2)) == (x0, y0)

    def test_large_grid_codebook_memory(self):
        # track's 201x201 field on 400 colors: 40k blocks, each kept as its
        # four sorted colors rather than a count vector of length 400
        axis = axis_sequence(201, 2)
        g = product_grid(axis, axis)
        tracemalloc.start()
        try:
            cb = build_codebook(g, 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20
        assert cb.size == 200 * 200 and cb.palette_size == 400
        assert decode(cb, block_multiset(g, 123, 45, 2, 2)) == (123, 45)

    def test_count_vector_entries_are_converted_once(self):
        cb = Codebook(2, 1, 3, "plain", {(1, 0, 1): (0, 0), (0, 2, 0): (1, 0)})
        assert cb.size == 2 and cb.entries[(1, 0, 1)] == (0, 0)
        assert sorted(cb.entries) == [(0, 2, 0), (1, 0, 1)]
        assert decode_colors(cb, [3, 1]) == (0, 0) and decode_colors(cb, (2, 2)) == (1, 0)
        assert cb == parse_codebook(format_codebook(cb))
        assert cb.entries == {(0, 2, 0): (1, 0), (1, 0, 1): (0, 0)}
        assert cb != Codebook(2, 1, 3, "plain", {(1, 0, 1): (0, 0), (0, 2, 0): (1, 1)})
        for key in [(1, 0), (1, 1, 0, 0), (1, -1, 1), (1, 0, 0)]:
            with pytest.raises(InputError, match="is no multiset of 2 colors over 3"):
                Codebook(2, 1, 3, "plain", {key: (0, 0)})

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((0, 4, 2, "plain"), "block dimensions must be at least 1"),
            ((1, 0, 2, "plain"), "block dimensions must be at least 1"),
            ((-1, -1, 2, "plain"), "block dimensions must be at least 1"),
            ((1, 1, 0, "plain"), "palette size must be at least 1"),
            ((1, 1, 2, "torus"), "unknown grid mode 'torus'"),
        ],
    )
    def test_codebook_checks_its_own_shape(self, shape, message):
        entries = {(1, 0): (0, 0)} if shape[2] == 2 else {(): (0, 0)}
        with pytest.raises(InputError, match=message):
            Codebook(*shape, entries)

    def test_codebook_shape_checked_for_tables_keyed_by_colors(self):
        axis = linear_pairs_axis()
        with pytest.raises(InputError, match="block dimensions must be at least 1"):
            product_codebook(axis, axis, 0, 2)
        with pytest.raises(InputError, match="block dimensions must be at least 1"):
            parse_codebook("key,x0,y0\n0-0,4,4\n")  # zero colors: a 0x1 block
        with pytest.raises(InputError, match="block dimensions must be at least 1"):
            parse_codebook("# m=-1 n=-1 k=2\n1-0,0,0\n")

    def test_count_vector_with_a_negative_count_is_no_key(self):
        # it sums to the block size, and its colors present expand to a block
        with pytest.raises(InputError, match="is no multiset of 2 colors over 3"):
            Codebook(2, 1, 3, "plain", {(2, -1, 1): (0, 0)})
        cb = Codebook(2, 1, 3, "plain", {(1, 0, 1): (0, 0)})
        assert (2, -1, 1) not in cb.entries and (1, -1, 2) not in cb.entries

    def test_collision_names_positions(self):
        with pytest.raises(CollisionError) as err:
            build_codebook(uniform_grid(3), 2, 2)
        assert err.value.first == (0, 0)
        assert err.value.second == (0, 1)

    def test_product_codebook_collision_is_the_first_repeated_block(self):
        repeating = ColorSequence((1, 2, 1, 2), 2, "linear")  # windows 0, 1, 2 equal
        distinct = ColorSequence((1, 2, 3), 3, "linear")
        with pytest.raises(CollisionError) as err:
            product_codebook(repeating, distinct, 2, 1)
        assert (err.value.first, err.value.second) == ((0, 0), (1, 0))
        # a repeated column window shows in the first band of blocks, before
        # any repeated row window
        with pytest.raises(CollisionError) as err:
            product_codebook(repeating, repeating, 2, 2)
        assert (err.value.first, err.value.second) == ((0, 0), (0, 1))

    def test_product_codebook_rejects_oversized_blocks(self):
        axis = linear_pairs_axis()
        with pytest.raises(InputError, match="larger than grid 9x9"):
            product_codebook(axis, axis, 10, 2)
        with pytest.raises(InputError, match="at least 1"):
            product_codebook(axis, axis, 2, 0)

    def test_product_codebook_refuses_negative_counts(self):
        axis = linear_pairs_axis()
        cb = product_codebook(axis, axis, 2, 2)
        counts = list(block_multiset(product_grid(axis, axis), 0, 0, 2, 2).counts)
        assert tuple(counts) in cb.entries
        counts[counts.index(0)] = -1  # the block's colors plus a negative count
        assert tuple(counts) not in cb.entries

    def test_decode_is_permutation_invariant(self, rng):
        axis = linear_pairs_axis()
        g = product_grid(axis, axis)
        cb = build_codebook(g, 2, 2)
        colors = [g.color(3 + i, 4 + j) for i in range(2) for j in range(2)]
        for _ in range(8):
            rng.shuffle(colors)
            assert decode(cb, Multiset.of(colors, g.palette_size)) == (3, 4)

    def test_decode_error_kinds(self):
        axis = linear_pairs_axis()
        g = product_grid(axis, axis)
        cb = build_codebook(g, 2, 2)
        with pytest.raises(CardinalityError):
            decode(cb, Multiset.of([1, 1, 1], g.palette_size))
        with pytest.raises(CardinalityError):
            decode(cb, Multiset.of([1] * 4, g.palette_size + 1))
        # four copies of one color never happen in this grid
        missing = Multiset.of([g.palette_size] * 4, g.palette_size)
        if missing.counts not in cb.entries:
            with pytest.raises(UnknownBlockError):
                decode(cb, missing)

    @pytest.mark.parametrize("bad, message", [
        (float("nan"), "color nan outside palette [1..9]"),  # no sorted order places it
        (1.5, "color 1.5 is not an integer"),  # inside the palette, yet no color
    ])
    def test_non_integer_colors_fail_alike_through_either_decode(self, bad, message):
        cb = deploy(SimConfig(4, 2, 1, 8, seed=0)).codebook
        colors = [1, 2, bad, 3]
        for call in (
            lambda: decode(cb, Multiset.of(colors, cb.palette_size)),
            lambda: decode_colors(cb, colors),
        ):
            with pytest.raises(InputError) as info:
                call()
            assert str(info.value) == message

    def test_decoding_makes_no_count_vector(self, monkeypatch):
        axis = linear_pairs_axis()
        g = product_grid(axis, axis)
        cb = product_codebook(axis, axis, 2, 2)
        made = []
        of = Multiset.of.__func__

        def kept(cls, colors, k):
            made.append(of(cls, colors, k))
            return made[-1]

        monkeypatch.setattr(Multiset, "of", classmethod(kept))
        hit = [g.color(3 + i, 4 + j) for i in range(2) for j in range(2)]
        assert decode(cb, Multiset.of(hit, g.palette_size)) == (3, 4)
        assert decode_colors(cb, hit) == (3, 4)
        # no block holds three cells of one color and one of another
        for colors, error in ([1, 1, 1, 2], UnknownBlockError), (hit[:3], CardinalityError):
            with pytest.raises(error):
                decode(cb, Multiset.of(colors, g.palette_size))
            with pytest.raises(error):
                decode_colors(cb, colors)
        assert len(made) == 6 and not any("counts" in vars(ms) for ms in made)


def outcome(call, *args) -> str:
    try:
        return repr(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestCodingAreaPinned:
    def test_tags_blocks_and_codebooks_pinned(self):
        # recorded before the start rule had one owner: seeded grids of
        # M, N 1..6 over 1 + M*N // 2 colors, blocks m, n 1..3, both modes,
        # with block_multiset at every tag point and one past each edge
        digest = hashlib.sha256()
        for M in range(1, 7):
            for N in range(1, 7):
                rng = random.Random(10 * M + N)
                k = 1 + M * N // 2
                cells = tuple(tuple(rng.choices(range(1, k + 1), k=N)) for _ in range(M))
                for mode in ("plain", "cyclic"):
                    g = ColorGrid2D(cells, k, mode)
                    for m in range(1, 4):
                        for n in range(1, 4):
                            lines = [
                                outcome(block_starts, g, m, n),
                                outcome(check_grid_distinguishable, g, m, n),
                                outcome(lambda: format_codebook(build_codebook(g, m, n))),
                            ]
                            lines.extend(
                                outcome(block_multiset, g, x0, y0, m, n)
                                for x0 in range(-1, M + 1)
                                for y0 in range(-1, N + 1)
                            )
                            for line in lines:
                                digest.update(f"{M},{N},{mode},{m},{n}:{line}\n".encode())
        assert digest.hexdigest() == (
            "ebcfd5a3cd6c4ddfb376c8d98f9e863c4497ecc657c5a957f0af8ae18c642e36"
        )


class TestGridFiles:
    def test_grid_round_trip(self):
        axis = linear_pairs_axis()
        g = product_grid(axis, axis)
        text = format_grid(g)
        assert text.startswith("# M=9 N=9 k=16 mode=plain\n")
        assert parse_grid(text) == g

    def test_codebook_round_trip(self):
        axis = linear_pairs_axis()
        cb = build_codebook(product_grid(axis, axis), 2, 2)
        parsed = parse_codebook(format_codebook(cb))
        assert parsed.entries == cb.entries
        assert (parsed.block_m, parsed.block_n) == (2, 2)
        assert parsed.palette_size == cb.palette_size

    def test_bad_files_rejected(self):
        with pytest.raises(InputError):
            parse_grid("# k=3\n")
        with pytest.raises(InputError):
            parse_grid("1,2\n1\n")
        with pytest.raises(InputError):
            parse_codebook("key,x0,y0\n")

    def test_bad_grid_header_value(self):
        with pytest.raises(InputError, match="k=x"):
            parse_grid("# M=1 N=2 k=x mode=plain\n1,2\n")

    def test_bad_codebook_header_value(self):
        with pytest.raises(InputError, match="n=x"):
            parse_codebook("# m=1 n=x k=2 mode=plain\nkey,x0,y0\n1-0,0,0\n")

    def test_codebook_header_block_size_checked(self):
        # rows of one color cannot be 2x1 blocks
        with pytest.raises(InputError, match="codebook header"):
            parse_codebook("# m=2 n=1 k=2 mode=plain\nkey,x0,y0\n1-0,0,0\n")

    def test_codebook_header_palette_checked(self):
        with pytest.raises(InputError, match="codebook header"):
            parse_codebook("# m=1 n=1 k=9 mode=plain\nkey,x0,y0\n1-0,0,0\n0-1,0,1\n")

    def test_codebook_key_on_two_rows_rejected(self):
        # with both rows kept, decode would answer with one of two positions
        with pytest.raises(InputError, match="appears on two rows"):
            parse_codebook("key,x0,y0\n1-0,0,0\n1-0,1,1\n")

    def test_codebook_files_within_the_length_limit(self, monkeypatch):
        monkeypatch.setattr(construct, "MAX_LENGTH", 4)
        assert parse_codebook("key,x0,y0\n4,0,0\n").block_m == 4
        with pytest.raises(InputError, match="codebook file has 5 symbols"):
            parse_codebook("key,x0,y0\n5,0,0\n")
        # the checks before it keep their order
        with pytest.raises(InputError, match="codebook header"):
            parse_codebook("# m=2 n=1\nkey,x0,y0\n5,0,0\n")
        assert format_codebook(build_codebook(ColorGrid2D(((1,),), 4), 1, 1))
        with pytest.raises(InputError, match="codebook file has 5 symbols"):
            format_codebook(build_codebook(ColorGrid2D(((1,),), 5), 1, 1))

    def test_codebook_without_header_takes_rows(self):
        cb = parse_codebook("key,x0,y0\n2-0,0,0\n1-1,0,1\n")
        assert (cb.block_m, cb.block_n, cb.palette_size) == (2, 1, 2)

    @pytest.mark.parametrize("header", ["M=3 N=2", "M=2 N=3", "M=3", "N=1"])
    def test_grid_header_shape_checked(self, header):
        with pytest.raises(InputError, match="2x2 rows"):
            parse_grid(f"# {header} k=2 mode=plain\n1,2\n2,1\n")

    def test_grid_files_within_the_cell_limit(self, monkeypatch):
        monkeypatch.setattr(grid2d, "MAX_CELLS", 6)
        assert parse_grid("# M=2 N=3 k=1\n1,1,1\n1,1,1\n").M == 2  # at the limit
        assert parse_grid("1,1,1\n1,1,1\n").M == 2
        past = "more than the limit of 6"
        # a header past the limit is refused at the first row, before the
        # checks that read every row
        with pytest.raises(InputError, match=f"^grid of 7 x 1 has 7 cells, {past}$"):
            parse_grid("# M=7 N=1\n1\nx\n")
        with pytest.raises(InputError, match=f"^grid of 3 x 3 has 9 cells, {past}$"):
            parse_grid("1,1,1\n1,1,1\n1,1,1\n")
        # the files refused below the limit keep their errors
        with pytest.raises(InputError, match="^no grid rows found$"):
            parse_grid("# M=7 N=1\n")
        with pytest.raises(InputError, match="disagrees with its 2x3 rows"):
            parse_grid("# M=-7 N=-1\n1,1,1\n1,1,1\n")

    def test_grid_header_shape_optional(self):
        assert parse_grid("# k=2\n1,2\n2,1\n").M == 2

    def test_unknown_mode_header_rejected(self):
        with pytest.raises(InputError, match="unknown mode"):
            parse_grid("# mode=torus\n1,2\n")
        with pytest.raises(InputError, match="unknown mode"):
            parse_codebook("# m=1 n=1 mode=torus\nkey,x0,y0\n1-0,0,0\n")
