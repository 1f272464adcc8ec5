import dataclasses
import hashlib
import math
import pickle
import random
import tracemalloc
from collections import OrderedDict

import pytest

from conftest import patched_placement

from mcgc import sim
from mcgc.bounds import min_colors_1d
from mcgc.errors import ComposeError, InputError, McgcError, TrackingError, UnknownBlockError
from mcgc.grid2d import block_multiset, block_starts, decode, decode_colors
from mcgc.sequences import check_distinguishable
from mcgc.sim import (
    SimConfig,
    SlotRecord,
    axis_sequence,
    deploy,
    iter_slots,
    parse_config,
    parse_trajectory,
    run,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SimConfig(2, 3, 10, 8, 0)  # block larger than the cell side
        with pytest.raises(InputError):
            SimConfig(6, 2, 0, 8, 0)
        with pytest.raises(InputError):
            SimConfig(6, 2, 10, 0, 0)
        with pytest.raises(InputError):
            SimConfig(6, 2, 10, 8, 0, trajectory="drift")

    @pytest.mark.parametrize("cells, want", [
        (6, "unknown trajectory 'foo'"),
        (1, "need cells_per_side >= block >= 1"),  # the block check comes first
    ])
    def test_trajectory_error_text_and_order(self, cells, want):
        with pytest.raises(InputError) as info:
            SimConfig(cells, 2, 10, 8, 0, trajectory="foo")
        assert str(info.value) == want

    def test_as_dict_names_every_field_in_order(self):
        config = SimConfig(6, 2, 10, 8, 5, trajectory="walk", p_move=0.25)
        assert list(config.as_dict().items()) == [
            ("cells_per_side", 6), ("block", 2), ("slots", 10), ("bits_per_slot", 8),
            ("seed", 5), ("trajectory", "walk"), ("p_move", 0.25),
        ]

    def test_trajectory_strings(self):
        assert parse_trajectory("uniform") == ("uniform", 0.5)
        assert parse_trajectory("walk") == ("walk", 0.5)
        assert parse_trajectory("walk:0.25") == ("walk", 0.25)
        with pytest.raises(InputError):
            parse_trajectory("walk:high")

    def test_config_file(self):
        text = "# comment\ncells=6\nm=2\nslots=100\nbits=8\nseed=5\ntraj=walk:0.8\n"
        config = parse_config(text)
        assert config.cells_per_side == 6
        assert config.trajectory == "walk" and config.p_move == 0.8

    def test_config_comments_and_blank_lines_are_skipped(self):
        # header-like tokens in a comment are not read as a mode or a number
        text = "cells=6\nm=2\nslots=100\nbits=8\nseed=5\ntraj=walk:0.8\n"
        noisy = "# mode=fast k=x\n\n  \n" + text.replace("\n", "\n  # mode=fast k=x\n\n", 2)
        assert parse_config(noisy) == parse_config(text)

    def test_config_file_missing_key(self):
        with pytest.raises(InputError, match="seed"):
            parse_config("cells=6\nm=2\nslots=10\nbits=8\n")

    def test_config_file_unknown_key(self):
        # the trajectory key is traj; a misspelt key must not fall back to uniform
        text = "cells=6\nm=2\nslots=10\nbits=8\nseed=1\ntrajectory=walk\n"
        with pytest.raises(InputError, match="unknown config key 'trajectory'"):
            parse_config(text)

    def test_config_file_repeated_key(self):
        # a repeated key is refused rather than the last value taken
        text = "cells=3\nm=2\nslots=10\nbits=8\nseed=1\ncells=50\n"
        with pytest.raises(InputError, match="config key 'cells' given twice"):
            parse_config(text)


class TestAxisSequence:
    def test_lengths_and_validity(self):
        for side, m in ((6, 1), (7, 2), (8, 3), (21, 2), (22, 3), (102, 3)):
            axis = axis_sequence(side, m)
            assert len(axis) == side and axis.mode == "linear"
            assert check_distinguishable(axis, m).ok

    def test_minimal_constructive_palettes(self):
        assert axis_sequence(7, 2).palette_size == 3
        assert axis_sequence(8, 3).palette_size == 3
        assert axis_sequence(21, 2).palette_size == 7
        assert axis_sequence(22, 3).palette_size == 6
        assert axis_sequence(102, 3).palette_size == 9

    def test_window2_palette_matches_bound(self):
        # the window-2 family is fully constructive, so the axis palette
        # equals the bound-minimal palette
        for side in (7, 10, 21, 40):
            assert axis_sequence(side, 2).palette_size == min_colors_1d(side, 2)

    def test_beyond_the_palette_budget(self):
        # build_m2(64) cut open has 2049 symbols
        assert axis_sequence(2049, 2).palette_size == 64
        with pytest.raises(ComposeError, match="within 64 colors"):
            axis_sequence(2050, 2)

    def test_axes_pinned(self, cached_builds):
        # sha256 of every axis in the sweep, recorded before the axes went
        # through compose_for_m
        digest = hashlib.sha256()
        for m in range(1, 7):
            for side in range(m, 401):
                try:
                    line = repr(axis_sequence(side, m))
                except McgcError:
                    line = "error"
                digest.update(f"{m},{side}:{line}\n".encode())
        assert digest.hexdigest() == (
            "f5ece3e52c152a68793179426535061654e49066f5065cf31f3b1e57bb10b3ec"
        )

    def test_window4_uses_interleaving(self):
        axis = axis_sequence(12, 4)
        assert len(axis) == 12
        assert check_distinguishable(axis, 4).ok


class TestDeploy:
    @pytest.mark.parametrize("C,m", [(6, 1), (6, 2), (6, 3), (20, 2)])
    def test_geometry(self, C, m):
        placement = deploy(SimConfig(C, m, 1, 8, 0))
        assert placement.side == C + m - 1
        assert placement.grid.M == placement.grid.N == placement.side
        assert placement.codebook.size == C * C
        starts = block_starts(placement.grid, m, m)
        assert len(starts) == C * C  # cells are exactly the coding area

    def test_large_field_decodes_through_its_axes(self):
        tracemalloc.start()
        try:
            placement = deploy(SimConfig(1000, 2, 1, 8, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert placement.codebook.size == 10**6
        rng = random.Random(0)
        for _ in range(100):
            x0, y0 = rng.randrange(1000), rng.randrange(1000)
            block = block_multiset(placement.grid, x0, y0, 2, 2)
            assert decode(placement.codebook, block) == (x0, y0)

    def test_m1_needs_unique_colors(self):
        placement = deploy(SimConfig(6, 1, 1, 8, 0))
        assert placement.colors == 36


class TestRun:
    def test_uniform_accuracy_and_bits(self):
        report, records = run(SimConfig(6, 2, 500, 8, seed=11))
        assert report.accuracy == 1.0
        assert report.decode_matches == 500
        assert report.baseline_bits == 6  # ceil(log2 36)
        assert report.color_bits == 4  # ceil(log2 9)
        assert len(records) == 500
        assert all(r.decoded == r.cell for r in records)

    def test_m1_baseline_equals_color_protocol(self):
        report, _ = run(SimConfig(6, 1, 50, 8, seed=2))
        assert report.colors == 36
        assert report.baseline_bits == report.color_bits
        assert report.gain_wire == 1.0
        assert report.gain_bound == 1.0

    def test_fixed_seed_reproduces_records_byte_for_byte(self):
        a = run(SimConfig(6, 3, 300, 8, seed=77))
        b = run(SimConfig(6, 3, 300, 8, seed=77))
        assert [r.to_json() for r in a[1]] == [r.to_json() for r in b[1]]
        assert a[0].to_json() == b[0].to_json()

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("trajectory", ["uniform", "walk"])
    def test_run_lists_the_slot_generator(self, m, trajectory):
        config = SimConfig(7, m, 300, 8, seed=13, trajectory=trajectory)
        assert run(config)[1] == list(iter_slots(config, deploy(config)))

    def test_records_of_a_cell_share_their_tuples(self):
        _, records = run(SimConfig(4, 3, 200, 8, seed=6))
        first = {}
        for r in records:
            seen = first.setdefault(r.cell, r)
            assert r.cell is seen.cell and r.sensors is seen.sensors
            assert r.decoded is r.cell
        assert len(first) < len(records)

    def test_full_tuple_cache_starts_over_with_the_same_records(self, monkeypatch):
        config = SimConfig(7, 2, 300, 8, seed=13)
        want = run(config)[1]
        monkeypatch.setattr(sim, "_VISITED_CELLS", 2)
        records = run(config)[1]
        assert records == want
        # 49 cells, yet a cache of two made more sensor tuples than that
        assert len({id(r.sensors) for r in records}) > 49

    def test_different_seeds_differ(self):
        a = run(SimConfig(6, 2, 200, 8, seed=1))[1]
        b = run(SimConfig(6, 2, 200, 8, seed=2))[1]
        assert [r.cell for r in a] != [r.cell for r in b]

    def test_walk_moves_are_neighbors(self):
        report, records = run(
            SimConfig(8, 2, 400, 8, seed=9, trajectory="walk", p_move=0.7)
        )
        assert report.accuracy == 1.0
        for prev, cur in zip(records, records[1:]):
            dx = abs(prev.cell[0] - cur.cell[0])
            dy = abs(prev.cell[1] - cur.cell[1])
            assert dx + dy <= 1

    def test_walk_on_a_single_cell_stays_put(self):
        report, records = run(SimConfig(1, 1, 20, 8, seed=5, trajectory="walk"))
        assert report.accuracy == 1.0
        assert {r.cell for r in records} == {(0, 0)}

    def test_budget_flags(self):
        report, _ = run(SimConfig(100, 3, 5, 6, seed=0))
        assert not report.baseline_feasible  # log2(100^2) = 13.3 > 6
        assert report.color_feasible  # bound palette 64 fits exactly
        assert report.min_colors_bound == 64
        assert not report.color_feasible_deployed  # deployed palette is 81
        assert report.colors == 81

    def test_budget_flags_pinned(self):
        """The three flags and both bit counts over C 1..12 x m 1..3 x bits
        1..12, pinned by sha256."""
        digest = hashlib.sha256()
        for C in range(1, 13):
            for m in range(1, min(C, 3) + 1):
                placement = deploy(SimConfig(C, m, 1, 1, 0))
                for b in range(1, 13):
                    r = sim.summarize(SimConfig(C, m, 1, b, 0), placement)
                    line = (
                        f"{C},{m},{b},{r.baseline_bits},{r.color_bits},{r.baseline_feasible},"
                        f"{r.color_feasible},{r.color_feasible_deployed}\n"
                    )
                    digest.update(line.encode())
        assert digest.hexdigest() == (
            "30529f48e586c9e9b3c809e3f142ff4d3b48048ea692881855f594e029db9dc9"
        )

    def test_sensor_blocks_have_block_squared_channels(self):
        _, records = run(SimConfig(6, 3, 20, 8, seed=4))
        assert all(len(r.sensors) == 9 and len(r.report) == 9 for r in records)

    def test_gain_bound_uses_axis_bound(self):
        report, _ = run(SimConfig(20, 2, 10, 8, seed=3))
        side = 21
        want = math.log2(min_colors_1d(side, 2)) / math.log2(side)
        assert report.gain_bound == pytest.approx(want)


class TestDecodeOncePerCell:
    # error, slot and text recorded when every slot decoded its report
    @pytest.mark.parametrize("config, patch, cell, error, slot, text", [
        (SimConfig(6, 2, 300, 8, seed=5), "non_injective", (0, 3), TrackingError, 196,
         "slot 196: decoded (1, 3) but object is at (0, 3)"),
        (SimConfig(6, 2, 300, 8, seed=5, trajectory="walk"), "unknown", (3, 3),
         UnknownBlockError, 184, "multiset 0-0-0-0-1-1-0-1-1 is not a code symbol"),
        # the block arrives as 1, 33, 31, ...: the error names the first color
        # outside the palette in arrival order, not the least
        (SimConfig(10, 3, 400, 8, seed=14, trajectory="walk"), "small_palette", (0, 0),
         InputError, 99, "color 33 outside palette [1..18]"),
    ])
    def test_a_bad_block_raises_at_its_first_visit(self, config, patch, cell, error, slot, text):
        records = []
        with pytest.raises(error) as info:
            for record in iter_slots(config, patched_placement(config, patch, cell)):
                records.append(record)
        assert (type(info.value), str(info.value)) == (error, text)
        assert records == run(config)[1][:slot]
        assert len({r.cell for r in records}) < slot  # earlier cells were visited again

    def test_each_cell_is_decoded_once_until_it_is_dropped(self, monkeypatch):
        calls = []

        def counted(codebook, colors):
            calls.append(tuple(colors))
            return decode_colors(codebook, colors)

        monkeypatch.setattr(sim, "decode_colors", counted)
        config = SimConfig(7, 2, 300, 8, seed=13)
        records = run(config)[1]
        first = {}
        for r in records:
            first.setdefault(r.cell, r.report)
        # one decode per cell, of its first visit's arrival order
        assert calls == list(first.values()) and len(calls) == 49
        calls.clear()
        monkeypatch.setattr(sim, "_VISITED_CELLS", 2)
        assert run(config)[1] == records
        kept, want = OrderedDict(), []
        for r in records:
            if r.cell in kept:
                kept.move_to_end(r.cell)
                continue
            want.append(r.report)
            kept[r.cell] = None
            if len(kept) > 2:
                kept.popitem(last=False)
        assert calls == want and len(want) > 100


class TestSlotRecord:
    RECORD = SlotRecord(3, (1, 2), ((1, 2), (1, 3), (2, 2), (2, 3)), (5, 4, 7, 8), (1, 2), 4)

    def test_fields_repr_eq_and_hash(self):
        record = self.RECORD
        names = [f.name for f in dataclasses.fields(SlotRecord)]
        assert names == ["slot", "cell", "sensors", "report", "decoded", "bits_per_channel"]
        assert repr(record) == (
            "SlotRecord(slot=3, cell=(1, 2), sensors=((1, 2), (1, 3), (2, 2), (2, 3)), "
            "report=(5, 4, 7, 8), decoded=(1, 2), bits_per_channel=4)"
        )
        copy = SlotRecord(*(getattr(record, name) for name in names))
        assert copy == record and copy is not record
        assert hash(copy) == hash(record) == hash(dataclasses.astuple(record))
        assert record != dataclasses.replace(record, slot=4)

    def test_pickle_replace_and_no_dict(self):
        record = self.RECORD
        assert pickle.loads(pickle.dumps(record)) == record
        moved = dataclasses.replace(record, slot=9, bits_per_channel=2)
        assert (moved.slot, moved.bits_per_channel, moved.report) == (9, 2, record.report)
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.slot = 4
