import hashlib
import math
import random
import tracemalloc

import pytest

from mcgc.bounds import min_colors_1d
from mcgc.errors import ComposeError, InputError, McgcError
from mcgc.grid2d import block_multiset, block_starts, decode
from mcgc.sequences import check_distinguishable
from mcgc.sim import (
    SimConfig,
    axis_sequence,
    deploy,
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

    def test_sensor_blocks_have_block_squared_channels(self):
        _, records = run(SimConfig(6, 3, 20, 8, seed=4))
        assert all(len(r.sensors) == 9 and len(r.report) == 9 for r in records)

    def test_gain_bound_uses_axis_bound(self):
        report, _ = run(SimConfig(20, 2, 10, 8, seed=3))
        side = 21
        want = math.log2(min_colors_1d(side, 2)) / math.log2(side)
        assert report.gain_bound == pytest.approx(want)
