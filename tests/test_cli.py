import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from vectors import BASE_K3, BASE_K6, CROSS_S, CROSS_T, PROBE_15

import mcgc
from mcgc import cli, crossing, sim
from mcgc.cli import dispatch
from mcgc.grid2d import build_codebook, format_codebook, format_grid
from mcgc.sequences import parse_sequences


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_probe(tmp_path, name="probe.txt", mode="cyclic"):
    path = tmp_path / name
    body = " ".join(PROBE_15)
    path.write_text(f"# k=5 mode={mode}\n{body}\n")
    return str(path)


class TestConstructVerify:
    def test_construct_prints_length_162(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--m", "3", "--k", "9", "--cyclic")
        assert code == 0
        colors = out.strip().splitlines()[-1].split()
        assert len(colors) == 162
        assert out.startswith("# k=9 mode=cyclic\n")

    def test_construct_beyond_the_length_limit_exit_1(self, capsys):
        # this ended in a RecursionError traceback
        code, out, err = run_cli(capsys, "construct", "--m", "3", "--k", "3006")
        assert (code, out) == (1, "")
        assert err == (
            "error: the window-3 word on 3006 colors has 4531572054 symbols, "
            "more than the limit of 1048576\n"
        )

    def test_construct_linear_cut(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--m", "2", "--k", "4", "--linear", "--cut", "7"
        )
        assert code == 0
        assert out.splitlines()[-1].replace(" ", "") == "113322441"

    def test_cut_without_linear_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--m", "2", "--k", "4", "--cut", "3"
        )
        assert code == 1 and "error" in err

    def test_verify_base_word(self, tmp_path, capsys):
        path = tmp_path / "word.txt"
        path.write_text("# k=6 mode=cyclic\n" + " ".join(BASE_K6) + "\n")
        code, out, _ = run_cli(capsys, "verify", "--m", "3", "--cyclic", str(path))
        assert code == 0
        assert out.strip() == "ok, 54 windows distinct"

    def test_verify_collision_exit_1(self, tmp_path, capsys):
        path = write_probe(tmp_path)
        code, out, _ = run_cli(capsys, "verify", "--m", "3", "--cyclic", path)
        assert code == 1
        assert "13 and 14" in out

    def test_verify_collision_to_output_file_exit_1(self, tmp_path, capsys):
        path = write_probe(tmp_path)
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "verify", "--m", "3", "--cyclic", path, "-o", str(target))
        assert (code, out) == (1, "")
        assert target.read_text() == "collision: windows 13 and 14 carry the same multiset\n"

    def test_verify_json_format(self, tmp_path, capsys):
        path = write_probe(tmp_path)
        code, out, _ = run_cli(
            capsys, "verify", "--m", "2", "--format", "json", path
        )
        assert code == 0
        assert json.loads(out) == {"ok": True, "windows": 15}

    def test_library_and_cli_agree(self, tmp_path, capsys):
        from mcgc.construct import build_m3
        from mcgc.sequences import format_sequence

        _, out, _ = run_cli(capsys, "construct", "--m", "3", "--k", "6", "--cyclic")
        assert out == format_sequence(build_m3(6))


class TestCutSearch:
    def test_cut_command(self, tmp_path, capsys):
        path = write_probe(tmp_path)
        code, out, _ = run_cli(capsys, "cut", "--t", "14", "--m", "2", path)
        assert code == 0
        assert out.splitlines()[-1].replace(" ", "") == PROBE_15 + PROBE_15[0]

    def test_cut_window_longer_than_word_exit_1(self, tmp_path, capsys):
        path = tmp_path / "word.txt"
        path.write_text("# k=3 mode=cyclic\n1 1 2 2 3 3\n")
        code, out, err = run_cli(capsys, "cut", "--t", "0", "--m", "9", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "exceeds sequence length 6" in err

    def test_search_max(self, capsys):
        code, out, _ = run_cli(capsys, "search-max", "--m", "2", "--k", "4", "--cap", "60")
        assert code == 0
        assert "max=8" in out and "proven" in out

    def test_search_max_deeper_than_the_recursion_limit(self, capsys):
        code, out, _ = run_cli(capsys, "search-max", "--m", "2", "--k", "45", "--cap", "1035")
        assert code == 0
        assert out.splitlines()[1] == "# search m=2 max=1035 proven cap=1035 ceiling=1035"

    def test_search_max_on_a_huge_prime_window(self):
        # the prime test of the ceiling runs only when m divides k, and the
        # one-symbol word's wrapped window is keyed without being spelled out
        m = 1000000000000000003
        proc = subprocess.run(
            [sys.executable, "-m", "mcgc.cli", "search-max", "--m", str(m), "--k", "1", "--cap", "1"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(Path(mcgc.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1] == f"# search m={m} max=1 proven cap=1 ceiling=1"


class TestCrossCompose:
    def test_cross_auto_shifts_palette(self, tmp_path, capsys):
        s = tmp_path / "s.txt"
        t = tmp_path / "t.txt"
        run_cli(capsys, "construct", "--m", "3", "--k", "3", "-o", str(s))
        run_cli(capsys, "construct", "--m", "2", "--k", "3", "-o", str(t))
        code, out, _ = run_cli(
            capsys, "cross", "--s", str(s), "--t", str(t), "--m1", "3", "--m2", "2"
        )
        assert code == 0
        assert "# cross split=3+2 d=3 L=3" in out
        assert len(out.strip().splitlines()[-1].split()) == 15

    def test_cross_invalid_plan_exit_1(self, tmp_path, capsys):
        s = tmp_path / "s.txt"
        run_cli(capsys, "construct", "--m", "2", "--k", "4", "-o", str(s))
        t = tmp_path / "t.txt"
        t.write_text("# k=3 mode=cyclic\n1 2 3 1 2 3 1 2 3 1 2 3 1 2 3\n")
        code, _, err = run_cli(
            capsys, "cross", "--s", str(s), "--t", str(t), "--m1", "2", "--m2", "3"
        )
        assert code == 1 and "error" in err

    def test_compose(self, capsys):
        code, out, _ = run_cli(capsys, "compose", "--m", "5")
        assert code == 0
        assert "# compose split=3+2" in out

    def test_compose_budget_default_is_the_library_default(self):
        args = cli.build_parser().parse_args(["compose", "--m", "5"])
        signature = inspect.signature(crossing.compose_for_m)
        assert args.max_colors == signature.parameters["max_colors"].default == 48

    def test_compose_ten_factors_large_budget_returns(self):
        # the color budget starts at the least total the factors need (30)
        # and grows only while no fold is feasible, so a large budget is
        # never walked
        proc = subprocess.run(
            [sys.executable, "-m", "mcgc.cli", "compose", "--m", "30", "--max-colors", "90"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(mcgc.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# k=30 mode=cyclic\n")
        assert "palettes=3,3,3,3,3,3,3,3,3,3" in proc.stdout


class TestTables:
    def test_kmin_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "kmin", "--m", "2,3,4", "--sizes", "50,200,1000,10000"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,M,k"
        assert "2,10000,141" in lines and "4,50,5" in lines

    def test_gain_csv(self, capsys):
        code, out, _ = run_cli(capsys, "gain", "--sizes", "50", "--blocks", "2,4x3")
        assert code == 0
        assert "2,2,50,50,10,10,0.588" in out
        assert "4,3,50,50,5,6,0.434" in out

    def test_gain_on_one_by_one_grid(self, capsys):
        code, out, err = run_cli(capsys, "gain", "--sizes", "1", "--blocks", "1")
        assert (code, err) == (0, "")
        assert out == "m,n,M,N,k_M,k_N,gain\n1,1,1,1,1,1,1.000\n"

    def test_bounds_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--m", "2", "--k-range", "3..5", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["k"] for row in rows] == [3, 4, 5]
        assert rows[0]["tight"] is True

    def test_unsupported_bounds_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--m", "5", "--k-range", "3..4")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("argv, header", [
        (["bounds", "--m", "2", "--k-range", ","], "m,k,lower,upper,tight,"),
        (["kmin", "--m", ",", "--sizes", "10"], "m,M,k\n"),
        (["gain", "--sizes", ",", "--blocks", "2"], "m,n,M,N,k_M,k_N,gain\n"),
    ], ids=["bounds", "kmin", "gain"])
    def test_empty_tables(self, argv, header, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(header) and out.count("\n") == 1
        assert run_cli(capsys, *argv, "--format", "json") == (0, "[]\n", "")


class TestGridPipeline:
    @pytest.mark.parametrize("command, k", [("grid", "36"), ("codebook", "12")])
    def test_files_stream_in_flat_memory(self, command, k, tmp_path, capsys):
        # joining the whole file before writing it peaked at about 6 MB
        axis, grid, out = (str(tmp_path / name) for name in ("axis.txt", "grid.csv", "out.csv"))
        assert dispatch(["construct", "--m", "2", "--k", k, "--linear", "-o", axis]) == 0
        assert dispatch(["grid", "--s", axis, "--t", axis, "-o", grid]) == 0
        argv = {
            "grid": ["grid", "--s", axis, "--t", axis],
            "codebook": ["codebook", "--grid", grid, "--m", "2", "--n", "2"],
        }[command]
        tracemalloc.start()
        try:
            result = run_cli(capsys, *argv, "-o", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "", "")
        assert peak < 2 * 2**20
        seq = parse_sequences(Path(axis).read_text())[0]
        g = mcgc.product_grid(seq, seq)
        want = format_grid(g) if command == "grid" else format_codebook(build_codebook(g, 2, 2))
        assert Path(out).read_text() == want

    def test_grid_codebook_decode(self, tmp_path, capsys):
        axis = tmp_path / "axis.txt"
        run_cli(
            capsys, "construct", "--m", "2", "--k", "4", "--linear", "-o", str(axis)
        )
        grid = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "grid", "--s", str(axis), "--t", str(axis), "-o", str(grid)
        )
        assert code == 0
        book = tmp_path / "book.csv"
        code, _, _ = run_cli(
            capsys, "codebook", "--grid", str(grid), "--m", "2", "--n", "2",
            "-o", str(book),
        )
        assert code == 0

        from mcgc.grid2d import block_multiset, parse_grid
        g = parse_grid(grid.read_text())
        ms = block_multiset(g, 3, 4, 2, 2)
        colors = ",".join(map(str, ms.elements()))
        code, out, _ = run_cli(
            capsys, "decode", "--codebook", str(book), "--colors", colors
        )
        assert code == 0
        assert out.strip() == "3 4"

    def test_decode_unknown_multiset_exit_1(self, tmp_path, capsys):
        axis = tmp_path / "axis.txt"
        run_cli(capsys, "construct", "--m", "2", "--k", "4", "--linear", "-o", str(axis))
        grid = tmp_path / "grid.csv"
        run_cli(capsys, "grid", "--s", str(axis), "--t", str(axis), "-o", str(grid))
        book = tmp_path / "book.csv"
        run_cli(
            capsys, "codebook", "--grid", str(grid), "--m", "2", "--n", "2",
            "-o", str(book),
        )
        # three copies of one pair color are impossible in a 2x2 product
        # block (pair counts are products of axis counts, never 3)
        code, _, err = run_cli(
            capsys, "decode", "--codebook", str(book), "--colors", "1,1,1,13"
        )
        assert code == 1 and "not a code symbol" in err


@pytest.mark.parametrize(
    "text, argv, what",
    [
        ("key,x0,y0\n1048577,0,0\n", ["decode", "--colors", "1", "--codebook"], "multiset"),
        ("# k=1048577\n1\n", ["codebook", "--m", "1", "--n", "1", "--grid"], "count vector"),
    ],
)
def test_codebook_beyond_the_length_limit_exit_1(text, argv, what, tmp_path, capsys):
    # these ended in a MemoryError traceback at 2000000000 and 1000000000
    path = tmp_path / "input.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: each {what} in the codebook file has 1048577 symbols, "
        "more than the limit of 1048576\n"
    )


@pytest.mark.parametrize(
    "text", ["key,x0,y0\n0-0,4,4\n", "# m=-1 n=-1 k=2\n1-0,0,0\n"]
)
def test_decode_refuses_codebook_with_blocks_below_one_side(text, tmp_path, capsys):
    book = tmp_path / "book.csv"
    book.write_text(text)
    for colors in ("", "1"):
        code, out, err = run_cli(capsys, "decode", "--codebook", str(book), "--colors", colors)
        assert (code, out) == (1, "")
        assert err == "error: block dimensions must be at least 1\n"


@pytest.mark.parametrize("argv", [
    ["codebook", "--grid", "big.csv", "--m", "1", "--n", "1"],
    ["bounds", "--m", "5", "--k-range", "6..10"],  # fails at its last row, k = 10
])
def test_failing_command_creates_no_output_file(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("big.csv").write_text("# k=1048577\n1\n")
    code, out, err = run_cli(capsys, *argv, "-o", "out.csv")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not Path("out.csv").exists()


# `decode` on the 2x2 codebook of the 7x7 product of "1 1 2 2 3 3 1" (9
# colors): exit code, stdout and stderr, recorded before decoding went
# through the sorted colors.  Out-of-palette colors are named in input order.
DECODE_OUTCOMES = {
    "": (1, "", "error: multiset has 0 elements; blocks have 4\n"),
    "1": (1, "", "error: multiset has 1 elements; blocks have 4\n"),
    "0,1,1,1": (1, "", "error: color 0 outside palette [1..9]\n"),
    "10,2,4,5": (1, "", "error: color 10 outside palette [1..9]\n"),
    "10,0,1,1": (1, "", "error: color 10 outside palette [1..9]\n"),
    "1,1,1,1": (0, "0 0\n", ""),
    "5,2,4,1": (0, "1 1\n", ""),
    "1,1,1,2": (1, "", "error: multiset 3-1-0-0-0-0-0-0-0 is not a code symbol\n"),
}


@pytest.fixture(scope="module")
def nine_color_book(tmp_path_factory):
    work = tmp_path_factory.mktemp("book")
    axis, grid, book = (str(work / name) for name in ("axis.txt", "grid.csv", "book.csv"))
    for argv in (
        ["construct", "--m", "2", "--k", "3", "--linear", "-o", axis],
        ["grid", "--s", axis, "--t", axis, "-o", grid],
        ["codebook", "--grid", grid, "--m", "2", "--n", "2", "-o", book],
    ):
        assert dispatch(argv) == 0
    return book


@pytest.mark.parametrize("colors", list(DECODE_OUTCOMES))
def test_decode_outcomes_unchanged(colors, nine_color_book, capsys):
    outcome = run_cli(capsys, "decode", "--codebook", nine_color_book, "--colors", colors)
    assert outcome == DECODE_OUTCOMES[colors]


class TestSimulateCli:
    def test_report_and_records(self, tmp_path, capsys):
        records = tmp_path / "records.ndjson"
        code, out, _ = run_cli(
            capsys, "simulate", "--cells", "6", "--m", "2", "--slots", "40",
            "--bits", "8", "--seed", "5", "--records", str(records),
        )
        assert code == 0
        report = json.loads(out)
        assert report["accuracy"] == 1.0
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 40
        first = json.loads(lines[0])
        assert first["decoded"] == first["cell"]

    def test_records_stream_in_flat_memory(self, tmp_path, capsys):
        # holding every record until the end peaked at 46.6 MB
        path = tmp_path / "records.ndjson"
        argv = [
            "simulate", "--cells", "50", "--m", "2", "--slots", "50000",
            "--bits", "8", "--seed", "1", "--records", str(path),
        ]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert peak < 8 * 2**20
        report, records = mcgc.run(mcgc.SimConfig(50, 2, 50000, 8, seed=1))
        assert out == report.to_json() + "\n"
        assert path.read_text() == "".join(r.to_json() + "\n" for r in records)

    def test_failed_run_keeps_the_records_before_it(self, tmp_path, capsys, monkeypatch):
        calls = []

        def decode_wrong_at_slot_3(codebook, colors):
            calls.append(colors)
            decoded = mcgc.decode_colors(codebook, colors)
            return (-1, -1) if len(calls) == 4 else decoded

        monkeypatch.setattr(sim, "decode_colors", decode_wrong_at_slot_3)
        path = tmp_path / "records.ndjson"
        code, out, err = run_cli(
            capsys, "simulate", "--cells", "6", "--m", "2", "--slots", "10",
            "--bits", "8", "--seed", "5", "--records", str(path),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: slot 3: decoded (-1, -1) but object is at ")
        monkeypatch.undo()
        records = mcgc.run(mcgc.SimConfig(6, 2, 10, 8, seed=5))[1]
        assert path.read_text() == "".join(r.to_json() + "\n" for r in records[:3])

    def test_missing_seed_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--cells", "6", "--m", "2", "--slots", "5",
            "--bits", "8",
        )
        assert code == 1 and "--seed" in err

    def test_field_beyond_palette_budget_exit_1(self, capsys):
        # a 2051-symbol window-2 axis needs more than 64 colors
        code, out, err = run_cli(
            capsys, "simulate", "--cells", "2050", "--m", "2", "--slots", "1",
            "--bits", "8", "--seed", "0",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "within 64 colors" in err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("cells=6\nm=2\nslots=10\nbits=8\nseed=1\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["accuracy"] == 1.0

    def test_config_file_repeated_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("cells=3\nm=2\nslots=10\nbits=8\nseed=1\ncells=50\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == "error: config key 'cells' given twice\n"

    @pytest.mark.parametrize("traj", ["uniform", "walk", "walk:0.3"])
    def test_config_file_matches_flags(self, tmp_path, capsys, traj):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"cells=7\nm=3\nslots=25\nbits=4\nseed=11\ntraj={traj}\n")
        from_file = run_cli(capsys, "simulate", "--config", str(cfg), "--records", "-")
        from_flags = run_cli(
            capsys, "simulate", "--cells", "7", "--m", "3", "--slots", "25",
            "--bits", "4", "--seed", "11", "--traj", traj, "--records", "-",
        )
        assert from_file == from_flags
        assert from_file[0] == 0 and from_file[1].count('"slot":') == 25

    def test_missing_values_named_as_given(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", "--cells", "6", "--slots", "5", "--bits", "8")
        assert (code, err) == (1, "error: missing flags: --m --seed\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("cells=6\nslots=10\nbits=8\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, err) == (1, "error: config missing keys: m, seed\n")
        cfg.write_text("cells=6\nm=2\nslots=x\nbits=8\nseed=q\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, err) == (
            1, "error: bad config value: invalid literal for int() with base 10: 'x'\n"
        )


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run_cli(capsys, "construct", "--m", "9", "--k", "3")[0] == 2
        assert run_cli(capsys, "no-such-command")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.startswith("mcgc ")

    def test_domain_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--m", "2", "--k", "2")
        assert code == 1
        assert "error:" in err

    def test_bad_block_shape_is_1(self, capsys):
        code, out, err = run_cli(capsys, "gain", "--sizes", "10", "--blocks", "2xq")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "2xq" in err

    def test_unwritable_output_is_1(self, tmp_path, capsys):
        target = str(tmp_path / "no-such-dir" / "x.txt")
        code, out, err = run_cli(capsys, "construct", "--m", "2", "--k", "4", "-o", target)
        assert code == 1 and out == ""
        assert err.startswith("error:")


# Inputs of the error-path cases, by file name.
ERROR_FILES = {
    "empty.txt": "# k=3 mode=cyclic\n",
    "word3.txt": "# k=3 mode=cyclic\n1 2 3\n",
    "grid.csv": "x,3\n",
    "row.csv": "1-1,0\n",
    "shapes.csv": "key,x0,y0\n1-0,0,0\n0-2,1,0\n",
    "sim.cfg": "cells 3\n",
}
SIMULATE = "simulate --cells 6 --m 2 --slots 5 --bits 8 --seed 0 --traj"


class TestErrorPaths:
    @pytest.mark.parametrize("command, want", [
        ("verify --m 2 missing.txt", "error: cannot read missing.txt: "),
        ("verify --m 2 empty.txt", "error: no sequence found in empty.txt\n"),
        ("bounds --m 2 --k-range 5..x", "error: bad range '5..x'\n"),
        ("bounds --m 2 --k-range 9..5", "error: empty range '9..5'\n"),
        ("kmin --m 2 --sizes 1,x", "error: bad integer list '1,x'\n"),
        ("cut --t 9 --m 2 word3.txt", "error: cut position 9 out of range 0..2\n"),
        ("gain --sizes 10 --blocks ,", "error: no block shapes given\n"),
        ("codebook --grid grid.csv --m 1 --n 1", "error: bad grid row 'x,3'\n"),
        ("decode --codebook row.csv --colors 1", "error: bad codebook row '1-1,0'\n"),
        (
            "decode --codebook shapes.csv --colors 1",
            "error: codebook rows disagree on palette or block size\n",
        ),
        ("simulate --config sim.cfg", "error: bad config line 'cells 3'\n"),
        (f"{SIMULATE} walk:1.5", "error: p_move must lie in [0, 1]\n"),
        (f"{SIMULATE} foo", "error: unknown trajectory 'foo'\n"),
        # the trajectory is read before the config's other checks
        (
            "simulate --cells 1 --m 2 --slots 5 --bits 8 --seed 0 --traj foo",
            "error: unknown trajectory 'foo'\n",
        ),
    ])
    def test_exact_error_line(self, command, want, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in ERROR_FILES.items():
            (tmp_path / name).write_text(text)
        code, out, err = run_cli(capsys, *command.split())
        assert (code, out) == (1, "")
        if want.endswith("\n"):
            assert err == want
        else:  # the rest is the operating system's wording
            assert err.startswith(want) and err.count("\n") == 1

    def test_out_of_memory_is_one_line_and_exit_1(self, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setattr(cli, "deploy", exhausted)
        code, out, err = run_cli(capsys, *f"{SIMULATE} uniform".split())
        assert (code, out, err) == (1, "", "error: out of memory\n")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    @pytest.mark.parametrize("command", [
        "search-max --m 20000 --k 1000000 --cap 1",
        f"bounds --m 6 --k-range {'9' * 801}",
        f"bounds --m 6 --k-range {'9' * 801} --format json",
    ], ids=["search-max", "bounds-csv", "bounds-json"])
    def test_number_too_long_to_print_is_one_line_and_exit_1(self, command, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        try:
            code, out, err = run_cli(capsys, *command.split())
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sequence_from_stdin(self, tmp_path, capsys, monkeypatch):
        path = write_probe(tmp_path)
        from_file = run_cli(capsys, "cut", "--t", "14", "--m", "2", path)
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(path).read_text()))
        assert run_cli(capsys, "cut", "--t", "14", "--m", "2", "-") == from_file
        assert from_file[0] == 0

    def test_verify_linear_overrides_the_header(self, tmp_path, capsys):
        # the probe collides only across the wrap-around
        path = write_probe(tmp_path)
        code, out, _ = run_cli(capsys, "verify", "--m", "3", "--linear", path)
        assert (code, out) == (0, "ok, 13 windows distinct\n")
        code, out, _ = run_cli(capsys, "verify", "--m", "3", path)
        assert (code, out) == (1, "collision: windows 13 and 14 carry the same multiset\n")

    def test_bounds_csv_of_a_comma_list(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--m", "3", "--k-range", "6,4,9,7")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c771c6e3867915248830d71417d950752c73cf6ecc5b3aad6ef2bea0981b9a4d"
        )


class TestDeterminism:
    def test_repeated_commands_are_byte_identical(self, tmp_path, capsys):
        cases = [
            ("construct", "--m", "3", "--k", "9", "--cyclic"),
            ("search-max", "--m", "2", "--k", "4", "--cap", "60"),
            ("compose", "--m", "5"),
            ("gain", "--sizes", "50,200", "--blocks", "3"),
            (
                "simulate", "--cells", "6", "--m", "2", "--slots", "30",
                "--bits", "8", "--seed", "123",
            ),
        ]
        for argv in cases:
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second and first[0] == 0


GOLDEN_WORDS = (
    "1 2 2 3 3 1\n"
    "# k=5 mode=cyclic\n"
    "1 1 2 2 3 3 4 4 5 5 1 3 5 2 4\n"
    "# mode=linear\n"
    "1 2 3 1 2 3\n"
)

# sha256 of stdout, recorded before the header, payload and length-formula
# code was consolidated; any refactor must leave every byte in place.
GOLDEN_STDOUT = {
    "bounds --m 2 --k-range 1..12 --format json":
        "bd271117dfd567d40b03dee08e1b3191d213d802a1d2de2e55642bc8194d6011",
    "bounds --m 3 --k-range 3..12 --format json":
        "052f017b245b566019b34aee824811fe0b905ae0fcf9a823d8e3ba4d272a3354",
    "bounds --m 4 --k-range 5..9 --format json":
        "62268d2d316fc9865223fedbf85f4dc3715eabf5fbedd8f9e34bde204607a1e6",
    "bounds --m 6 --k-range 11..16 --format json":
        "d717e50e343a23f5cbf2c199c61f242af094d34c895c3ab1af726d3705377ff0",
    "kmin --m 1,2,3,4 --sizes 10,50,200,1000 --format json":
        "2c7de29207aa19aed9459133a71c04a6a38434ea015ff30c03dc8d499bc477c2",
    "gain --sizes 10,50,200 --blocks 1,2,3,4x3 --format json":
        "19da1640e8835ac8c5fb234149cc6ae49c3a50e2d598075b413235f458da7db2",
    "verify --m 2 --format json WORDS":
        "a2b63b394840de9436861387204f0590bcefbf90b207b4933321f3ccf90a3e49",
    "verify --m 3 --cyclic --format json WORDS":
        "2e46a4a9bb7762c18ce26d4a426cec72f2bab3523af615fb722f791003a8cef4",
    "compose --m 7":
        "44ceb9194687b8e2ebf2af2b994309972b215dd927dfd82942bae5029058cbf7",
    "simulate --cells 6 --m 2 --slots 25 --bits 8 --seed 11 --records -":
        "6a85e99660a4251cb9046c65e31a87a44b7b91d1cf92223de2aa7af9419f459f",
    "simulate --cells 5 --m 3 --slots 10 --bits 3 --seed 2 --traj walk:0.7 --records -":
        "be623fc710d69670bae51afcb2ea08cf7ff9ae6de621a9d6f343ddd201093fd1",
    "simulate --cells 4 --m 1 --slots 10 --bits 4 --seed 3 --records -":
        "6643cdee5967fcc64526b1b2a358b10e1e348d0ac2601c1085253c9ea5cb52a9",
    "simulate --cells 4 --m 4 --slots 5 --bits 8 --seed 4 --records -":
        "23bb01523d5486f7c1d6e025467aa55e1688ff17abdc38abf6fc109e3378e0e3",
    "simulate --cells 1 --m 1 --slots 3 --bits 1 --seed 0 --records -":
        "f80dc14e97e3b80dad6452ee1b0a3c17f0d1850cef33fbc41faf76d694439a47",
    "simulate --cells 3 --m 2 --slots 4 --bits 2 --seed 9 --traj walk --records -":
        "cee80e3ab21f75d8f076e359da308f7da2cd79a215b5dab0e48aede3a2a1a034",
    # recorded before the palette rule, the count-vector key and the
    # first-repeat scan were each given one owner; help as laid out at 80
    # columns by the argparse of Python 3.10 to 3.12
    "construct --m 3 --k 9 --cyclic":
        "3d276299b193770a073832cd67ce57760688e1bda2bbc30bd2392944991fb0ed",
    "construct --m 2 --k 4 --linear --cut 7":
        "4658a55e363799794d59f3effe47dd9fcc19b7bcc4ed42332a99abef2cc8a839",
    "construct --m 1 --k 5 --linear":
        "db4633fc0dbd3d1e7ee49e07a7043d319f1b13bc11aed012c18d5a9e27ac6e94",
    "cut --t 14 --m 2 PROBE":
        "4460aaa59245685670abc7cbd2dc5155c3794d445b40a4b1cac62ae189715499",
    "cut --t 3 --m 3 BASE3":
        "c23c4daca98d19b78522e5417cfdf26a0a5d33cafb30d4d1c277e8dafbdb9afc",
    "search-max --m 2 --k 4 --cap 60":
        "434b8b110c0e8afe9b6d966f0c36606f19048994b0bfb28fd044d80df1d90f68",
    "search-max --m 3 --k 3 --cap 12":
        "daf73b38f3bc28df13aa5b87fbf1247a14e743f60cc030de8dfa7731b9998b36",
    "cross --s CROSS_S --t CROSS_T --m1 2 --m2 3":
        "effc32dda35b2ce37a9c53621fd95e76c705a102752cac3888fecfb15f1c4ac8",
    "cross --s BASE3 --t WORD2 --m1 3 --m2 2":
        "3148d2386cdc79e20a25071b76edfd894514fd37d933f6f79f12a3f9739671c1",
    "grid --s AXIS --t AXIS":
        "108cd811a94ef5bd249a47f7801d7fec270ae8024326e102b2f6e1a618833d93",
    "grid --s PROBE --t WORD2":
        "f7bf00e55083c110d30e29f3ad14b72a2f52607bbd83734ded9e7f13c4658785",
    "codebook --grid GRID --m 2 --n 2":
        "fe7df69e7c1c0026fc710f2b91e0a1eee00e253110d126361d3f2dd8fa419cf7",
    "codebook --grid GRID --m 3 --n 2":
        "cb1d9a53b6d3d6f4ff3832bf21da68931bf1e1bde758a990742afd80b76b79e3",
    "codebook --grid CGRID --m 2 --n 2":
        "0dc5b6ef5ecfd38a5a5cb2ea06ab47e123e90ed8c765e06c9087e9ccab100aed",
    "--help":
        "c4aff1a6f5be6e1e54de955f4858a1e01e6d131529e383a6b395d49191cba5f6",
    "construct --help":
        "455d8e2d515a7950735406053aa7e2dac7500fc93a1757e55f93e8cb1618c909",
    "verify --help":
        "7bea3b7444d302499ec4a8d9a99cec1cb813684dead3e883517ccd4b81504480",
    "cut --help":
        "33628b15efd1c05b0e9fd9206f332fed602ca74cfccc39ad434633a059a8a5f5",
    "search-max --help":
        "bb76598dcd22800f33961ed98df5ed2b9b39f9d45ff76a6776ce6bc783031600",
    "cross --help":
        "6d3a8f37636ac7c4e8d732e4f09a4d533da538fc8812137b62dc9ba70a66896b",
    "compose --help":
        "ac7ed07cda35a763b48a5d469baf8409dfdeb65ae9e601ba810c0a2e776336fc",
    "bounds --help":
        "ebfd95c70b0f31173e98cabe6ea8bc769cc323c4605542b41b914dc6d99ca009",
    "kmin --help":
        "a2c60000a21f4be8d3f4306e4ada6f68ab1625444ac928491d2d550bfd51cf33",
    "gain --help":
        "5e58af3fafbae0afd028b6f28a40944ccbf3ac7a4a499ee9e6408ff29b46bd9e",
    "grid --help":
        "01ae776447fc569eae59b47e6f359b6e7268fe5e97f03cf7c02868f6e6982bd9",
    "codebook --help":
        "f989a982f1467f522e512baf22c91c39fddb1c89354225d1ff8b58929ca1fbff",
    "decode --help":
        "6dfaebceb086a37f8ae75c0615d75fd4352fa1b523a1db85a1c70796cae1f003",
    "simulate --help":
        "773c40f27e6ae28e49e936dedda97b07259535615c71883d3c69683dcc9c0b50",
}

# Input files of the golden commands, named by their upper-case tokens; GRID
# and CGRID are made by the grid command from AXIS and from PROBE x WORD2.
GOLDEN_FILES = {
    "WORDS": GOLDEN_WORDS,
    "PROBE": "# k=5 mode=cyclic\n" + " ".join(PROBE_15) + "\n",
    "BASE3": "# k=3 mode=cyclic\n" + " ".join(BASE_K3) + "\n",
    "WORD2": "# k=3 mode=cyclic\n1 1 2 2 3 3\n",
    "AXIS": "# k=4 mode=linear\n1 1 3 3 2 2 4 4 1\n",
    "CROSS_S": "# k=5 mode=cyclic\n" + " ".join(map(str, CROSS_S)) + "\n",
    "CROSS_T": "# k=10 mode=cyclic\n" + " ".join(map(str, CROSS_T)) + "\n",
}


@pytest.fixture
def golden_files(tmp_path):
    paths = {name: str(tmp_path / name) for name in (*GOLDEN_FILES, "GRID", "CGRID")}
    for name, text in GOLDEN_FILES.items():
        Path(paths[name]).write_text(text)
    for name, s, t in (("GRID", "AXIS", "AXIS"), ("CGRID", "PROBE", "WORD2")):
        assert dispatch(["grid", "--s", paths[s], "--t", paths[t], "-o", paths[name]]) == 0
    return paths


HELP_LAYOUT = pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse lays out help differently from 3.13"
)


class TestGoldenBytes:
    @pytest.mark.parametrize("command", [
        pytest.param(command, marks=HELP_LAYOUT) if command.endswith("--help") else command
        for command in sorted(GOLDEN_STDOUT)
    ])
    def test_stdout_bytes_unchanged(self, command, golden_files, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        argv = [golden_files.get(tok, tok) for tok in command.split()]
        code, out, err = run_cli(capsys, *argv)
        assert err == ""
        assert code == (1 if "WORDS" in command else 0)  # WORDS holds a collision
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]
