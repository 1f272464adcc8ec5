"""Checks that show only at scale: exhaustive searches, million-symbol words,
801x801 grids, a million simulated slots, and inputs too large to hold.
Run ``python -m pytest scale -q`` from the repository root (about 2 minutes).
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# A child inherits its parent's resident high-water mark through exec, so
# this small launcher, not pytest, starts each child and reads its max RSS.
LAUNCHER = """
import json, resource, subprocess, sys
timeout, limit_kb, *argv = json.loads(sys.argv[1])
if limit_kb:
    resource.setrlimit(resource.RLIMIT_AS, (limit_kb * 1024,) * 2)
child = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([child.returncode, child.stdout, child.stderr, rss_mb]))
"""
CLOSED_FORM = """
from mcgc import Multigraph, build_m2, eulerian_circuit
from mcgc.construct import canonical_one_factor, repeat_first_occurrences
for k in [*range(3, 402), 998, 999, 1446, 1447]:
    if k % 2:
        word = tuple(eulerian_circuit(Multigraph.complete(k, loops=True), 1))
    else:
        g = Multigraph.complete(k, skip_edges=canonical_one_factor(k))
        word = repeat_first_occurrences(eulerian_circuit(g, 1))
    assert build_m2(k).colors == word, k
"""
BUILD_M3 = """
from mcgc.construct import build_m3
from mcgc.errors import UnsupportedParameterError
try:
    build_m3(3006)
except UnsupportedParameterError as exc:
    print(exc)
else:
    raise SystemExit("expected UnsupportedParameterError")
"""
DISTINCT_COLORS = """
from mcgc.sequences import ColorSequence, check_distinguishable
for start in range(1, 3 * 10**6, 10**6):
    word = ColorSequence(tuple(range(start, start + 10**6)), 3 * 10**6, "cyclic")
    assert check_distinguishable(word, 2).ok
"""
CODEBOOK_801 = """
from mcgc.construct import build_m2
from mcgc.grid2d import build_codebook, product_grid
from mcgc.sequences import t_cut
axis = t_cut(build_m2(40), 799, 2)
print(build_codebook(product_grid(axis, axis), 2, 2).size)
"""

# window-1 axes of 31623 colors each: a product palette of about 10**9
# colors, whose count vector alone would take 8 GB
BILLION_COLORS = """
from mcgc.grid2d import decode, product_codebook
from mcgc.sequences import ColorSequence, Multiset
axis = ColorSequence(tuple(range(1, 31624)), 31623)
cb = product_codebook(axis, axis, 1, 1)
print(decode(cb, Multiset.of([4 * 31623 + 7], cb.palette_size)))
"""


def run(*args, timeout, limit_kb=0):
    """Exit code, stdout, stderr and max RSS in MB of ``python -m mcgc.cli
    *args``, or of ``python -c code`` when args are ("-c", code), run under an
    address-space limit of limit_kb if given; a timeout kills it and fails."""
    args = [str(arg) for arg in args]
    argv = [sys.executable, *(args if args[0] == "-c" else ["-m", "mcgc.cli", *args])]
    launcher = subprocess.run(
        [sys.executable, "-c", LAUNCHER, json.dumps([timeout, limit_kb, *argv])],
        capture_output=True, text=True, timeout=timeout + 60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert launcher.returncode == 0, launcher.stderr
    return json.loads(launcher.stdout)


def ok(*args, **limits):
    """stdout and max RSS of a command that must exit 0."""
    code, out, err, rss_mb = run(*args, **limits)
    assert code == 0, err
    return out, rss_mb


def fails(*args, **limits):
    """A command that must exit 1 with an error line, not a traceback."""
    code, _, err, _ = run(*args, **limits)
    assert code == 1 and re.search("^error: ", err, re.M), err


def made(path, *args):
    ok(*args, "-o", path, timeout=30)
    return path


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_launcher_reads_the_child_alone_and_bounds_it():
    ballast = bytes(range(256)) * (800 << 10)  # 200 MB resident in pytest
    assert ok("-c", "pass", timeout=10)[1] < 30
    del ballast
    code, _, err, _ = run("-c", "bytearray(10**9)", timeout=10, limit_kb=400000)
    assert code == 1 and err.endswith("MemoryError\n"), err
    with pytest.raises(AssertionError, match="TimeoutExpired"):
        run("-c", "import time; time.sleep(30)", timeout=1)


@pytest.mark.parametrize(("m", "k", "cap", "timeout", "limit_kb", "result", "digest"), [
    # deeper than the recursion limit
    (1, 2000, 2000, 30, 0, "max=2000 proven cap=2000 ceiling=2000", None),
    (2, 45, 1035, 30, 0, "max=1035 proven cap=1035 ceiling=1035", None),
    # each ran past 60 s without the end-window cut
    (2, 8, 32, 10, 0, "max=32 proven cap=32 ceiling=32",
     "69d1f2a829eb71e6cc20374f5aa05f928cb936902512c7bc5f4644e7143377e9"),
    (3, 6, 56, 10, 0, "max=54 proven cap=56 ceiling=54",
     "6d04daf675dadac0d2c5ff38d9fa3ca5cd32ff199e3fcd658ba25f60bc6a163f"),
    # about 100 s without the rotation cut
    (4, 4, 33, 60, 0, "max=32 cap-limited cap=33 ceiling=35",
     "f7e99acfb453c29f377f558b3ffbc080b922e7286acd0f0b0f29acd8ee4649d0"),
    # a huge prime window answers at once
    (10**18 + 3, 1, 1, 10, 1500000, "max=1 proven cap=1 ceiling=1", None),
])
def test_search_max(m, k, cap, timeout, limit_kb, result, digest):
    out, _ = ok("search-max", "--m", m, "--k", k, "--cap", cap, timeout=timeout, limit_kb=limit_kb)
    assert out.splitlines()[1] == f"# search m={m} {result}"
    assert digest in (None, sha256(out))


def test_large_compositions_self_check_and_too_much_build_work_is_refused():
    for m, colors in (2000, 4000), (3000, 6000):
        out, _ = ok("compose", "--m", m, "--max-colors", colors, timeout=10)
        assert re.fullmatch("[0-9]+( [0-9]+)+", out.splitlines()[-1])
    # a 300,000-symbol pick whose 33,333 stages hold 5e9 symbols together,
    # refused before the walk that took 4.9 s
    fails("compose", "--m", 100000, "--max-colors", 400000, timeout=2)
    # refused before a list of 10**9 factors is asked for
    fails("compose", "--m", 3000000000, timeout=2, limit_kb=1500000)
    # a budget far past any palette the pick needs is never walked
    out, _ = ok("compose", "--m", 5, "--max-colors", "9" * 20, timeout=10, limit_kb=1500000)
    assert out == ok("compose", "--m", 5, timeout=10)[0]


@pytest.mark.parametrize("argv", [
    "decode --codebook {book} --colors 1",
    "codebook --grid {grid} --m 1 --n 1",
    "construct --m 3 --k 3006",
    "kmin --m 1 --sizes 10000001",
    "search-max --m 20000 --k 1000000 --cap 1",
    "bounds --m 6 --k-range {big}",  # its window count has over 4300 digits
    "bounds --m 6 --k-range {big} --format json",
    "bounds --m 10000000 --k-range 10000000",  # no formula: refused before its ceiling
    "bounds --m 5000000 --k-range 10000000",  # decided without C(10**7 - 1, 5 * 10**6 - 1)
    "bounds --m 1000000 --k-range 2000001",  # covered, refused before C(2000001, 10**6)
    # numbers too large to index
    "compose --m 99999999999999999999",
    "bounds --m 2 --k-range 1..99999999999999999999",
    "simulate --cells 99999999999999999999 --m 1 --slots 1 --bits 1 --seed 0",
])
def test_over_long_inputs_end_in_an_error_line(argv, tmp_path):
    book, grid = tmp_path / "book.csv", tmp_path / "grid.csv"
    book.write_text("key,x0,y0\n2000000000,0,0\n")
    grid.write_text("# k=1000000000\n1\n")
    argv = argv.format(book=book, grid=grid, big="9" * 801).split()
    fails(*argv, timeout=10, limit_kb=1500000)


def test_tables_finish():
    out, _ = ok("kmin", "--m", 100000, "--sizes", 100000, timeout=2)
    assert out.splitlines()[-1] == "100000,100000,100001"
    # 270,000 rows from 900 (size, side) palette searches; about 11 s when
    # every row searched both of its palettes again
    sizes = ",".join(map(str, range(50, 11114, 37)))
    out, _ = ok("gain", "--sizes", sizes, "--blocks", "2,3,4x3", timeout=6)
    assert sha256(out) == "7e5e42670d502cc6284d2833da0463e385e975dbb29848394f4531d537477121"


def test_the_closed_form_window_2_word_is_the_greedy_eulerian_circuit():
    ok("-c", CLOSED_FORM, timeout=120)
    # the 1,047,628-symbol word, as the graph walk wrote it
    out, _ = ok("construct", "--m", 2, "--k", 1447, timeout=5)
    assert sha256(out) == "faed48cb9f999e0a4341a5144b2025a00fcad5d2dbee88f59a0706f482e4afe4"


def test_memory_limits_end_in_one_line(tmp_path):
    ok("-c", BUILD_M3, timeout=10, limit_kb=1500000)
    word = made(tmp_path / "word.txt", "construct", "--m", 2, "--k", 1447)
    code, out, _, _ = run("verify", "--m", 200, word, timeout=20, limit_kb=1500000)
    assert (code, out) == (1, "collision: windows 4339 and 4340 carry the same multiset\n")
    argv = "simulate --cells 10000 --m 1 --slots 10 --bits 8 --seed 0".split()
    code, _, err, _ = run(*argv, timeout=20, limit_kb=400000)
    assert (code, err) == (1, "error: out of memory\n")
    axis = made(tmp_path / "axis.txt", "construct", "--m", 2, "--k", 1447, "--linear")
    grid = ("grid", "--s", axis, "--t", axis, "-o", tmp_path / "grid.csv")
    fails(*grid, timeout=10, limit_kb=1500000)  # past the cell limit


def test_long_checks_keep_the_weight_memo_bounded(tmp_path):
    # the 1,047,628-symbol window-2 word, summed by one add per window: 0.6 s
    # and 178 MB max RSS
    word = made(tmp_path / "word.txt", "construct", "--m", 2, "--k", 1447)
    out, rss_mb = ok("verify", "--m", 2, word, timeout=10)
    assert out == "ok, 1047628 windows distinct\n" and rss_mb < 220
    # three words of 10**6 distinct colors each, checked in one process:
    # 236 MB max RSS with the weight memo at its 4096 colors, 604 MB with a
    # memo that keeps every weight
    assert ok("-c", DISTINCT_COLORS, timeout=30)[1] < 300


def test_a_decode_reads_its_block_not_the_palette():
    out, rss_mb = ok("-c", BILLION_COLORS, timeout=10, limit_kb=600000)
    assert out == "(4, 6)\n" and rss_mb < 100


def test_simulations_decode_large_fields_and_stream_a_million_slots():
    ok(*"simulate --cells 1000 --m 2 --slots 1000 --bits 20 --seed 0".split(), timeout=60)
    argv = "simulate --cells 50 --m 2 --slots 1000000 --bits 8 --seed 0 --records /dev/null"
    assert ok(*argv.split(), timeout=120)[1] < 60


def test_cells_dropped_from_the_slot_loop_are_decoded_again(tmp_path):
    # 40,000 cells, past the 2**14 whose decode the slot loop keeps, so
    # dropped cells are decoded again; the digest is that of the records a
    # decode on every slot writes.  About 31 MB max RSS.
    records = tmp_path / "records.ndjson"
    argv = "simulate --cells 200 --m 2 --slots 300000 --bits 8 --seed 0 --records".split()
    assert ok(*argv, records, timeout=60)[1] < 40
    digest = hashlib.sha256(records.read_bytes()).hexdigest()
    assert digest == "277f634abd5a5f114405a85ad83303046d05e518a00810561dd56de1fd967f93"


def test_grid_and_codebook_files_stream_in_flat_memory(tmp_path):
    # 3004-symbol axes, and a 201x201 grid of 400 colors: joined whole,
    # these files peaked at 149 MB and 118.5 MB
    ax77 = made(tmp_path / "ax77.txt", "construct", "--m", 2, "--k", 77, "--linear")
    ax20 = made(tmp_path / "ax20.txt", "construct", "--m", 2, "--k", 20, "--linear")
    g20 = made(tmp_path / "g20.csv", "grid", "--s", ax20, "--t", ax20)
    assert ok("grid", "--s", ax77, "--t", ax77, "-o", "/dev/null", timeout=120)[1] < 60
    assert ok("codebook", "--grid", g20, "--m", 2, "--n", 2, "-o", "/dev/null", timeout=120)[1] < 60
    # an 801x801 product grid; its codebook file is 640,000 rows of 1600
    # counts each, about 2 GB
    ok("-c", CODEBOOK_801, timeout=60)
    ax40 = made(tmp_path / "ax40.txt", "construct", "--m", 2, "--k", 40, "--linear")
    g801 = made(tmp_path / "g801.csv", "grid", "--s", ax40, "--t", ax40)
    ok("codebook", "--grid", g801, "--m", 2, "--n", 2, "-o", "/dev/null", timeout=120)
