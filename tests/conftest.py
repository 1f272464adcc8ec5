import dataclasses
import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mcgc
from mcgc import construct, crossing
from mcgc.errors import PlanError
from mcgc.grid2d import block_starts
from mcgc.sequences import ColorSequence


def naive_distinguishable(seq, m):
    """Quadratic oracle: compare sorted window contents pairwise.

    Independent of the library's window keys and collision scan.  Cyclic
    windows start anywhere and wrap, more than once when the word is shorter
    than m.
    """
    n = len(seq)
    windows = []
    for t in range(n) if seq.mode == "cyclic" else range(n - m + 1):
        if seq.mode == "cyclic":
            win = sorted(seq.colors[(t + i) % n] for i in range(m))
        else:
            win = sorted(seq.colors[t : t + m])
        windows.append(win)
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            if windows[i] == windows[j]:
                return False, (i, j)
    return True, None


def naive_max_cyclic(m, k, cap):
    """Exhaustive oracle for brute_force_max_cyclic: (length, word) of the
    first canonical word, longest length up to cap first, whose cyclic
    windows naive_distinguishable accepts.  Canonical: first symbol 1, and
    each symbol at most one above the largest before it."""
    for n in range(cap, 0, -1):
        for tail in itertools.product(range(1, k + 1), repeat=n - 1):
            word = (1,) + tail
            canonical = all(c <= max(word[:i]) + 1 for i, c in enumerate(word) if i)
            if canonical and naive_distinguishable(ColorSequence(word, k, "cyclic"), m)[0]:
                return n, word


def naive_grid_distinguishable(g, m, n):
    """Quadratic oracle for grids: compare sorted block contents pairwise.

    Returns (ok, pair) with pair the lexicographically smallest pair of
    colliding tag points.
    """
    starts = block_starts(g, m, n)
    blocks = [
        sorted(
            g.cells[(x0 + i) % g.M][(y0 + j) % g.N]
            for i in range(m)
            for j in range(n)
        )
        for x0, y0 in starts
    ]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks[i] == blocks[j]:
                return False, (starts[i], starts[j])
    return True, None


def naive_compose(m, max_colors, min_length):
    """Exhaustive oracle for compose_for_m's pick: every tuple of the
    construct.palettes menus, folded left with plan_cross, sorted by (total,
    final length, palettes).  Returns (palettes, plans) of the first tuple
    within max_colors whose every stage has a plan and whose fold reaches
    min_length, or None."""
    parts = crossing.split_window(m)
    menus = [construct.palettes(part, max_colors) for part in parts]
    feasible = []
    for ks in itertools.product(*menus):
        if sum(ks) > max_colors:
            continue
        length, window, plans = construct.cyclic_length(parts[0], ks[0]), parts[0], []
        try:
            for part, k in zip(parts[1:], ks[1:]):
                plans.append(
                    crossing.plan_cross(length, window, construct.cyclic_length(part, k), part)
                )
                length, window = plans[-1].output_length, window + part
        except PlanError:
            continue
        if length >= min_length:
            feasible.append((sum(ks), length, ks, tuple(plans)))
    if not feasible:
        return None
    return min(feasible, key=lambda c: c[:3])[2:]


def run_child(*args, timeout, **env):
    """``python -m mcgc.cli *args``, or ``python -c code`` when args are
    ("-c", code), in a child that imports mcgc from this tree; extra
    environment variables come as keywords."""
    argv = args if args[0] == "-c" else ("-m", "mcgc.cli", *args)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(Path(mcgc.__file__).parents[1]), **env},
    )


def patched_placement(config, patch, cell=(0, 0)):
    """config's deployment over a dict codebook that decodes wrongly.

    patch "non_injective" sends cell's key to the tag point one row below;
    "unknown" drops cell's key; "small_palette" keeps the keys over the first
    half of the palette (at least one color)."""
    placement = mcgc.deploy(config)
    m, k = config.block, placement.colors
    table = dict(placement.codebook.entries.table)
    key = next(key for key, tag in table.items() if tag == cell)
    if patch == "non_injective":
        table[key] = (cell[0] + 1, cell[1])
    elif patch == "unknown":
        del table[key]
    elif patch == "small_palette":
        k = max(1, k // 2)
        table = {key: tag for key, tag in table.items() if key[-1] <= k}
    entries = {mcgc.Multiset.of(key, k).counts: tag for key, tag in table.items()}
    return dataclasses.replace(placement, codebook=mcgc.Codebook(m, m, k, "plain", entries))


def random_sequence(rng: random.Random, max_len=30, max_k=6, mode="cyclic"):
    k = rng.randint(2, max_k)
    n = rng.randint(2, max_len)
    return ColorSequence(tuple(rng.randint(1, k) for _ in range(n)), k, mode)


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


@pytest.fixture
def cached_builds(monkeypatch):
    """Memoize the base generators and the interleaving for sweeps that build
    the same words many times over; each is deterministic in its arguments."""
    for module, name in (
        (construct, "build_m2"),
        (construct, "build_m3"),
        (crossing, "cross"),
    ):
        monkeypatch.setattr(module, name, functools.cache(getattr(module, name)))
