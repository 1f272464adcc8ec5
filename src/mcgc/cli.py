"""Command line interface.

One tool exposing construction, verification, cutting, exhaustive search,
bound/kmin/gain tables, grid building, codebook building, decoding, and the
tracking simulator.  Exit codes: 0 success, 1 domain error, 2 usage error.
Each ``cmd_*`` makes every check, then returns its data as text chunks and
its exit code; ``dispatch`` writes the chunks as they come to stdout (or
--output FILE) in one place.  Diagnostics go to stderr.  Commands call the
package's modules through their module objects, so each command runs only
the modules it calls (see ``mcgc/__init__``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

from . import __version__, bounds, construct, crossing, grid2d, search, sequences, sim
from .errors import InputError, McgcError

FORMAT_VERSION = 1


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write the chunks as they come to the file at path, or to stdout for
    None or '-'."""
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _read_sequences(path: str) -> list[sequences.ColorSequence]:
    seqs = sequences.parse_sequences(_read_text(path))
    if not seqs:
        raise InputError(f"no sequence found in {path}")
    return seqs


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}") from exc


def _parse_range(text: str) -> list[int]:
    """'A..B' inclusive, or a comma list, or a single integer."""
    if ".." in text:
        lo_str, hi_str = text.split("..", 1)
        try:
            lo, hi = int(lo_str), int(hi_str)
        except ValueError as exc:
            raise InputError(f"bad range {text!r}") from exc
        if hi < lo:
            raise InputError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return _int_list(text)


def cmd_construct(args) -> tuple[Iterable[str], int]:
    seq = construct.build(args.m, args.k)
    if args.linear:
        t = args.cut if args.cut is not None else len(seq) - 1
        seq = sequences.t_cut(seq, t, args.m)
    elif args.cut is not None:
        raise InputError("--cut only applies together with --linear")
    return [sequences.format_sequence(seq)], 0


def cmd_verify(args) -> tuple[Iterable[str], int]:
    failures = 0
    lines = []
    for seq in _read_sequences(args.file):
        if args.cyclic:
            seq = seq.with_mode("cyclic")
        elif args.linear:
            seq = seq.with_mode("linear")
        report = sequences.check_distinguishable(seq, args.m)
        if report.ok:
            result = {"ok": True, "windows": report.window_count}
            line = f"ok, {report.window_count} windows distinct"
        else:
            failures += 1
            i, j = report.collision
            result = {"ok": False, "collision": [i, j]}
            line = f"collision: windows {i} and {j} carry the same multiset"
        if args.format == "json":
            import json  # the one output of this module that is JSON
            line = json.dumps(result, sort_keys=True)
        lines.append(line)
    return ["\n".join(lines) + "\n"], 1 if failures else 0


def cmd_cut(args) -> tuple[Iterable[str], int]:
    seq = _read_sequences(args.file)[0].with_mode("cyclic")
    return [sequences.format_sequence(sequences.t_cut(seq, args.t, args.m))], 0


def cmd_search_max(args) -> tuple[Iterable[str], int]:
    if args.cap >= 1:  # else the search refuses the cap first
        bounds._refuse_unprintable_ceiling(args.m, args.k)
    result = search.brute_force_max_cyclic(args.m, args.k, args.cap)
    status = "proven" if result.proven else "cap-limited"
    comments = [
        f"search m={args.m} max={result.max_length} {status} "
        f"cap={result.cap} ceiling={result.ceiling}"
    ]
    return [sequences.format_sequence(result.witness, comments)], 0


def cmd_cross(args) -> tuple[Iterable[str], int]:
    s = _read_sequences(args.s)[0].with_mode("cyclic")
    t = _read_sequences(args.t)[0].with_mode("cyclic")
    if min(t.colors) <= s.palette_size:
        t = crossing.shift_palette(t, s.palette_size)
    plan = crossing.plan_cross(len(s), args.m1, len(t), args.m2)
    out = crossing.cross(s, t, plan)
    comments = [f"cross split={args.m1}+{args.m2} d={plan.d} L={plan.L}"]
    return [sequences.format_sequence(out, comments)], 0


def cmd_compose(args) -> tuple[Iterable[str], int]:
    result = crossing.compose_for_m(args.m, max_colors=args.max_colors)
    split = "+".join(str(p) for p in result.split)
    comments = [f"compose split={split} palettes={','.join(map(str, result.factor_palettes))}"]
    comments.extend(
        f"stage {i}: d={plan.d} L={plan.L}" for i, plan in enumerate(result.plans)
    )
    return [sequences.format_sequence(result.sequence, comments)], 0


def cmd_bounds(args) -> tuple[Iterable[str], int]:
    records = bounds.bounds_table(args.m, _parse_range(args.k_range))
    return bounds._table_chunks("bounds", records, args.format), 0


def cmd_kmin(args) -> tuple[Iterable[str], int]:
    rows = bounds.kmin_table(_int_list(args.m), _int_list(args.sizes))
    return bounds._table_chunks("kmin", rows, args.format), 0


def _parse_blocks(text: str) -> list[tuple[int, int]]:
    blocks: list[tuple[int, int]] = []
    for token in text.replace(",", " ").split():
        m_str, sep, n_str = token.partition("x")
        try:
            blocks.append((int(m_str), int(n_str if sep else m_str)))
        except ValueError as exc:
            raise InputError(f"bad block shape {token!r}") from exc
    if not blocks:
        raise InputError("no block shapes given")
    return blocks


def cmd_gain(args) -> tuple[Iterable[str], int]:
    records = bounds.gain_table(_int_list(args.sizes), _parse_blocks(args.blocks))
    return bounds._table_chunks("gain", records, args.format), 0


def cmd_grid(args) -> tuple[Iterable[str], int]:
    s = _read_sequences(args.s)[0]
    t = _read_sequences(args.t)[0]
    return grid2d._grid_lines(grid2d.product_grid(s, t)), 0


def cmd_codebook(args) -> tuple[Iterable[str], int]:
    grid = grid2d.parse_grid(_read_text(args.grid))
    return grid2d._codebook_lines(grid2d.build_codebook(grid, args.m, args.n)), 0


def cmd_decode(args) -> tuple[Iterable[str], int]:
    cb = grid2d.parse_codebook(_read_text(args.codebook))
    pos = grid2d.decode_colors(cb, _int_list(args.colors))
    return [f"{pos[0]} {pos[1]}\n"], 0


def cmd_simulate(args) -> tuple[Iterable[str], int]:
    if args.config:
        config = sim.parse_config(_read_text(args.config))
    else:
        values = {key: getattr(args, key) for key in sim._CONFIG_KEYS}
        missing = [f"--{key}" for key, value in values.items() if value is None]
        if missing:
            raise InputError(f"missing flags: {' '.join(missing)}")
        config = sim._make_config(values, args.traj)
    placement = sim.deploy(config)
    report = sim.summarize(config, placement)
    slots = sim.iter_slots(config, placement)
    if args.records:
        _write(args.records, (record.to_json() + "\n" for record in slots))
    else:
        for _ in slots:  # every slot is still decoded and checked
            pass
    return [report.to_json() + "\n"], 0


class _LibraryBudget(str):
    """The default of --max-colors.  argparse converts a string default with
    the option's type, and int() of this one reads compose_for_m's own
    budget, so crossing runs only when compose is parsed."""

    def __int__(self) -> int:
        return crossing._MAX_COLORS


def _command(sub, func, help: str) -> argparse.ArgumentParser:
    """The subcommand that runs func, named after it: cmd_search_max is search-max."""
    p = sub.add_parser(func.__name__[4:].replace("_", "-"), help=help)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgc",
        description=(
            "Construct, verify, and apply window-distinguishable color "
            "sequences and 2D color maps."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (formats v{FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = _command(sub, cmd_construct, "build a distinguishable sequence")
    p.add_argument("--m", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--k", type=int, required=True, help="palette size")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cyclic", action="store_true", help="cyclic output (default)")
    group.add_argument("--linear", action="store_true", help="cut the cycle open")
    p.add_argument("--cut", type=int, help="cut position for --linear (default: last)")

    p = _command(sub, cmd_verify, "check distinguishability of sequences in a file")
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cyclic", action="store_true", help="force cyclic mode")
    group.add_argument("--linear", action="store_true", help="force linear mode")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("file", help="sequence file, or - for stdin")

    p = _command(sub, cmd_cut, "linearize a cyclic sequence")
    p.add_argument("--t", type=int, required=True, help="cut position")
    p.add_argument("--m", type=int, required=True, help="window size")
    p.add_argument("file", help="sequence file, or - for stdin")

    p = _command(sub, cmd_search_max, "exhaustive longest-sequence search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, required=True, help="length cap")

    p = _command(sub, cmd_cross, "interleave two cyclic sequences")
    p.add_argument("--s", required=True, help="first sequence file")
    p.add_argument("--t", required=True, help="second sequence file")
    p.add_argument("--m1", type=int, required=True, help="first window size")
    p.add_argument("--m2", type=int, required=True, help="second window size")

    p = _command(sub, cmd_compose, "build a sequence for any window size")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-colors", type=int, default=_LibraryBudget())

    p = _command(sub, cmd_bounds, "length bound table (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k-range", required=True, help="A..B, comma list, or single k")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = _command(sub, cmd_kmin, "minimal colors table (CSV)")
    p.add_argument("--m", required=True, help="window size(s), comma separated")
    p.add_argument("--sizes", required=True, help="grid sizes, comma separated")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = _command(sub, cmd_gain, "coding gain table (CSV)")
    p.add_argument("--sizes", required=True, help="grid sizes, comma separated")
    p.add_argument(
        "--blocks",
        required=True,
        help="block shapes: '3' means 3x3, or 'MxN', comma separated",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = _command(sub, cmd_grid, "product color grid from two sequences")
    p.add_argument("--s", required=True, help="x-axis sequence file")
    p.add_argument("--t", required=True, help="y-axis sequence file")

    p = _command(sub, cmd_codebook, "build the multiset-to-position table")
    p.add_argument("--grid", required=True, help="grid file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = _command(sub, cmd_decode, "look up a reported multiset")
    p.add_argument("--codebook", required=True, help="codebook file")
    p.add_argument("--colors", required=True, help="reported colors, comma separated")

    p = _command(sub, cmd_simulate, "run the tracking simulator")
    p.add_argument("--cells", type=int, help="cells per side C")
    p.add_argument("--m", type=int, help="detection block side")
    p.add_argument("--slots", type=int, help="number of time slots")
    p.add_argument("--bits", type=int, help="per-channel bits per slot")
    p.add_argument("--seed", type=int, help="PRNG seed (required)")
    p.add_argument("--traj", default="uniform", help="uniform | walk | walk:P")
    p.add_argument("--config", help="key=value config file instead of flags")
    p.add_argument("--records", help="write per-slot records (NDJSON) here")

    for p in sub.choices.values():  # last, so -o ends every command's help
        p.add_argument("-o", "--output", help="write data here instead of stdout")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or version
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        chunks, code = args.func(args)
        _write(args.output, chunks)
        return code
    except (McgcError, OSError, ValueError, OverflowError) as exc:  # int too big to print or index
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
