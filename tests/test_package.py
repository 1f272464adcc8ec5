"""The package's public names, which of its modules a command runs, the
binding of each name when its module runs, and the import graph of its
modules."""

import ast
import graphlib
import json
import pathlib
import sys

from conftest import run_child

import mcgc

# sorted(mcgc.__all__) as it stood when the list was written out by hand
PUBLIC_NAMES = [
    "BoundRecord", "CardinalityError", "Codebook", "CollisionError", "ColorGrid2D",
    "ColorSequence", "ComposeError", "ComposeResult", "CrossProductPlan", "DecodeError",
    "Deployment", "DistinguishabilityReport", "GainRecord", "GraphError", "InputError",
    "McgcError", "Multigraph", "Multiset", "PaletteError", "PlanError", "RecursionPair",
    "SearchResult", "SelfCheckError", "SimConfig", "SimReport", "SlotRecord",
    "TrackingError", "UnknownBlockError", "UnsupportedParameterError", "__version__",
    "block_multiset", "bound_record", "brute_force_max_cyclic", "build_codebook",
    "build_m1", "build_m2", "build_m3", "build_m3_pair", "check_distinguishable",
    "check_grid_distinguishable", "coding_gain", "compose_for_m", "cross", "decode",
    "decode_colors", "deploy", "eulerian_circuit", "gain_record", "iter_slots",
    "lower_bound", "min_colors_1d", "min_colors_2d", "multichoose", "pad_with_new_colors",
    "plan_cross", "product_grid", "run", "shift_palette", "summarize", "t_cut",
    "upper_bound", "window_multiset",
]


def test_public_names_pinned():
    assert sorted(mcgc.__all__) == PUBLIC_NAMES


def test_star_import_binds_each_public_object_from_its_module():
    namespace: dict = {}
    exec("from mcgc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert namespace.pop("__version__") == mcgc.__version__
    for name, value in namespace.items():
        assert value is getattr(mcgc, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def _imports() -> dict[str, tuple[set[str], set[str]]]:
    """Each module of the package -> (the top-level packages it imports
    absolutely, the package modules it imports relatively), read from its
    source anywhere in the file, functions included."""
    source = pathlib.Path(mcgc.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in source.glob("*.py")}
    graph = {}
    for name, tree in trees.items():
        absolute: set[str] = set()
        relative: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                absolute.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                absolute.add(node.module.partition(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module:  # from .x import y reads x
                relative.add(node.module)
            elif isinstance(node, ast.ImportFrom):  # from . import y: module y, or the package
                relative.update(a.name if a.name in trees else "__init__" for a in node.names)
        graph[name] = absolute, relative
    return graph


def test_runtime_imports_only_the_standard_library():
    for name, (absolute, _) in _imports().items():
        assert absolute <= sys.stdlib_module_names, (name, absolute - sys.stdlib_module_names)


def test_module_imports_form_no_cycle():
    graph = {name: relative for name, (_, relative) in _imports().items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError naming the cycle


def test_search_imports_nothing_from_bounds():
    # the search reads its ceiling from sequences, as bounds does
    assert "bounds" not in _imports()["search"][1]


# A child that records every package file whose code runs, by the "exec"
# audit event each module's first run raises, then runs the mcgc script's
# entry point on its arguments (none: import only).
RAN = """
import json, os, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0]))
import mcgc
if sys.argv[1:]:
    from mcgc.cli import main
    sys.argv[0] = "mcgc"
    try:
        main()
    except SystemExit as exc:
        assert exc.code == 0, exc.code
package = os.path.dirname(mcgc.__file__)
files = {getattr(code, "co_filename", "") for code in ran}
print(json.dumps(sorted(os.path.basename(f)[:-3] for f in files if os.path.dirname(f) == package)))
"""
CLI = ["__init__", "cli", "errors"]


def _files_run(*argv):
    proc = run_child("-c", RAN, *argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_each_command_runs_only_the_modules_it_calls(tmp_path):
    assert _files_run() == {"__init__"}
    assert _files_run("--version") == set(CLI)
    word, book = tmp_path / "a.txt", tmp_path / "book.csv"
    word.write_text("# k=3 mode=cyclic\n1 1 2 2 3 3\n")
    assert _files_run("cut", "--t", "1", "--m", "2", str(word)) == {*CLI, "sequences"}
    book.write_text("# m=1 n=1 k=3 mode=plain\nkey,x0,y0\n0-1-0,0,2\n")
    ran = _files_run("decode", "--codebook", str(book), "--colors", "2")
    assert ran == {*CLI, "sequences", "grid2d", "construct"}


# A fresh child in the order a tracer patches the package: run a public
# name's owner, replace the owner's attribute, read mcgc.X for the first
# time, restore.  mcgc.X is bound when its owner runs, so it keeps the
# original.  Each module's first run binds exactly the public names of the
# modules that have run, and dir(mcgc) lists them all from the start.
TRACER_ORDER = """
import json, sys, types
owners = json.loads(sys.argv[1])
import mcgc
lazy = sorted(name for name in sys.modules if name.startswith("mcgc."))
assert lazy == sorted(set(owners.values())), lazy
assert set(mcgc.__all__) <= set(dir(mcgc))  # before any module runs
for owner_name in lazy:
    vars(sys.modules[owner_name])  # its first use
    ran = {name for name in lazy if type(sys.modules[name]) is types.ModuleType}
    bound = {name for name in owners if name in vars(mcgc)}
    assert bound == {name for name, owner in owners.items() if owner in ran}, owner_name
    for name in bound:
        assert vars(mcgc)[name] is getattr(sys.modules[owners[name]], name), name
for name, owner_name in owners.items():
    owner = sys.modules[owner_name]
    original = getattr(owner, name)
    setattr(owner, name, object())
    seen = getattr(mcgc, name)
    setattr(owner, name, original)
    assert seen is original and getattr(mcgc, name) is original, name
"""


def test_names_bind_when_their_module_runs_so_a_patch_of_the_owner_stays_there():
    package = pathlib.Path(mcgc.__file__).parent
    modules = {f"mcgc.{path.stem}" for path in package.glob("*.py")} - {"mcgc.__init__", "mcgc.cli"}
    owners = {name: getattr(mcgc, name).__module__ for name in mcgc.__all__ if name != "__version__"}
    assert set(owners.values()) == modules  # every module but cli owns a public name
    proc = run_child("-c", TRACER_ORDER, json.dumps(owners), timeout=60)
    assert proc.returncode == 0, proc.stderr
