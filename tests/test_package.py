"""The package's public names, one list computed from what __init__ imports,
and the import graph of its modules."""

import ast
import graphlib
import pathlib
import sys

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
