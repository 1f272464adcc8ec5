"""The package's public names: one list, computed from what __init__ imports."""

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
