"""Multiset color codes.

Color sequences and 2D color maps whose fixed-size windows are identified
by their color multisets, plus the bound and gain tables that size them and
a batch tracking simulator that exercises them over a grid sensor field.

Importing the package runs none of its modules.  Each module but ``cli`` is
in ``sys.modules``, and bound here, as a lazy module
(``importlib.util.LazyLoader``): its source is compiled and run on its
first use, the first read of any of its attributes.  When a module runs,
each public name it owns is bound here to the same object, so ``mcgc.X`` is
a plain read from then on and a later patch of the owner stays there.
Until then the first read of ``mcgc.X`` reaches ``__getattr__`` (PEP 562),
which runs the owner.  ``__all__`` lists every public name either way.
First use is not meant to race across threads; concurrency is out of scope.
"""

import importlib.machinery as _machinery
import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# each module but cli -> the public names it owns
_OWNED = {
    "bounds": (
        "BoundRecord", "GainRecord", "bound_record", "coding_gain", "gain_record",
        "lower_bound", "min_colors_1d", "min_colors_2d",
    ),
    "construct": (
        "RecursionPair", "build_m1", "build_m2", "build_m3", "build_m3_pair",
        "pad_with_new_colors",
    ),
    "crossing": (
        "ComposeResult", "CrossProductPlan", "compose_for_m", "cross", "plan_cross",
        "shift_palette",
    ),
    "errors": (
        "CardinalityError", "CollisionError", "ComposeError", "DecodeError", "GraphError",
        "InputError", "McgcError", "PaletteError", "PlanError", "SelfCheckError",
        "TrackingError", "UnknownBlockError", "UnsupportedParameterError",
    ),
    "eulerian": ("Multigraph", "eulerian_circuit"),
    "grid2d": (
        "Codebook", "ColorGrid2D", "block_multiset", "build_codebook",
        "check_grid_distinguishable", "decode", "decode_colors", "product_grid",
    ),
    "search": ("SearchResult", "brute_force_max_cyclic"),
    "sequences": (
        "ColorSequence", "DistinguishabilityReport", "Multiset", "check_distinguishable",
        "multichoose", "t_cut", "upper_bound", "window_multiset",
    ),
    "sim": (
        "Deployment", "SimConfig", "SimReport", "SlotRecord", "deploy", "iter_slots",
        "run", "summarize",
    ),
}
_OWNER = {name: module for module, names in _OWNED.items() for name in names}

__all__ = ["__version__", *_OWNER]


class _Loader(_machinery.SourceFileLoader):
    """Runs a module, then binds the public names it owns in the package."""

    def exec_module(self, module):
        super().exec_module(module)
        owned = _OWNED[self.name.rpartition(".")[2]]
        globals().update((name, vars(module)[name]) for name in owned)


def _lazy(name):
    fullname, path = f"{__name__}.{name}", f"{__path__[0]}/{name}.py"
    loader = _util.LazyLoader(_Loader(fullname, path))
    module = _util.module_from_spec(_util.spec_from_file_location(fullname, path, loader=loader))
    loader.exec_module(module)  # marks it lazy: nothing runs yet
    return module


for _name in _OWNED:
    _sys.modules[f"{__name__}.{_name}"] = globals()[_name] = _lazy(_name)


def __getattr__(name):
    """The first read of a public name whose module has not run yet."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)  # runs the owner, which binds name


def __dir__():
    return sorted({*globals(), *__all__})
