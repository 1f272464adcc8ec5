"""Multiset color codes.

Color sequences and 2D color maps whose fixed-size windows are identified
by their color multisets, plus the bound and gain tables that size them and
a batch tracking simulator that exercises them over a grid sensor field.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundRecord,
    GainRecord,
    bound_record,
    coding_gain,
    gain_record,
    lower_bound,
    min_colors_1d,
    min_colors_2d,
    multichoose,
    upper_bound,
)
from .construct import (
    RecursionPair,
    build_m1,
    build_m2,
    build_m3,
    build_m3_pair,
    pad_with_new_colors,
)
from .crossing import (
    ComposeResult,
    CrossProductPlan,
    compose_for_m,
    cross,
    plan_cross,
    shift_palette,
)
from .errors import (
    CardinalityError,
    CollisionError,
    ComposeError,
    DecodeError,
    GraphError,
    InputError,
    McgcError,
    PaletteError,
    PlanError,
    SelfCheckError,
    TrackingError,
    UnknownBlockError,
    UnsupportedParameterError,
)
from .eulerian import Multigraph, eulerian_circuit
from .grid2d import (
    Codebook,
    ColorGrid2D,
    block_multiset,
    build_codebook,
    check_grid_distinguishable,
    decode,
    decode_colors,
    product_grid,
)
from .search import SearchResult, brute_force_max_cyclic
from .sequences import (
    ColorSequence,
    DistinguishabilityReport,
    Multiset,
    check_distinguishable,
    t_cut,
    window_multiset,
)
from .sim import (
    Deployment,
    SimConfig,
    SimReport,
    SlotRecord,
    deploy,
    iter_slots,
    run,
    summarize,
)

__version__ = "0.1.0"

__all__ = ["__version__"] + [  # the public names imported above, not the modules
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
