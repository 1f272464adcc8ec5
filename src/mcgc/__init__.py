"""Multiset color codes.

Color sequences and 2D color maps whose fixed-size windows are identified
by their color multisets, plus the bound and gain tables that size them and
a batch tracking simulator that exercises them over a grid sensor field.
"""

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

__all__ = [
    "__version__",
    # sequences
    "ColorSequence",
    "Multiset",
    "DistinguishabilityReport",
    "window_multiset",
    "check_distinguishable",
    "t_cut",
    # construction
    "Multigraph",
    "eulerian_circuit",
    "RecursionPair",
    "build_m1",
    "build_m2",
    "build_m3",
    "build_m3_pair",
    "pad_with_new_colors",
    "SearchResult",
    "brute_force_max_cyclic",
    # crossing
    "CrossProductPlan",
    "ComposeResult",
    "plan_cross",
    "cross",
    "shift_palette",
    "compose_for_m",
    # bounds
    "BoundRecord",
    "GainRecord",
    "multichoose",
    "upper_bound",
    "lower_bound",
    "bound_record",
    "min_colors_1d",
    "min_colors_2d",
    "coding_gain",
    "gain_record",
    # grids
    "ColorGrid2D",
    "Codebook",
    "product_grid",
    "block_multiset",
    "check_grid_distinguishable",
    "build_codebook",
    "decode",
    "decode_colors",
    # simulator
    "SimConfig",
    "SimReport",
    "SlotRecord",
    "Deployment",
    "deploy",
    "summarize",
    "iter_slots",
    "run",
    # errors
    "McgcError",
    "InputError",
    "GraphError",
    "SelfCheckError",
    "PlanError",
    "PaletteError",
    "ComposeError",
    "CollisionError",
    "DecodeError",
    "CardinalityError",
    "UnknownBlockError",
    "UnsupportedParameterError",
    "TrackingError",
]
