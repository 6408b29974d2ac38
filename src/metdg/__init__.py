"""Analysis toolkit for multi-edge-type doubly-generalized LDPC ensembles
over the binary erasure channel: EXIT density evolution, decoding
thresholds, local stability of the erasure-free state, and finite-length
peeling simulation."""

__version__ = "0.1.0"

from .ensemble import (  # noqa: F401
    CnType,
    EnsembleSpec,
    VnType,
    build_spec,
    load_spec,
    spec_from_dict,
    spec_from_json,
)
from .errors import (  # noqa: F401
    AssumptionError,
    CapacityError,
    InternalError,
    MetdgError,
    ValidationError,
)
from .exitchart import (  # noqa: F401
    ExitEngine,
    ProbeOutcome,
)
from .gf2 import (  # noqa: F401
    WALK_BUDGET,
    GF2Matrix,
    enumerate_weight2_pairs,
    generator_from_parity,
    min_distance,
)
from .infofuncs import cn_info_table, vn_info_table  # noqa: F401
from .stability import (  # noqa: F401
    StabilityMatrices,
    build_matrices,
    stability_bound,
    stability_verdict,
)

# The simulator's names, imported from metdg.peeling (and with it numpy) on
# first use, so that the analyses load without either (PEP 562).
_PEELING_NAMES = frozenset(
    {"DecodeResult", "SampledCode", "decode", "sample_code", "sweep", "wilson_interval"}
)


def __getattr__(name: str):
    if name in _PEELING_NAMES:
        from . import peeling

        return getattr(peeling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
