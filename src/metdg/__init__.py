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
from .peeling import (  # noqa: F401
    DecodeResult,
    SampledCode,
    decode,
    sample_code,
    sweep,
    wilson_interval,
)
from .stability import (  # noqa: F401
    StabilityMatrices,
    build_matrices,
    spectral_radius,
    stability_bound,
    stability_verdict,
)
