"""Coded beam training for RIS-assisted links.

Steering models, block-coded beam patterns, relaxed GS codeword synthesis,
training protocols, and Monte-Carlo evaluation.
"""

from .arrays import (
    AngleGrid,
    ArrayGeometry,
    bs_angle_grid,
    make_angle_grid,
    ula_steering,
    upa_steering_uw,
)
from .blockcode import (
    BlockCode,
    build_identity_code,
    build_plain_code,
    build_reduced_code,
    decode_words,
    encode,
    min_distance,
    redundancy_length,
    syndrome,
)
from .channel import ChannelBlock, SnrSpec, sample_block
from .codebook import (
    DesignedCodebook,
    GsConfig,
    beam_pattern_matrix,
    build_codebooks,
    design_beams,
    design_bs_codewords,
)
from .experiments import (
    ExperimentConfig,
    ResultSet,
    export_results,
    import_results,
    run_sweep,
)
from .training import (
    ProtocolSpec,
    TrainingRuns,
    run_adaptive,
    run_exhaustive,
    run_layered,
    training_overhead,
    tuple_rates,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
