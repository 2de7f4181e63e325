"""Blind estimation of the CP-OFDM subcarrier count from raw IQ captures.

Synthesizes CP-OFDM streams through a quasi-block-fading multipath
channel and recovers the number of subcarriers from the received samples
alone, using the rank deficiency the cyclic prefix imprints on correctly
segmented data, read off the smallest eigenvalues of each candidate's
covariance.
"""
from .channel import (
    ChannelConfig,
    ChannelRealization,
    apply_block_channel,
    draw_realization,
)
from .errors import ConfigError, DataError, OfdmBlindError
from .estimator import EstimateReport, EstimatorConfig, MdlCurve, estimate_n
from .harness import (
    SweepPoint,
    SweepResult,
    SweepSpec,
    emit_csv,
    load_preset,
    load_spec_file,
    run_sweep,
)
from .transmitter import (
    IqSequence,
    OfdmConfig,
    generate_stream,
    read_iq_file,
    write_iq_file,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "ChannelRealization",
    "ConfigError",
    "DataError",
    "EstimateReport",
    "EstimatorConfig",
    "IqSequence",
    "MdlCurve",
    "OfdmBlindError",
    "OfdmConfig",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "apply_block_channel",
    "draw_realization",
    "emit_csv",
    "estimate_n",
    "generate_stream",
    "load_preset",
    "load_spec_file",
    "read_iq_file",
    "run_sweep",
    "write_iq_file",
]
