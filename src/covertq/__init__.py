"""covertq: covert timing channels over single-server FIFO queues.

Simulation of the queue channel, information-density and rate-region
computations, random exponential codebooks with ML decoding, and a
likelihood-ratio adversary that knows the codebook but not the key.
"""

from .codec import (
    Codebook,
    DecodeResult,
    DecodingErrorBounds,
    Transmission,
    decode,
    encode,
    generate_codebook,
    mm1_log_output_ratio_bound,
    random_coding_error_bounds,
)
from .errors import (
    ConfigError,
    CovertqError,
    InfeasibleRateError,
    InstabilityError,
    OutputError,
    ParameterError,
    ResourceLimitError,
    StructuralError,
)
from .harness import ExperimentConfig, ResultRow, emit, load_rows, reproduce_metric, run
from .laws import info_density_sample, poisson_log_density, sample_info_densities
from .queueing import (
    ServiceKind,
    ServiceModel,
    departure_epochs,
    poisson_arrivals,
    simulate_channel,
)
from .rates import (
    RatePoint,
    RegionSpec,
    choose_dummy_rate,
    covert_capacity,
    in_region,
    kl_to_exponential,
    min_key_rate,
    no_key_needed,
)
from .warden import (
    run_detection_trials,
    summarize_detection,
    willie_llr,
)

__version__ = "0.1.0"
