"""Seasonal dynamic stochastic block model toolkit.

Generation, exact Kalman inference, EM parameter learning, forecasting
and likelihood-based anomaly detection for dynamic networks whose
per-block edge density follows a bias-plus-seasonal process.
"""

from .graph_model import (
    BlockStack,
    DynamicNetwork,
    VertexTyping,
    extract_block_series,
    possible_edges,
)
from .generator import (
    GenParams,
    LatentTrace,
    default_state,
    generate_block_series,
    generate_network,
    seasonal_state,
    sine_profile,
    step_latent,
)
from .ssm import (
    ModelParams,
    ParamStack,
    StateSpace,
    binomial_obs_noise,
    build_state_space,
)
from .kalman import BeliefSequence, smooth
from .em import EmConfig, EmTrace, default_init, em_fit
from .anomaly import (
    AnomalyReport,
    LogLikPolicy,
    ScoreSeries,
    SigmaPolicy,
    detect,
    score,
)
from .ingest import (
    BucketingConfig,
    load_model,
    parse_inputs,
    save_model,
)

__version__ = "0.1.0"
