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
)
from .generator import (
    generate_block_series,
    generate_network,
    seasonal_state,
    sine_profile,
)
from .ssm import (
    ModelParams,
    ParamStack,
    binomial_obs_noise,
    transition,
)
from .kalman import BeliefSequence, smooth
from .em import EmConfig, EmRecord, default_init, em_fit
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
