"""Single-pass streaming clustering for Gaussian mixtures with an unknown
number of components, plus diagnostics and a benchmark harness."""

from asugs.engine import (
    ClusterBook,
    EngineConfig,
    Run,
    RunTrace,
    StepRecord,
    run,
    run_many,
)
from asugs.mixture import GaussianMixture
from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    log_gamma_ratio,
    log_predictive_density,
    posterior_update,
    prior_predictive,
)

__all__ = [
    "ClusterBook",
    "EngineConfig",
    "GaussianMixture",
    "NiwPosterior",
    "PriorConfig",
    "Run",
    "RunTrace",
    "StepRecord",
    "log_gamma_ratio",
    "log_predictive_density",
    "posterior_update",
    "prior_predictive",
    "run",
    "run_many",
]

__version__ = "0.1.0"
