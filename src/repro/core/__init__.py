"""NeuroCard core: the paper's primary contribution.

``NeuroCard`` (in :mod:`repro.core.estimator`) is the public entry point: a
single deep autoregressive density model trained on uniform samples of the
full outer join, answering cardinality queries over any connected subset of
tables via progressive sampling with schema-subsetting corrections.
"""

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.core.factorization import Factorizer
from repro.core.inference import build_engine, compiled_model
from repro.core.progressive import ProgressiveSampler
from repro.core.refresh import (
    RefreshOutcome,
    clone_estimator,
    fast_refresh,
    fast_refresh_budget,
    full_retrain,
)
from repro.core.regions import Region

__all__ = [
    "NeuroCard",
    "NeuroCardConfig",
    "Factorizer",
    "ProgressiveSampler",
    "Region",
    "RefreshOutcome",
    "build_engine",
    "clone_estimator",
    "compiled_model",
    "fast_refresh",
    "fast_refresh_budget",
    "full_retrain",
]
