"""Swarm optimizers with perturbation-projection exploration enhancements."""

from .algorithms import (
    ALGORITHM_LABELS,
    AlgorithmConfig,
    RunRecord,
    SwarmState,
    config_for_label,
    init_state,
    perturb_project,
    run,
    step,
)
from .harness import ExperimentPlan, ResultStore, StoreError, derive_seed, execute, resume
from .metrics import aggregate_relative_error, pair_figures, relative_error, win_fraction
from .objectives import batch_evaluator, default_domain, evaluate, list_collection
from .perturbation import NoiseModel, sample_noise
from .search_space import Box, contains, project, sample_uniform

__version__ = "0.1.0"
