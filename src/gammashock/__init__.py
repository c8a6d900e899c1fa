"""Reliability and inspection planning under gamma wear and random shocks."""

from .core import (
    ComponentParams,
    DamageSum,
    SystemModel,
    Topology,
    damage_sum_distribution,
    gamma_cdf,
    prob_no_hard_failure,
    std_normal_cdf,
)
from .optimize import (
    CostParams,
    Dataset,
    NumericsError,
    Scenario,
    TauSolution,
    cost_rate,
    cost_rate_batch,
    dataset_from_csv,
    dataset_to_csv,
    generate_dataset,
    optimal_inspection_time,
    split_dataset,
    system_fingerprint,
    two_regime_state_sampler,
)
from .reliability import (
    QuadratureSpec,
    component_reliability,
    soft_survival_given_m,
    system_reliability,
    truncation_level,
)
from .simulate import (
    PlanTrace,
    PolicyError,
    RngSeed,
    estimate_reliability,
    simulate_plan,
)
from .surrogate import (
    DivergenceError,
    FeatureMode,
    FeatureSpec,
    MlpModel,
    TrainMode,
    backprop_gradients,
    fit,
    forward,
    init_model,
    load_model,
    mse,
    predict_next_inspection,
    r_squared,
    save_model,
    train,
    training_loss,
)
from .config import ExperimentConfig, default_config, load_config, state_sampler

__version__ = "0.1.0"
