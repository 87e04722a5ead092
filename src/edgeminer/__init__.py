"""Stackelberg fee games between an edge server and recruited mobile miners.

The library solves both stages of the game: closed-form follower responses
and equilibria, uniqueness certificates, leader-optimal fees, plus a seeded
Monte-Carlo mining simulator and brute-force oracles used to validate every
closed form.
"""

from .core import (
    ConfigError,
    ConvergenceError,
    DegenerateProfileError,
    GameParams,
    InfeasibleEquilibriumError,
    PowerProfile,
    as_profile,
    edge_utility,
    leader_reward_scale,
    miner_utility,
    mining_success_prob,
    power_share,
)
from .discriminatory import (
    DiscriminatoryCertificate,
    DiscriminatoryGame,
    best_response_i,
    equilibrium_share,
    leader_delta_utility_discriminatory,
    miner_utility_i,
    nash_equilibrium_closed_form,
    optimal_fees_discriminatory,
    uniqueness_certificate_discriminatory,
)
from .experiments import ExperimentConfig, run_experiment, validate_config
from .search import (
    SearchConfig,
    SearchTrace,
    best_response_dynamics,
    golden_section_max,
    grid_argmax,
    multiplicative_fee_search,
)
from .simulate import (
    SimConfig,
    SimOutcome,
    emg_vs_mdg_sweep,
    empirical_success_prob,
    mdg_baseline_profit,
    simulate_mining,
)
from .uniform import (
    UniformCertificate,
    UniformGame,
    aggregate_miner_utility,
    best_response_uniform,
    leader_delta_utility_uniform,
    optimal_fee_uniform,
    uniqueness_certificate_uniform,
)

__version__ = "0.1.0"
