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
    PowerProfile,
    as_profile,
    leader_reward_scale,
    mining_success_prob,
    net_profit,
)
from .discriminatory import (
    DiscriminatoryGame,
    best_responses,
    leader_delta_utility_discriminatory,
    miner_utilities,
    nash_equilibrium_closed_form,
    optimal_fees_discriminatory,
    share_identity,
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
    first_miner_wins,
    simulate_mining,
)
from .uniform import (
    aggregate_miner_utility,
    leader_delta_utility_uniform,
    optimal_fee_uniform,
    optimal_fees_uniform,
    pool_responses,
    uniqueness_certificate_uniform,
)

__version__ = "0.1.0"
