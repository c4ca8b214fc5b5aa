"""Two-player zero-sum stochastic games where every non-null action costs.

A dense-table model (:mod:`impulsegames.game`), an exact nested min/max
value-iteration solver with policy extraction and a best-response saddle
oracle (:mod:`impulsegames.solver`), model-free learning of the joint
action table (:mod:`impulsegames.qlearn`), linear value approximation with
an error-bound check (:mod:`impulsegames.linfa`), budget-capped play on
remaining-intervention counter layers (:mod:`impulsegames.budget`), and a
discretised advertising-duopoly environment (:mod:`impulsegames.envs`).
"""

from .game import (
    GameFormatError,
    GameValidationError,
    ImpulseGame,
    Violation,
    effective_reward,
    game_from_dict,
    game_to_dict,
    games_equal,
    load_basis,
    load_game,
    player2_reward,
    random_game,
    save_game,
    validate,
)
from .solver import (
    EquilibriumPolicy,
    OracleReport,
    SolveReport,
    bellman,
    evaluate_policies,
    extract_policy,
    intervention_times,
    max_intervention,
    min_intervention,
    minimax_oracle,
    noop_continuation,
    q_from_value,
    read_off,
    solve,
)
from .sim import Trajectory, simulate
from .qlearn import LearnConfig, LearnDiagnostics, learn
from .linfa import (
    BoundReport,
    FeatureBasis,
    FitConfig,
    FitDivergenceError,
    FitReport,
    apply_operator,
    constant_basis,
    fit,
    identity_basis,
    project,
    projected_iteration,
    projection_weights,
    stationary_distribution,
    verify_bound,
    weighted_norm,
)
from .budget import AugmentedGame, augment
from .envs import (
    DuopolyParams,
    SamplingEnv,
    build_duopoly_game,
    duopoly_params_from_dict,
    duopoly_step_mean,
)

__version__ = "0.1.0"
