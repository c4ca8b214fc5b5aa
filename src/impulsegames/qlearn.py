"""Model-free learning of the game's action values by simulated play.

The learner keeps a cost-exclusive joint table ``Q[s, a, b]``; action costs
are applied on the fly when the table is read back through the greedy
combinator.  Each step executes exactly one of: a costly Player-1 action, a
costly Player-2 action (precedence when both trigger), or the null pair, and
updates only the executed cell with a sampled one-step bootstrap target.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .game import ImpulseGame
from .envs import SamplingEnv
from .solver import TIE_EPS


class Transition(NamedTuple):
    """One executed step; the pair never has both entries non-null."""

    state: int
    a: int
    b: int
    net_reward: float
    next_state: int


class StepResult(NamedTuple):
    delta: float
    target: float


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of a learning run.

    Step sizes are per-cell ``1 / (1 + visits)**omega`` with
    ``omega in (0.5, 1]`` so they are square-summable but not summable.
    Exploration decays linearly from ``epsilon_start`` to ``epsilon_end``
    over the step budget.  ``stop_delta > 0`` enables early stopping when an
    epoch's largest table change falls below it.
    """

    steps: int
    epsilon_start: float = 0.2
    epsilon_end: float = 0.01
    omega: float = 0.85
    seed: int = 0
    episode_len: int = 100
    eval_every: int = 1000
    stop_delta: float = 0.0

    def __post_init__(self):
        if not (0.5 < self.omega <= 1.0):
            raise ValueError("omega must lie in (0.5, 1]")
        if not (0.0 <= self.epsilon_start <= 1.0 and 0.0 <= self.epsilon_end <= 1.0):
            raise ValueError("exploration rates must lie in [0, 1]")
        if self.episode_len <= 0 or self.eval_every <= 0:
            raise ValueError("episode_len and eval_every must be positive")


def _read_off(q: np.ndarray, game, s: int) -> tuple[float, tuple[int, int]]:
    """Greedy value at ``s`` and the pair it executes, by ``extract_policy``'s rule."""
    # The solver's nesting, per state: a vectorised call on one row costs more per step.
    noop = float(q[s, 0, 0])
    inner, a = noop, 0
    if game.num_actions1 > 1 and game.mask1[s, 1:].any():
        vals = np.where(game.mask1[s, 1:], q[s, 1:, 0] - game.cost1[s, 1:], -np.inf)
        i = int(vals.argmax())
        best = float(vals[i])
        if best > inner:
            inner = best
        if best > noop + TIE_EPS:
            a = i + 1
    out = inner
    if game.num_actions2 > 1 and game.mask2[s, 1:].any():
        vals = np.where(game.mask2[s, 1:], q[s, 0, 1:] + game.cost2[s, 1:], np.inf)
        j = int(vals.argmin())
        best = float(vals[j])
        if best < out:
            out = best
        if best < inner - TIE_EPS:
            return out, (0, j + 1)
    return out, (a, 0)


def greedy_value(q: np.ndarray, game, s: int) -> float:
    """Value of the greedy combinator read off the stored table at ``s``.

    min( max( best costly P1 cell minus its cost, null-pair cell ),
         best costly P2 cell plus its cost ), with absent (or fully masked)
    sides dropping out of the nesting.
    """
    return _read_off(q, game, s)[0]


def explore(game, s: int, rng) -> tuple[int, int]:
    """A uniform exploration draw at ``s``: a slot among P1 action / P2
    action / no-op (a side with no available costly action drops out), then
    a uniform available action within it."""
    slots = [0]
    if game.num_actions1 > 1 and game.mask1[s, 1:].any():
        slots.append(1)
    if game.num_actions2 > 1 and game.mask2[s, 1:].any():
        slots.append(2)
    slot = slots[rng.integers(len(slots))]
    if slot == 1:
        choices = np.flatnonzero(game.mask1[s, 1:]) + 1
        return int(choices[rng.integers(len(choices))]), 0
    if slot == 2:
        choices = np.flatnonzero(game.mask2[s, 1:]) + 1
        return 0, int(choices[rng.integers(len(choices))])
    return 0, 0


def act(q: np.ndarray, game, s: int, epsilon: float, rng) -> tuple[int, int]:
    """Choose the executed pair at ``s`` from the current table.

    With probability ``1 - epsilon``: raise Player 2's action where its
    combinator term strictly beats the inner max (precedence), else Player
    1's where it strictly beats doing nothing, else the null pair.  With
    probability ``epsilon``: an :func:`explore` draw.
    """
    if epsilon > 0.0 and rng.random() < epsilon:
        return explore(game, s, rng)
    return _read_off(q, game, s)[1]


def step_update(q: np.ndarray, game, tr: Transition, alpha: float) -> StepResult:
    """Move the executed cell toward its sampled bootstrap target, in place.

    The target uses the raw (cost-exclusive) reward, recovered from the
    transition's net reward: the table itself never stores action costs.
    """
    raw = tr.net_reward
    if tr.a != 0:
        raw += float(game.cost1[tr.state, tr.a])
    if tr.b != 0:
        raw -= float(game.cost2[tr.state, tr.b])
    target = raw + game.discount * greedy_value(q, game, tr.next_state)
    delta = alpha * (target - float(q[tr.state, tr.a, tr.b]))
    q[tr.state, tr.a, tr.b] += delta
    return StepResult(delta=delta, target=target)


@dataclass
class LearnDiagnostics:
    """Learning-run telemetry: per-epoch rows plus summary counters."""

    rows: list = field(default_factory=list)
    visits: Optional[np.ndarray] = None
    steps_run: int = 0
    max_abs_target: float = 0.0
    final_sup_delta: float = 0.0
    stopped_early: bool = False

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(
                f, fieldnames=["step", "sup_norm_delta", "dist_to_qhat", "epsilon", "seed"])
            writer.writeheader()
            writer.writerows(self.rows)


def _as_env(game_or_env, rng) -> SamplingEnv:
    if isinstance(game_or_env, ImpulseGame):
        return SamplingEnv(game_or_env, rng=rng)
    return game_or_env


def learn(game_or_env, config: LearnConfig, q0=None,
          reference_q=None) -> tuple[np.ndarray, LearnDiagnostics]:
    """Run the simulated-play learner for the configured step budget.

    Accepts either a game (wrapped behind the sampling contract) or an
    environment exposing ``reset``/``step`` plus the static action metadata.
    When ``reference_q`` is given, the diagnostics track the sup-norm
    distance to it over the cells executed so far.
    """
    rng = np.random.default_rng(config.seed)
    env = _as_env(game_or_env, rng)
    shape = (env.num_states, env.num_actions1, env.num_actions2)
    q = np.zeros(shape) if q0 is None else np.array(q0, dtype=float)
    if q.shape != shape:
        raise ValueError(f"q0 must have shape {shape}")
    visits = np.zeros(shape, dtype=np.int64)
    diag = LearnDiagnostics(visits=visits)
    steps = config.steps
    if steps <= 0:
        return q, diag
    eps_span = config.epsilon_end - config.epsilon_start
    s = env.reset()
    epoch_sup = 0.0
    for t in range(steps):
        epsilon = config.epsilon_start + eps_span * (t / steps)
        a, b = act(q, env, s, epsilon, rng)
        s2, raw = env.step(s, (a, b))
        net = raw
        if a != 0:
            net -= float(env.cost1[s, a])
        if b != 0:
            net += float(env.cost2[s, b])
        tr = Transition(s, a, b, net, s2)
        alpha = (1.0 + visits[s, a, b]) ** -config.omega
        visits[s, a, b] += 1
        res = step_update(q, env, tr, alpha)
        if not np.isfinite(res.target):
            raise FloatingPointError(
                f"non-finite update target at step {t}: check the reward model")
        delta = abs(res.delta)
        if delta > epoch_sup:
            epoch_sup = delta
        if abs(res.target) > diag.max_abs_target:
            diag.max_abs_target = abs(res.target)
        diag.steps_run = t + 1
        if (t + 1) % config.eval_every == 0 or t + 1 == steps:
            dist = ""
            if reference_q is not None:
                seen = visits > 0
                if seen.any():
                    dist = float(np.abs(q[seen] - np.asarray(reference_q)[seen]).max())
            diag.rows.append({
                "step": t + 1,
                "sup_norm_delta": epoch_sup,
                "dist_to_qhat": dist,
                "epsilon": epsilon,
                "seed": config.seed,
            })
            diag.final_sup_delta = epoch_sup
            if config.stop_delta > 0.0 and epoch_sup <= config.stop_delta:
                diag.stopped_early = True
                break
            epoch_sup = 0.0
        s = s2 if (t + 1) % config.episode_len else env.reset()
    return q, diag
