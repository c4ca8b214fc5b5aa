"""Model-free learning of the game's action values by simulated play.

Each step executes exactly one of: a costly Player-1 action, a costly
Player-2 action (precedence when both trigger), or the null pair, and updates
only the executed cell toward a sampled one-step bootstrap target on the raw
(cost-exclusive) reward.  The learner keeps one raw and one net value (plus
the game's ``cell_costs``) per executable cell, as cells of
``ImpulseGame.cells``, reads the net values through the greedy combinator,
and returns ``Q[s, a, b]``; actions pass to :meth:`SamplingEnv.step` as cells.
It explores by :func:`_explore`; :func:`impulsegames.solver.read_off` reads
the value and policy off a learned table.  The ``LEARN_*`` constants fix the rest of its schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .game import ImpulseGame, _write_csv, to_cells
from .envs import BlockDraws, SamplingEnv
from .solver import TIE_EPS


# The exploration rate at the end of the step budget (a lower start is kept), and the
# steps per diagnostics row.
LEARN_EPSILON_END = 0.01
LEARN_EVAL_EVERY = 1000


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of a learning run.

    Step sizes are per-cell ``1 / (1 + visits)**omega`` with
    ``omega in (0.5, 1]`` so they are square-summable but not summable.
    Exploration decays linearly from ``epsilon_start`` to
    ``LEARN_EPSILON_END`` over the step budget; a start below that stays
    constant, so ``epsilon_start=0`` is greedy.  An episode restarts from a
    uniform state every ``episode_len`` steps.
    """

    steps: int
    epsilon_start: float = 0.2
    omega: float = 0.85
    seed: int = 0
    episode_len: int = 100

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if not (0.5 < self.omega <= 1.0):
            raise ValueError("omega must lie in (0.5, 1]")
        if not 0.0 <= self.epsilon_start <= 1.0:
            raise ValueError("epsilon_start must lie in [0, 1]")
        if self.episode_len <= 0:
            raise ValueError("episode_len must be positive")


def _greedy(row, na: int) -> tuple[float, int]:
    """Greedy value at one state and the cell it executes, by the rule of
    ``solver._reduce`` and ``extract_policy``, from a plain list of the
    state's net values in the layout of ``ImpulseGame.cells``."""
    # `solver.read_off` on Python floats: a vectorised call on one row costs more per step.
    noop = row[0]
    best1, i = -math.inf, 0
    for c in range(1, na):
        if row[c] > best1:
            best1, i = row[c], c
    inner = best1 if best1 > noop else noop
    best2, j = math.inf, 0
    for c in range(na, len(row)):
        if row[c] < best2:
            best2, j = row[c], c
    out = best2 if best2 < inner else inner
    if best2 < inner - TIE_EPS:
        return out, j
    return out, i if best1 > noop + TIE_EPS else 0


def _slots(cost_rows, na: int) -> list[list[list[int]]]:
    """Per state, the exploration slots: the no-op slot (an empty list), then
    the available costly cells of Player 1 and of Player 2, each side only
    when it has one.  ``cost_rows`` are ``cell_costs`` rows as lists; a cell
    is available where its entry is finite."""
    slots = []
    for row in cost_rows:
        p1 = [c for c in range(1, na) if math.isfinite(row[c])]
        p2 = [c for c in range(na, len(row)) if math.isfinite(row[c])]
        slots.append([[], *(side for side in (p1, p2) if side)])
    return slots


def _explore(slots, rng) -> int:
    """One exploration draw from a state's :func:`_slots`: a uniform slot, then
    a cell in it (0 for the no-op slot)."""
    side = slots[rng.integers(len(slots))]
    return side[rng.integers(len(side))] if side else 0


@dataclass
class LearnDiagnostics:
    """Learning-run telemetry: a row per ``LEARN_EVAL_EVERY`` steps and at the
    last step, the ``(S, A, B)`` visit counts and summary counters."""

    rows: list = field(default_factory=list)
    visits: Optional[np.ndarray] = None
    steps_run: int = 0
    final_sup_delta: float = 0.0

    def to_csv(self, path) -> None:
        """Write the rows, one column per key, as ``csv.DictWriter`` would."""
        header = ["step", "sup_norm_delta", "dist_to_qhat", "epsilon", "seed"]
        _write_csv(path, header, [np.array([row[key] for row in self.rows]) for key in header])


def learn(game: ImpulseGame, config: LearnConfig, q0=None,
          reference_q=None) -> tuple[np.ndarray, LearnDiagnostics]:
    """Run the simulated-play learner for the configured step budget.

    The learner reads only the game's static knowledge (action counts,
    discount and ``cell_costs``); transitions and raw rewards are reached
    only by sampling through :meth:`SamplingEnv.step`, so the learning stays
    model-free.  Every draw (reset state, exploration coin, slot and action,
    next-state uniform) comes from one :class:`BlockDraws` of ``config.seed``:
    the scalar draws of ``np.random.default_rng(config.seed)``, bit for bit,
    read from raw words fetched in blocks.  The table and visit counts
    come back as ``(S, A, B)`` arrays, where cells in which both players act
    keep their ``q0`` value.  When ``reference_q`` is given, the diagnostics
    track the sup-norm distance to it over the cells executed so far.
    """
    draws = BlockDraws(config.seed)
    env = SamplingEnv(game, rng=draws)
    ns, na, nb = game.num_states, game.num_actions1, game.num_actions2
    q = np.zeros((ns, na, nb)) if q0 is None else np.array(q0, dtype=float)
    if q.shape != (ns, na, nb):
        raise ValueError(f"q0 must have shape {(ns, na, nb)}")
    steps = config.steps
    diag = LearnDiagnostics(visits=np.zeros(q.shape, dtype=np.int64), steps_run=steps)
    cells = to_cells(q)
    table, nets = cells.tolist(), (cells + game.cell_costs).tolist()
    counts = [[0] * len(row) for row in table]
    costs = game.cell_costs.tolist()
    slots = _slots(costs, na)
    # Each state's read-off; only the row a step updates is read off again.
    best = [_greedy(net, na) for net in nets]
    ref = None if reference_q is None else to_cells(np.asarray(reference_q))
    eps0 = config.epsilon_start
    eps_span = min(eps0, LEARN_EPSILON_END) - eps0
    coin, step, gamma, neg_omega = draws.random, env.step, game.discount, -config.omega
    isfinite = math.isfinite
    eval_every, episode_len = LEARN_EVAL_EVERY, config.episode_len
    s = env.reset()
    epoch_sup = 0.0
    for t in range(steps):
        epsilon = eps0 + eps_span * (t / steps)
        c = _explore(slots[s], draws) if epsilon > 0.0 and coin() < epsilon else best[s][1]
        s2, raw = step(s, c)
        row_counts, row = counts[s], table[s]
        row_counts[c] += 1
        alpha = row_counts[c] ** neg_omega
        target = raw + gamma * best[s2][0]
        if not isfinite(target):
            raise FloatingPointError(
                f"non-finite update target at step {t}: check the reward model")
        delta = alpha * (target - row[c])
        row[c] += delta
        nets[s][c] = row[c] + costs[s][c]
        best[s] = _greedy(nets[s], na)
        if abs(delta) > epoch_sup:
            epoch_sup = abs(delta)
        done = t + 1
        if done % eval_every == 0 or done == steps:
            dist = ""
            if ref is not None:
                seen = np.array(counts) > 0
                if seen.any():
                    dist = float(np.abs(np.array(table)[seen] - ref[seen]).max())
            diag.rows.append({
                "step": done,
                "sup_norm_delta": epoch_sup,
                "dist_to_qhat": dist,
                "epsilon": epsilon,
                "seed": config.seed,
            })
            diag.final_sup_delta = epoch_sup
            epoch_sup = 0.0
        s = s2 if done % episode_len else env.reset()
    table, counts = np.array(table), np.array(counts, dtype=np.int64)
    q[:, :, 0], q[:, 0, 1:] = table[:, :na], table[:, na:]
    diag.visits[:, :, 0], diag.visits[:, 0, 1:] = counts[:, :na], counts[:, na:]
    return q, diag
