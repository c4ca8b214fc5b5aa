"""Seeded policy rollouts on the game model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import SamplingEnv
from .game import ImpulseGame, cell_index
from .solver import EquilibriumPolicy, _layers


@dataclass(frozen=True)
class Trajectory:
    """One rollout: visited states, executed pairs and realised net rewards.

    ``states`` has one more entry than the rest (the landing state is kept).
    ``cumulative`` holds the running discounted return, so its last entry is
    the realised discounted return of the whole rollout.
    """

    states: np.ndarray
    actions1: np.ndarray
    actions2: np.ndarray
    rewards: np.ndarray
    cumulative: np.ndarray

    @property
    def discounted_return(self) -> float:
        return float(self.cumulative[-1]) if len(self.cumulative) else 0.0


def simulate(game: ImpulseGame, policy: EquilibriumPolicy, steps: int,
             seed=0, start: int = 0, rng=None, caps=None) -> Trajectory:
    """Roll the policy forward ``steps`` steps from ``start``.

    Player 2's action takes precedence wherever both flags are raised.  The
    policy's chain is walked by :meth:`SamplingEnv.walk` on ``rng``, one
    uniform per step drawn in blocks.  Reaching a masked action is a hard
    fault (``RuntimeError``), since a correctly extracted policy never
    selects one; the generator may then have advanced to the end of its
    block.

    With ``caps=(n1, n2)`` the rollout runs on the budgeted game of
    :mod:`impulsegames.budget`: ``start``, the recorded states and the
    policy's index are flat ``(s, y, z)`` indices, the next ``s`` is drawn
    from the base kernel and an executed costly action moves its player's
    counter down by one.  A costly action on a spent counter counts as masked.
    Negative ``steps``, bad caps or a policy whose length is not the state
    count raise ``ValueError``; a bad ``start`` or an action outside the
    game's raises ``IndexError``; all before any draw.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    ny, nz, spend = _layers(game, caps)
    layers = ny * nz
    a, b = (x.astype(np.int64) for x in policy.executed_actions)
    if len(a) != game.num_states * layers:
        raise ValueError(f"policy has {len(a)} states, the rollout's game has "
                         f"{game.num_states * layers}")
    if min(a.min(), b.min()) < 0 or a.max() >= game.num_actions1 or b.max() >= game.num_actions2:
        raise IndexError("policy holds an action outside the game's actions")
    y, z = np.divmod(np.arange(len(a)) % layers, nz)
    y, z = y - spend * (a != 0), z - spend * (b != 0)
    cells = cell_index(game.num_actions1, a, b)
    next_layers = np.where((y < 0) | (z < 0), -1, y * nz + z)
    rng = np.random.default_rng(seed) if rng is None else rng
    states = SamplingEnv(game, rng=rng).walk(int(start), cells, next_layers, steps)
    xs = states[:-1]
    disc = np.full(steps, game.discount)
    disc[:1] = 1.0
    rewards = game.cells[1][xs // layers, cells[xs]]
    return Trajectory(states=states, actions1=a[xs], actions2=b[xs], rewards=rewards,
                      cumulative=np.cumsum(np.multiply.accumulate(disc) * rewards))
