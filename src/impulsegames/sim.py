"""Seeded policy rollouts on the game model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import SamplingEnv
from .game import ImpulseGame
from .solver import EquilibriumPolicy


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

    Player 2's action takes precedence wherever both flags are raised.  Next
    states are drawn through :meth:`SamplingEnv.step` on ``rng``.  An attempt
    to execute a masked action is a hard fault, since a correctly extracted
    policy never selects one.

    With ``caps=(n1, n2)`` the rollout runs on the budgeted game of
    :mod:`impulsegames.budget`: ``start``, the recorded states and the
    policy's index are flat ``(s, y, z)`` indices, the next ``s`` is drawn
    from the base kernel and an executed costly action moves its player's
    counter down by one.  A costly action on a spent counter counts as masked.
    """
    rng = np.random.default_rng(seed) if rng is None else rng
    env = SamplingEnv(game, rng=rng)
    ny, nz, spend = (1, 1, 0) if caps is None else (caps[0] + 1, caps[1] + 1, 1)
    x = int(start)
    states = np.empty(steps + 1, dtype=int)
    acts1 = np.empty(steps, dtype=int)
    acts2 = np.empty(steps, dtype=int)
    rewards = np.empty(steps)
    states[0] = x
    net = game.cells[1].tolist()
    off2 = game.num_actions1 - 1
    g = game.discount
    disc = 1.0
    cumulative = np.empty(steps)
    total = 0.0
    for t in range(steps):
        a, b = policy.executed_pair(x)
        s, yz = divmod(x, ny * nz)
        y, z = divmod(yz, nz)
        if (a != 0 and y < spend) or (b != 0 and z < spend):
            raise RuntimeError(
                f"policy executed a masked action ({a}, {b}) at state {x}")
        nxt, _ = env.step(s, (a, b))
        r = net[s][off2 + b if b else a]
        acts1[t], acts2[t], rewards[t] = a, b, r
        total += disc * r
        cumulative[t] = total
        disc *= g
        y -= spend * (a != 0)
        z -= spend * (b != 0)
        x = (nxt * ny + y) * nz + z
        states[t + 1] = x
    return Trajectory(states=states, actions1=acts1, actions2=acts2,
                      rewards=rewards, cumulative=cumulative)
