"""Seeded policy rollouts on the game model."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .envs import DRAW_BLOCK, SamplingEnv
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

    Player 2's action takes precedence wherever both flags are raised.  Each
    step bisects the executed cell's row of :attr:`SamplingEnv.rows` with one
    uniform, the one :meth:`SamplingEnv.step` would take, but the uniforms are
    drawn ``DRAW_BLOCK`` at a time by ``rng.random(n)``.  Reaching a masked
    action is a hard fault (``RuntimeError``), since a correctly extracted
    policy never selects one; the generator may then have advanced to the end
    of its block.

    With ``caps=(n1, n2)`` the rollout runs on the budgeted game of
    :mod:`impulsegames.budget`: ``start``, the recorded states and the
    policy's index are flat ``(s, y, z)`` indices (see
    :meth:`AugmentedGame.index`), the next ``s`` is drawn from the base
    kernel and an executed costly action moves its player's counter down by
    one.  A costly action on a spent counter counts as masked, so a rollout
    never overdraws a cap.  Negative ``steps``, bad caps or a policy whose
    length is not the state count raise ``ValueError``; a bad ``start`` or an
    action outside the game's raises ``IndexError``; all before any draw.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    ny, nz, spend = _layers(game, caps)
    layers = ny * nz
    size = game.num_states * layers
    a, b = (x.astype(np.int64) for x in policy.executed_actions)
    if len(a) != size:
        raise ValueError(f"policy has {len(a)} states, the rollout's game has {size}")
    if min(a.min(), b.min()) < 0 or a.max() >= game.num_actions1 or b.max() >= game.num_actions2:
        raise IndexError("policy holds an action outside the game's actions")
    start = int(start)
    if not 0 <= start < size:
        raise IndexError(f"start state {start} outside 0..{size - 1}")
    base, layer = np.divmod(np.arange(size), layers)
    y, z = np.divmod(layer, nz)
    y, z = y - spend * (a != 0), z - spend * (b != 0)
    cells = cell_index(game.num_actions1, a, b)
    rng = np.random.default_rng(seed) if rng is None else rng
    # The plan at chain state x = s * L + l: the executed cell's row and the
    # next layer, or None where the cell is masked or its counter spent.
    rows = SamplingEnv(game, rng=rng).rows
    ok = np.isfinite(game.cell_costs)[base, cells] & (y >= 0) & (z >= 0)
    plan = [(rows[s][c][0], nl) if k else None for s, c, nl, k in
            zip(base.tolist(), cells.tolist(), (y * nz + z).tolist(), ok.tolist())]
    states = np.empty(steps + 1, dtype=np.int64)
    states[0] = x = start
    for lo in range(0, steps, DRAW_BLOCK):
        block = rng.random(min(DRAW_BLOCK, steps - lo)).tolist()
        for i, u in enumerate(block):
            entry = plan[x]
            if entry is None:
                raise RuntimeError(f"masked cell {cells[x]} reached at state {x}")
            x = block[i] = bisect_right(entry[0], u) * layers + entry[1]
        states[lo + 1:lo + 1 + len(block)] = block
    xs = states[:-1]
    disc = np.full(steps, game.discount)
    disc[:1] = 1.0
    rewards = game.cells[1][xs // layers, cells[xs]]
    return Trajectory(states=states, actions1=a[xs], actions2=b[xs], rewards=rewards,
                      cumulative=np.cumsum(np.multiply.accumulate(disc) * rewards))
