"""Budget-capped play: remaining-intervention counters join the state.

Each player gets a counter of remaining interventions; the counter rides
along in the state, drops by one whenever that player's costly action
executes, and once it hits zero the player's non-null actions are masked
out.  Masking (rather than punishing violations with infinite rewards)
keeps every trajectory feasible by construction.

The budgeted game lives on states ``(s, y, z)``, but its kernel factors
exactly into the base kernel times deterministic counter bookkeeping.  So
the solver and the rollout run on the base game (``solve`` and ``simulate``
with ``caps=(n1, n2)``): one sweep is one matmul of the base kernel against
the ``(S, (n1+1)*(n2+1))`` value grid, then a shift of the acting player's
counter axis.  :class:`AugmentedGame` names their states: a rollout from
base state ``s`` with full counters starts at ``index(s, n1, n2)``.
:func:`augment` is the reference construction: its ``game`` is the dense
model over the product space, which tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .game import ImpulseGame, check_kernel_size
from .solver import MAX_AUGMENTED_CELLS, _layers


@dataclass(frozen=True)
class AugmentedGame:
    """A base game lifted onto states ``(s, y, z)``.

    ``y`` counts Player 1's remaining interventions (``0..n1``), ``z``
    Player 2's.  ``labels[x]`` recovers the triple behind flat index ``x``.
    ``game`` is the materialised dense model over the product space, built
    on first access; nothing else here builds it.
    """

    base: ImpulseGame
    n1: int
    n2: int

    def __post_init__(self):
        _layers(self.base, self.caps)

    @property
    def caps(self) -> tuple[int, int]:
        return self.n1, self.n2

    def index(self, s: int, y: int, z: int) -> int:
        return (s * (self.n1 + 1) + y) * (self.n2 + 1) + z

    @property
    def num_states(self) -> int:
        return self.base.num_states * (self.n1 + 1) * (self.n2 + 1)

    @property
    def labels(self) -> tuple:
        return tuple(product(range(self.base.num_states), range(self.n1 + 1),
                             range(self.n2 + 1)))

    def value_grid(self, value) -> np.ndarray:
        """Reshape a flat augmented field to ``(s, y, z)`` axes."""
        return np.asarray(value).reshape(
            self.base.num_states, self.n1 + 1, self.n2 + 1)

    @cached_property
    def game(self) -> ImpulseGame:
        """The dense budgeted model: transitions are the base kernel times
        deterministic counter bookkeeping; actions that would overdraw a
        counter are masked at those states, so counters never go negative.
        A kernel above ``game.MAX_KERNEL_ENTRIES`` is refused with
        ``ValueError`` before anything is allocated.
        """
        base = self.base
        ns, na, nb = base.num_states, base.num_actions1, base.num_actions2
        ny, nz = self.n1 + 1, self.n2 + 1
        nx = self.num_states
        check_kernel_size(nx, na, nb)
        kernel = np.zeros((nx, na, nb, nx))
        reward = np.empty((nx, na, nb))
        cost1 = np.empty((nx, na))
        cost2 = np.empty((nx, nb))
        mask1 = np.zeros((nx, na), dtype=bool)
        mask2 = np.zeros((nx, nb), dtype=bool)
        rows = np.arange(ns)
        idx = lambda y, z: (rows * ny + y) * nz + z
        for y in range(ny):
            for z in range(nz):
                src = idx(y, z)
                reward[src] = base.reward
                cost1[src] = base.cost1
                cost2[src] = base.cost2
                mask1[src, 0] = True
                mask2[src, 0] = True
                if y > 0:
                    mask1[src, 1:] = base.mask1[:, 1:]
                if z > 0:
                    mask2[src, 1:] = base.mask2[:, 1:]
                for a in range(na):
                    y2 = max(y - 1, 0) if a != 0 else y
                    for b in range(nb):
                        z2 = max(z - 1, 0) if b != 0 else z
                        dst = idx(y2, z2)
                        kernel[src[:, None], a, b, dst[None, :]] = base.kernel[:, a, b, :]
        return ImpulseGame(kernel=kernel, reward=reward, cost1=cost1, cost2=cost2,
                           cost_floor=base.cost_floor, discount=base.discount,
                           mask1=mask1, mask2=mask2)


def augment(base: ImpulseGame, n1: int, n2: int) -> AugmentedGame:
    """The budgeted game as a reference construction.

    Its ``game`` is the dense model over the counter-augmented state space,
    which the factored solver and rollout must agree with.  The library's
    own budgeted paths never build it.
    """
    return AugmentedGame(base, n1, n2)
