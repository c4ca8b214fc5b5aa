"""Exact solution of costly-action games by nested min/max value iteration.

The one-step operator applied to a value field ``v`` at state ``s`` is

    min( max( best costly Player-1 action, do-nothing continuation ),
         best costly Player-2 action )

where the Player-1 term subtracts its action cost, the Player-2 term adds
its cost, and the do-nothing term is the null-pair reward plus the
discounted expectation of ``v``.  When both players' action conditions
trigger at the same state, only Player 2's action executes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .game import ImpulseGame, effective_reward

TIE_EPS = 1e-10

CERT_TOL = 1e-8


class InterventionResult(NamedTuple):
    value: float
    action: Optional[int]


class OperatorTerms(NamedTuple):
    """Per-state pieces of the one-step operator (vectorised over states)."""

    noop: np.ndarray      # do-nothing continuation value
    m1: np.ndarray        # best costly Player-1 action value (-inf if none)
    act1: np.ndarray      # its argmax, lowest index on ties
    has1: np.ndarray      # any non-null Player-1 action available
    m2: np.ndarray        # best costly Player-2 action value (+inf if none)
    act2: np.ndarray
    has2: np.ndarray


def expected_next_values(game: ImpulseGame, v: np.ndarray) -> np.ndarray:
    """E[v(s') | s, a, b] for every cell, shape (S, A, B)."""
    s = game.num_states
    return (game.kernel.reshape(-1, s) @ np.asarray(v, dtype=float)).reshape(game.reward.shape)


class _CounterCells(NamedTuple):
    """The budgeted game's tables on axes ``(s, action..., y, z)``."""

    reward: np.ndarray
    cost1: np.ndarray
    cost2: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray
    discount: float
    num_actions1: int
    num_actions2: int


def _next_values(game: ImpulseGame, v, caps):
    """E[v(next) | cell] on axes ``(S, A, B, ...)``, and the cells' tables.

    Without caps the cells are the game's own.  With ``caps=(n1, n2)``, ``v``
    is flat over ``(s, y, z)``, index ``(s * (n1+1) + y) * (n2+1) + z``, the
    trailing axes are ``(y, z)``, and a costly action moves its player's
    counter down by one.  The base kernel carries ``s``, so one matmul
    against the ``(S, Y*Z)`` value grid plus a shift of the counter axes
    stands in for the augmented kernel.  A spent counter masks its player's
    costly actions.
    """
    if caps is None:
        return expected_next_values(game, v), game
    ns, na, nb = game.reward.shape
    ny, nz = caps[0] + 1, caps[1] + 1
    grid = np.asarray(v, dtype=float).reshape(ns, ny * nz)
    ev = (game.kernel.reshape(-1, ns) @ grid).reshape(ns, na, nb, ny, nz)
    ev[:, 1:] = ev[:, 1:, :, np.maximum(np.arange(ny) - 1, 0)]
    ev[:, :, 1:] = ev[:, :, 1:, :, np.maximum(np.arange(nz) - 1, 0)]
    mask1 = np.broadcast_to(game.mask1[:, :, None, None], (ns, na, ny, nz)).copy()
    mask2 = np.broadcast_to(game.mask2[:, :, None, None], (ns, nb, ny, nz)).copy()
    mask1[:, 1:, 0, :] = False
    mask2[:, 1:, :, 0] = False
    cells = _CounterCells(game.reward[..., None, None], game.cost1[..., None, None],
                          game.cost2[..., None, None], mask1, mask2, game.discount, na, nb)
    return ev, cells


def operator_terms(game: ImpulseGame, v, caps=None) -> OperatorTerms:
    """The operator's pieces at every state, flat like ``v``.

    ``caps=(n1, n2)`` evaluates them on the budgeted game over states
    ``(s, y, z)`` from the base game's tables; see :func:`_next_values`.
    """
    ev, game = _next_values(game, v, caps)
    g = game.discount
    noop = game.reward[:, 0, 0] + g * ev[:, 0, 0]
    if game.num_actions1 > 1:
        cont = game.reward[:, 1:, 0] - game.cost1[:, 1:] + g * ev[:, 1:, 0]
        cont = np.where(game.mask1[:, 1:], cont, -np.inf)
        m1 = cont.max(axis=1)
        act1 = cont.argmax(axis=1) + 1
        has1 = game.mask1[:, 1:].any(axis=1)
    else:
        m1 = np.full(noop.shape, -np.inf)
        act1 = np.zeros(noop.shape, dtype=int)
        has1 = np.zeros(noop.shape, dtype=bool)
    if game.num_actions2 > 1:
        cont = game.reward[:, 0, 1:] + game.cost2[:, 1:] + g * ev[:, 0, 1:]
        cont = np.where(game.mask2[:, 1:], cont, np.inf)
        m2 = cont.min(axis=1)
        act2 = cont.argmin(axis=1) + 1
        has2 = game.mask2[:, 1:].any(axis=1)
    else:
        m2 = np.full(noop.shape, np.inf)
        act2 = np.zeros(noop.shape, dtype=int)
        has2 = np.zeros(noop.shape, dtype=bool)
    terms = OperatorTerms(noop, m1, act1, has1, m2, act2, has2)
    return terms if caps is None else OperatorTerms(*(x.ravel() for x in terms))


def max_intervention(game: ImpulseGame, v, s: int) -> InterventionResult:
    """Best immediate costly Player-1 action value at ``s`` (b held null).

    Returns ``(-inf, None)`` when Player 1 has no available non-null action.
    """
    t = operator_terms(game, v)
    if not t.has1[s]:
        return InterventionResult(-math.inf, None)
    return InterventionResult(float(t.m1[s]), int(t.act1[s]))


def min_intervention(game: ImpulseGame, v, s: int) -> InterventionResult:
    """Best immediate costly Player-2 action value at ``s`` (a held null)."""
    t = operator_terms(game, v)
    if not t.has2[s]:
        return InterventionResult(math.inf, None)
    return InterventionResult(float(t.m2[s]), int(t.act2[s]))


def noop_continuation(game: ImpulseGame, v) -> np.ndarray:
    """Do-nothing continuation value for every state."""
    v = np.asarray(v, dtype=float)
    ev = game.kernel[:, 0, 0, :] @ v
    return game.reward[:, 0, 0] + game.discount * ev


def _inner(t: OperatorTerms) -> np.ndarray:
    """Player 1's side of the nesting: max(best costly action, do-nothing)."""
    return np.where(t.has1, np.maximum(t.m1, t.noop), t.noop)


def _combine(t: OperatorTerms) -> np.ndarray:
    """The whole nesting: min(inner, best costly Player-2 action)."""
    inner = _inner(t)
    return np.where(t.has2, np.minimum(inner, t.m2), inner)


def bellman(game: ImpulseGame, v, caps=None) -> np.ndarray:
    """One application of the value operator.  A gamma-contraction.

    ``caps=(n1, n2)`` applies the budgeted game's operator; see
    :func:`operator_terms`.
    """
    return _combine(operator_terms(game, v, caps))


def q_from_value(game: ImpulseGame, v, caps=None) -> np.ndarray:
    """Cost-exclusive action values: reward plus discounted expectation of v.

    Shape ``(S, A, B)``, or ``(S*(n1+1)*(n2+1), A, B)`` under ``caps``.
    """
    ev, cells = _next_values(game, v, caps)
    q = cells.reward + cells.discount * ev
    return q if caps is None else q.transpose(0, 3, 4, 1, 2).reshape((-1,) + q.shape[1:3])


@dataclass(frozen=True)
class EquilibriumPolicy:
    """Per-state intervention flags and greedy actions for both players.

    Both flags may be raised at a state; at execution time Player 2 takes
    precedence, so Player 1's action only runs where ``p1_acts`` holds and
    ``p2_acts`` does not.
    """

    p1_acts: np.ndarray
    p1_action: np.ndarray
    p2_acts: np.ndarray
    p2_action: np.ndarray

    @property
    def region1(self) -> np.ndarray:
        return np.flatnonzero(self.p1_acts)

    @property
    def region2(self) -> np.ndarray:
        return np.flatnonzero(self.p2_acts)

    def executed_pair(self, s: int) -> tuple[int, int]:
        if self.p2_acts[s]:
            return 0, int(self.p2_action[s])
        if self.p1_acts[s]:
            return int(self.p1_action[s]), 0
        return 0, 0

    def to_records(self, labels=None) -> list[dict]:
        rows = []
        for s in range(len(self.p1_acts)):
            a, b = self.executed_pair(s)
            rows.append({
                "state": str(labels[s]) if labels is not None else s,
                "p1_acts": bool(self.p1_acts[s]),
                "p1_action": int(self.p1_action[s]),
                "p2_acts": bool(self.p2_acts[s]),
                "p2_action": int(self.p2_action[s]),
                "executed_a": a,
                "executed_b": b,
            })
        return rows


def extract_policy(game: ImpulseGame, v, caps=None) -> EquilibriumPolicy:
    """Greedy equilibrium policy at a solved value field.

    A player's flag is raised only on a strict improvement beyond
    ``TIE_EPS``; exact ties resolve to not acting, since acting costs money
    for no gain.  ``caps`` selects the budgeted game, as in :func:`bellman`.
    """
    t = operator_terms(game, v, caps)
    inner = _inner(t)
    p1 = t.has1 & (t.m1 > t.noop + TIE_EPS)
    p2 = t.has2 & (t.m2 < inner - TIE_EPS)
    return EquilibriumPolicy(
        p1_acts=p1, p1_action=np.where(p1, t.act1, 0),
        p2_acts=p2, p2_action=np.where(p2, t.act2, 0),
    )


def _finite_or_none(x: float):
    """JSON has no infinity: a diagnostic that never became finite is null."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class SolveReport:
    value: np.ndarray
    q: np.ndarray
    policy: EquilibriumPolicy
    sweeps: int
    residual: float
    error_bound: float
    converged: bool

    def to_dict(self, labels=None) -> dict:
        return {
            "value": self.value.tolist(),
            "q": self.q.tolist(),
            "policy": self.policy.to_records(labels),
            "sweeps": self.sweeps,
            "residual": _finite_or_none(self.residual),
            "error_bound": _finite_or_none(self.error_bound),
            "converged": self.converged,
        }


def solve(game: ImpulseGame, tol: float = 1e-9, max_sweeps: int = 100_000,
          v0=None, caps=None) -> SolveReport:
    """Iterate the operator to its unique fixed point.

    Stops when the sweep residual drops below ``tol * (1 - gamma) / gamma``,
    which guarantees a sup-norm error of at most ``tol``.  A report that ran
    out of sweeps comes back flagged ``converged=False``.  With
    ``caps=(n1, n2)`` it solves the budgeted game of
    :mod:`impulsegames.budget` from the base game's tables.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = game.discount
    threshold = tol * (1.0 - g) / g if g > 0 else tol
    size = game.num_states if caps is None else game.num_states * (caps[0] + 1) * (caps[1] + 1)
    v = np.zeros(size) if v0 is None else np.array(v0, dtype=float)
    residual = math.inf
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        nv = bellman(game, v, caps)
        residual = float(np.abs(nv - v).max())
        v = nv
        sweeps += 1
        if residual <= threshold:
            converged = True
            break
    error_bound = g * residual / (1.0 - g)
    return SolveReport(
        value=v, q=q_from_value(game, v, caps), policy=extract_policy(game, v, caps),
        sweeps=sweeps, residual=residual, error_bound=error_bound,
        converged=converged,
    )


def evaluate_policies(game: ImpulseGame, pol1, pol2) -> np.ndarray:
    """Exact value of a fixed deterministic stationary policy pair.

    Player 2's choice suppresses Player 1's at states where both are
    non-null.  Solves the linear system (I - gamma * P) v = r directly.
    """
    pol1 = np.asarray(pol1, dtype=int)
    pol2 = np.asarray(pol2, dtype=int)
    ns = game.num_states
    p = np.empty((ns, ns))
    r = np.empty(ns)
    for s in range(ns):
        a, b = (0, int(pol2[s])) if pol2[s] != 0 else (int(pol1[s]), 0)
        if a != 0 and not game.mask1[s, a]:
            raise ValueError(f"policy selects masked Player-1 action {a} at state {s}")
        if b != 0 and not game.mask2[s, b]:
            raise ValueError(f"policy selects masked Player-2 action {b} at state {s}")
        p[s] = game.kernel[s, a, b]
        r[s] = effective_reward(game, s, (a, b))
    return np.linalg.solve(np.eye(ns) - game.discount * p, r)


class EnumerationBudgetError(ValueError):
    """The deterministic policy space is too large to enumerate."""


class OracleReport(NamedTuple):
    upper: np.ndarray
    lower: np.ndarray
    certified: bool
    value: np.ndarray

    def to_dict(self) -> dict:
        return {
            "upper": self.upper.tolist(),
            "lower": self.lower.tolist(),
            "certified": self.certified,
            "value": self.value.tolist(),
        }


def minimax_oracle(game: ImpulseGame, max_enumeration: int = 1_000_000) -> OracleReport:
    """Brute-force saddle check by enumerating deterministic policy pairs.

    Returns the per-state min-max (upper) and max-min (lower) values over
    all deterministic stationary pairs, certified when they coincide and
    match the iterative solution within ``CERT_TOL``.
    """
    allowed1 = [[a for a in range(game.num_actions1) if a == 0 or game.mask1[s, a]]
                for s in range(game.num_states)]
    allowed2 = [[b for b in range(game.num_actions2) if b == 0 or game.mask2[s, b]]
                for s in range(game.num_states)]
    count1 = math.prod(len(ch) for ch in allowed1)
    count2 = math.prod(len(ch) for ch in allowed2)
    if count1 * count2 > max_enumeration:
        raise EnumerationBudgetError(
            f"{count1 * count2} policy pairs exceed the enumeration budget {max_enumeration}")
    pols1 = list(itertools.product(*allowed1))
    pols2 = list(itertools.product(*allowed2))
    values = np.empty((count1, count2, game.num_states))
    for i, p1 in enumerate(pols1):
        for j, p2 in enumerate(pols2):
            values[i, j] = evaluate_policies(game, p1, p2)
    upper = values.max(axis=0).min(axis=0)
    lower = values.min(axis=1).max(axis=0)
    vhat = solve(game, tol=1e-10).value
    certified = bool(
        np.abs(upper - lower).max() <= CERT_TOL
        and np.abs(upper - vhat).max() <= CERT_TOL
        and np.abs(lower - vhat).max() <= CERT_TOL
    )
    return OracleReport(upper=upper, lower=lower, certified=certified, value=vhat)


def intervention_times(game: ImpulseGame, policy: EquilibriumPolicy,
                       trajectory) -> tuple[list[int], list[int]]:
    """Indices along a state trajectory where each player's action executes.

    Player 2's interventions collect every visit to its region; Player 1's
    only where its own region is visited outside Player 2's (precedence).
    """
    taus, rhos = [], []
    for t, s in enumerate(trajectory):
        s = int(s)
        if not (0 <= s < game.num_states):
            raise IndexError(f"trajectory state {s} out of range")
        if policy.p2_acts[s]:
            rhos.append(t)
        elif policy.p1_acts[s]:
            taus.append(t)
    return taus, rhos
