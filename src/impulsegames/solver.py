"""Exact solution of costly-action games by nested min/max value iteration.

The one-step operator applied to a value field ``v`` at state ``s`` is

    min( max( best costly Player-1 action, do-nothing continuation ),
         best costly Player-2 action )

where the Player-1 term subtracts its action cost, the Player-2 term adds
its cost, and the do-nothing term is the null-pair reward plus the
discounted expectation of ``v``.  When both players' action conditions
trigger at the same state, only Player 2's action executes, so only the
pairs of :attr:`ImpulseGame.cells` (null, ``(a, 0)``, ``(0, b)``) are read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .game import ImpulseGame

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


def _next_values(v, kernel, caps=None, acts1=(), acts2=()):
    """E[v(next) | cell] for the cells of ``kernel``, axes ``(s, cell..., s')``.

    With ``caps=(n1, n2)``, ``v`` is flat over ``(s, y, z)`` (see
    :meth:`impulsegames.budget.AugmentedGame.index`), the result gains
    trailing axes ``(y, z)``, and the cells ``acts1``/``acts2`` (where Player
    1/2 acts) read their next value one step down that player's counter.
    """
    ns = kernel.shape[-1]
    if caps is None:
        return (kernel.reshape(-1, ns) @ np.asarray(v, dtype=float)).reshape(kernel.shape[:-1])
    ny, nz = caps[0] + 1, caps[1] + 1
    grid = np.asarray(v, dtype=float).reshape(ns, ny * nz)
    ev = (kernel.reshape(-1, ns) @ grid).reshape(kernel.shape[:-1] + (ny, nz))
    ev[acts1] = ev[acts1][..., np.maximum(np.arange(ny) - 1, 0), :]
    ev[acts2] = ev[acts2][..., np.maximum(np.arange(nz) - 1, 0)]
    return ev


def expected_next_values(game: ImpulseGame, v) -> np.ndarray:
    """E[v(s') | s, a, b] for every cell, shape (S, A, B)."""
    return _next_values(v, game.kernel)


def operator_terms(game: ImpulseGame, v, caps=None, *, _rows=None) -> OperatorTerms:
    """The operator's pieces at every state, flat like ``v``, from the net
    reward plus discounted E[v(next)] of each of :attr:`ImpulseGame.cells`.

    ``caps=(n1, n2)`` evaluates them on the budgeted game over states
    ``(s, y, z)`` (see :func:`_next_values`); a spent counter masks its
    player's cells.  ``_rows`` picks base states, for single-state callers.
    """
    kernel, net = game.cells if _rows is None else (x[_rows] for x in game.cells)
    na = game.num_actions1
    ev = _next_values(v, kernel, caps, np.s_[:, 1:na], np.s_[:, na:])
    q = (net if caps is None else net[:, :, None, None]) + game.discount * ev
    if caps is not None:
        q[:, 1:na, 0] = -np.inf
        q[:, na:, :, 0] = np.inf
    noop, p1, p2 = q[:, 0], q[:, 1:na], q[:, na:]
    m1 = p1.max(axis=1, initial=-np.inf)
    m2 = p2.min(axis=1, initial=np.inf)
    none = np.zeros(noop.shape, dtype=int)
    act1 = p1.argmax(axis=1) + 1 if p1.shape[1] else none
    act2 = p2.argmin(axis=1) + 1 if p2.shape[1] else none
    terms = OperatorTerms(noop, m1, act1, m1 > -np.inf, m2, act2, m2 < np.inf)
    return terms if caps is None else OperatorTerms(*(x.ravel() for x in terms))


def max_intervention(game: ImpulseGame, v, s: int) -> InterventionResult:
    """Best immediate costly Player-1 action value at ``s`` (b held null).

    Returns ``(-inf, None)`` when Player 1 has no available non-null action.
    """
    t = operator_terms(game, v, _rows=[s])
    if not t.has1[0]:
        return InterventionResult(-math.inf, None)
    return InterventionResult(float(t.m1[0]), int(t.act1[0]))


def min_intervention(game: ImpulseGame, v, s: int) -> InterventionResult:
    """Best immediate costly Player-2 action value at ``s`` (a held null)."""
    t = operator_terms(game, v, _rows=[s])
    if not t.has2[0]:
        return InterventionResult(math.inf, None)
    return InterventionResult(float(t.m2[0]), int(t.act2[0]))


def noop_continuation(game: ImpulseGame, v) -> np.ndarray:
    """Do-nothing continuation value for every state."""
    kernel, net = game.cells
    return net[:, 0] + game.discount * (kernel[:, 0] @ np.asarray(v, dtype=float))


def _inner(t: OperatorTerms) -> np.ndarray:
    """Player 1's side of the nesting: max(best costly action, do-nothing)."""
    return np.maximum(t.m1, t.noop)


def _combine(t: OperatorTerms) -> np.ndarray:
    """The whole nesting: min(inner, best costly Player-2 action)."""
    return np.minimum(_inner(t), t.m2)


def bellman(game: ImpulseGame, v, caps=None) -> np.ndarray:
    """One application of the value operator.  A gamma-contraction.

    ``caps=(n1, n2)`` applies the budgeted game's operator; see
    :func:`operator_terms`.
    """
    return _combine(operator_terms(game, v, caps))


def q_from_value(game: ImpulseGame, v, caps=None) -> np.ndarray:
    """Cost-exclusive action values: reward plus discounted expectation of v.

    Shape ``(S, A, B)``, or ``(S*(n1+1)*(n2+1), A, B)`` under ``caps``.
    The one reader of the cells where both players act.
    """
    if caps is None:
        return game.reward + game.discount * expected_next_values(game, v)
    ev = _next_values(v, game.kernel, caps, np.s_[:, 1:], np.s_[:, :, 1:])
    q = game.reward[..., None, None] + game.discount * ev
    return q.transpose(0, 3, 4, 1, 2).reshape((-1,) + q.shape[1:3])


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
    p1 = t.m1 > t.noop + TIE_EPS
    p2 = t.m2 < _inner(t) - TIE_EPS
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


def _executed_chain(game: ImpulseGame, pol1, pol2) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows and net rewards of the pairs a deterministic policy pair
    executes, one per state; Player 2's non-null action suppresses Player 1's."""
    ns, na, nb = game.reward.shape
    a = np.asarray(pol1, dtype=int)
    b = np.asarray(pol2, dtype=int)
    if a.shape != (ns,) or b.shape != (ns,):
        raise ValueError(f"policies must have shape ({ns},)")
    for name, xs, n in (("1", a.tolist(), na), ("2", b.tolist(), nb)):
        if not 0 <= min(xs) <= max(xs) < n:  # builtins: cheaper than numpy's on a few states
            raise IndexError(f"policy selects a Player-{name} action outside 0..{n - 1}")
    col = np.where(b, b + (na - 1), a)
    states = np.arange(ns)
    kernel, net = game.cells
    r = net[states, col]
    masked = np.flatnonzero(np.isinf(r))
    if masked.size:
        raise ValueError(f"policy selects a masked action at state {masked[0]}")
    return kernel[states, col], r


def evaluate_policies(game: ImpulseGame, pol1, pol2) -> np.ndarray:
    """Exact value of a fixed deterministic stationary policy pair.

    Player 2's choice suppresses Player 1's at states where both are
    non-null.  Solves the linear system (I - gamma * P) v = r directly.
    """
    p, r = _executed_chain(game, pol1, pol2)
    return np.linalg.solve(np.eye(game.num_states) - game.discount * p, r)


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
