"""Exact solution of costly-action games: nested min/max value iteration
with a certified linear-solve finish.

The one-step operator applied to a value field ``v`` at state ``s`` is

    min( max( best costly Player-1 action, do-nothing continuation ),
         best costly Player-2 action )

where the Player-1 term subtracts its action cost, the Player-2 term adds
its cost, and the do-nothing term is the null-pair reward plus the
discounted expectation of ``v``.  When both players' action conditions
trigger at the same state, only Player 2's action executes, so only the
pairs of :attr:`ImpulseGame.cells` (null, ``(a, 0)``, ``(0, b)``) are read.

The operator is a gamma-contraction with a unique fixed point ``v*``, so any
field ``v`` is certified by its residual alone:
``||v - v*|| <= gamma ||T v - v|| / (1 - gamma)`` for ``T v``, whatever
produced ``v``.  :func:`solve` sweeps, and every :data:`FINISH_EVERY` sweeps
jumps to the exact value of the greedy policy's executed chain (modified
policy iteration, Puterman & Shin 1978; strategy iteration for stochastic
games, Hoffman & Karp 1966).  Linear solves on policy chains have one home,
:func:`_executed_chain` plus :func:`_chain_values`, shared by that finish,
:func:`evaluate_policies` and :func:`minimax_oracle`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .game import ImpulseGame, _plain, cell_index, to_cells

TIE_EPS = 1e-10

CERT_TOL = 1e-8

# `solve` tries its exact finish after every this many sweeps.
FINISH_EVERY = 10

# Largest base state count S that gets the finish; its solves are S x S,
# under caps too.  Above it the finish saves little time on games with few
# actions and adds three S x S arrays to peak memory.
FINISH_MAX_STATES = 2000

# Bytes of stacked chain kernels (S x S each) one solve takes at once; the
# solve holds a few arrays of this size.
CHAIN_BATCH_BYTES = 16 * 2**20

# Largest augmented action table S*(n1+1)*(n2+1)*A*B that caps may give: the
# solver holds a few float arrays of this size (80 MB each at the limit).
MAX_AUGMENTED_CELLS = 10_000_000


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


def _layers(game: ImpulseGame, caps) -> tuple[int, int, int]:
    """Counter layers ``(n1 + 1, n2 + 1, 1)`` of ``caps=(n1, n2)``, or ``(1, 1, 0)``
    (one layer that never spends) for ``None``; bad caps raise ``ValueError``."""
    if caps is None:
        return 1, 1, 0
    n1, n2 = caps
    if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in (n1, n2)):
        raise ValueError(f"caps must be nonnegative integers, got ({n1!r}, {n2!r})")
    ny, nz = int(n1) + 1, int(n2) + 1
    cells = game.num_states * ny * nz * game.num_actions1 * game.num_actions2
    if cells > MAX_AUGMENTED_CELLS:
        raise ValueError(f"caps ({n1}, {n2}) give an augmented table of {cells} cells, "
                         f"above the limit of {MAX_AUGMENTED_CELLS}")
    return ny, nz, 1


def _next_values(v, kernel, ny, nz, acts1, acts2):
    """E[v(next) | cell] for the cells of ``kernel``, axes ``(s, cell..., s')``.

    ``v`` is flat over ``(s, y, z)`` on the counter layers of :func:`_layers`,
    the result gains trailing axes ``(y, z)``, and the cells ``acts1``/``acts2``
    (where Player 1/2 acts) read their next value one counter step down.
    """
    ns = kernel.shape[-1]
    grid = np.asarray(v, dtype=float).reshape(ns, ny * nz)
    ev = (kernel.reshape(-1, ns) @ grid).reshape(kernel.shape[:-1] + (ny, nz))
    ev1, ev2 = ev[acts1], ev[acts2]  # views; numpy buffers the overlapping copies
    ev1[..., 1:, :] = ev1[..., :-1, :]
    ev2[..., 1:] = ev2[..., :-1]
    return ev


def operator_terms(game: ImpulseGame, v, caps=None) -> OperatorTerms:
    """The operator's pieces at every state, flat like ``v``, from the net
    reward plus discounted E[v(next)] of each of :attr:`ImpulseGame.cells`.

    ``caps=(n1, n2)`` evaluates them on the budgeted game over states
    ``(s, y, z)`` (see :func:`_next_values`), where a spent counter masks its
    player's cells; no caps is its one-layer case.
    """
    ny, nz, spend = _layers(game, caps)
    kernel, net = game.cells
    na = game.num_actions1
    ev = _next_values(v, kernel, ny, nz, np.s_[:, 1:na], np.s_[:, na:])
    q = net[:, :, None, None] + game.discount * ev
    if spend:
        q[:, 1:na, 0] = -np.inf
        q[:, na:, :, 0] = np.inf
    return OperatorTerms(*(x.ravel() for x in _reduce(q, na)))


def _reduce(q, na: int) -> OperatorTerms:
    """The operator's pieces from net values ``q`` of :attr:`ImpulseGame.cells` (axis 1)."""
    noop, p1, p2 = q[:, 0], q[:, 1:na], q[:, na:]
    m1 = p1.max(axis=1, initial=-np.inf)
    m2 = p2.min(axis=1, initial=np.inf)
    none = np.zeros(noop.shape, dtype=int)
    act1 = p1.argmax(axis=1) + 1 if p1.shape[1] else none
    act2 = p2.argmin(axis=1) + 1 if p2.shape[1] else none
    return OperatorTerms(noop, m1, act1, m1 > -np.inf, m2, act2, m2 < np.inf)


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
    ny, nz, _ = _layers(game, caps)
    ev = _next_values(v, game.kernel, ny, nz, np.s_[:, 1:], np.s_[:, :, 1:])
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

    @property
    def executed_actions(self) -> tuple[np.ndarray, np.ndarray]:
        """Both players' executed actions at every state, 0 where one does not act."""
        return (np.where(self.p1_acts & ~self.p2_acts, self.p1_action, 0),
                np.where(self.p2_acts, self.p2_action, 0))

    def executed_pairs(self) -> list[tuple[int, int]]:
        """:meth:`executed_pair` at every state, as one plain list."""
        a, b = self.executed_actions
        return list(zip(a.tolist(), b.tolist()))

    def to_records(self, labels=None) -> list[dict]:
        rows = []
        for s, (a, b) in enumerate(self.executed_pairs()):
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
    return _policy(operator_terms(game, v, caps))


def _policy(t: OperatorTerms) -> EquilibriumPolicy:
    """The flag rule of :func:`extract_policy` on the operator's pieces."""
    p1 = t.m1 > t.noop + TIE_EPS
    p2 = t.m2 < _inner(t) - TIE_EPS
    return EquilibriumPolicy(
        p1_acts=p1, p1_action=np.where(p1, t.act1, 0),
        p2_acts=p2, p2_action=np.where(p2, t.act2, 0),
    )


def read_off(game: ImpulseGame, q) -> tuple[np.ndarray, EquilibriumPolicy]:
    """Greedy value and policy of a cost-exclusive ``(S, A, B)`` table, learned or from
    :func:`q_from_value`: the nesting of :func:`bellman` and the flag rule of
    :func:`extract_policy` on its executable cells plus ``cell_costs``."""
    t = _reduce(to_cells(np.asarray(q, dtype=float)) + game.cell_costs, game.num_actions1)
    return _combine(t), _policy(t)


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

    def _doc(self, labels=None) -> dict:
        """The report document with its tables as arrays, for
        :func:`impulsegames.game._write_json`."""
        return {
            "value": self.value,
            "q": self.q,
            "policy": self.policy.to_records(labels),
            "sweeps": self.sweeps,
            "residual": _finite_or_none(self.residual),
            "error_bound": _finite_or_none(self.error_bound),
            "converged": self.converged,
        }

    def to_dict(self, labels=None) -> dict:
        """The report as plain lists and scalars; the ``solve`` and ``budget``
        subcommands write the same document, byte for byte as ``json.dump``
        with sorted keys and indent 2.  ``labels`` name the policy's states."""
        return _plain(self._doc(labels))


def solve(game: ImpulseGame, tol: float = 1e-9, max_sweeps: int = 100_000,
          v0=None, caps=None) -> SolveReport:
    """Iterate the operator to its unique fixed point.

    Stops when the sweep residual drops below ``tol * (1 - gamma) / gamma``,
    which guarantees a sup-norm error of at most ``tol``.  Every
    ``FINISH_EVERY`` sweeps it evaluates the greedy policy's executed chain
    exactly and applies one sweep to that value (the finish, which counts as
    a sweep); the result replaces the iterate only when its residual is
    smaller, so the residual never grows and convergence rests on the sweeps.
    Games with more than ``FINISH_MAX_STATES`` base states only sweep.  A
    report that ran out of sweeps comes back flagged ``converged=False``.  With
    ``caps=(n1, n2)`` it solves the budgeted game of
    :mod:`impulsegames.budget` from the base game's tables.  A non-positive
    or NaN ``tol``, a negative ``max_sweeps``, a discount outside [0, 1), bad
    caps or a ``v0`` that is not one finite value per state (per augmented
    state under caps) are refused with ``ValueError`` before any sweep.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be non-negative, got {max_sweeps}")
    g = game.discount
    if not 0.0 <= g < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {g}")
    threshold = tol * (1.0 - g) / g if g > 0 else tol
    size = game.num_states * math.prod(_layers(game, caps)[:2])
    finish = game.num_states <= FINISH_MAX_STATES
    v = np.zeros(size) if v0 is None else np.array(v0, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"v0 must hold {size} values, one per state, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("v0 must be finite")
    residual = math.inf
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        if finish and sweeps and sweeps % FINISH_EVERY == 0:
            # The finish's sweep follows a jump, so it bypasses `bellman`,
            # which sees only the contraction steps.
            w = _policy_values(game, extract_policy(game, v, caps), caps)
            nw = _combine(operator_terms(game, w, caps))
            sweeps += 1
            jump = float(np.abs(nw - w).max())
            if not jump < residual:
                continue
            v, residual = nw, jump
        else:
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
    """Kernel rows ``(..., S, S)`` and net rewards ``(..., S)`` of the pairs
    deterministic policy pairs ``(..., S)`` execute, one per state; leading
    axes are a batch.  Player 2's non-null action suppresses Player 1's."""
    ns, na, nb = game.reward.shape
    a = np.asarray(pol1, dtype=int)
    b = np.asarray(pol2, dtype=int)
    if a.shape[-1:] != (ns,) or b.shape[-1:] != (ns,):
        raise ValueError(f"policies must have shape ({ns},)")
    for name, x, n in (("1", a, na), ("2", b, nb)):
        if not 0 <= x.min() <= x.max() < n:
            raise IndexError(f"policy selects a Player-{name} action outside 0..{n - 1}")
    col = cell_index(na, a, b)
    states = np.arange(ns)
    kernel, net = game.cells
    r = net[states, col]
    masked = np.argwhere(np.isinf(r))
    if masked.size:
        raise ValueError(f"policy selects a masked action at state {masked[0, -1]}")
    return kernel[states, col], r


def _chain_values(game: ImpulseGame, p, r) -> np.ndarray:
    """Values of discounted chains with kernel rows ``p`` and rewards ``r``:
    one solve of ``(I - gamma p) v = r`` over any leading batch axes."""
    lhs = np.eye(p.shape[-1]) - game.discount * p
    return np.linalg.solve(lhs, r[..., None])[..., 0]


def _batches(n: int, ns: int):
    """Index runs over ``range(n)``, each holding at most
    ``CHAIN_BATCH_BYTES`` of stacked S x S chain kernels."""
    step = max(1, CHAIN_BATCH_BYTES // (8 * ns * ns))
    return (np.arange(lo, min(lo + step, n)) for lo in range(0, n, step))


def _policy_values(game: ImpulseGame, policy: EquilibriumPolicy, caps=None) -> np.ndarray:
    """Exact value of the chain ``policy`` executes, flat like ``solve``'s.

    Under ``caps`` an executed action moves its player's counter down, so the
    chain is block-triangular over counter layers ``(y, z)``: the layers of
    one diagonal ``y + z`` take stacked S x S solves (see :func:`_batches`),
    lower diagonals first, and nothing is solved over the whole augmented
    space.
    """
    ns, (ny, nz, spend) = game.num_states, _layers(game, caps)
    if not spend:
        return _chain_values(game, *_executed_chain(game, policy.p1_action, policy.p2_action))
    a, b = (x.reshape(ns, ny, nz).transpose(1, 2, 0)
            for x in (policy.p1_action, policy.p2_action))
    v = np.zeros((ny, nz, ns))
    for d in range(ny + nz - 1):
        diagonal = np.arange(max(0, d - nz + 1), min(d, ny - 1) + 1)
        for k in _batches(len(diagonal), ns):
            y = diagonal[k]
            z = d - y
            p, r = _executed_chain(game, a[y, z], b[y, z])
            acts2 = b[y, z] > 0
            acts1 = (a[y, z] > 0) & ~acts2
            below = p @ np.stack([v[np.maximum(y - 1, 0), z], v[y, np.maximum(z - 1, 0)]], axis=-1)
            r = r + game.discount * np.where(acts1, below[..., 0],
                                             np.where(acts2, below[..., 1], 0.0))
            v[y, z] = _chain_values(game, p * ~(acts1 | acts2)[..., None], r)
    return v.transpose(2, 0, 1).ravel()


def _whole(x, what: str) -> np.ndarray:
    """``x`` as integers; an entry that is not a whole number is refused with
    ``ValueError`` naming ``what``, where ``astype(int)`` would truncate it."""
    raw = np.asarray(x, dtype=float)
    if not (np.isfinite(raw) & (np.floor(raw) == raw)).all():
        raise ValueError(f"{what} must be integers")
    return raw.astype(int)


def evaluate_policies(game: ImpulseGame, pol1, pol2) -> np.ndarray:
    """Exact value of a fixed deterministic stationary policy pair.

    Player 2's choice suppresses Player 1's at states where both are
    non-null.  Solves the linear system (I - gamma * P) v = r directly.  An
    entry that is not a whole number is refused with ``ValueError``.
    """
    ns = game.num_states
    if np.shape(pol1) != (ns,) or np.shape(pol2) != (ns,):
        raise ValueError(f"policies must have shape ({ns},)")
    pol1, pol2 = (_whole(pol, "policy actions") for pol in (pol1, pol2))
    return _chain_values(game, *_executed_chain(game, pol1, pol2))


class EnumerationBudgetError(ValueError):
    """The deterministic policy space is too large to enumerate."""


class OracleReport(NamedTuple):
    upper: np.ndarray
    lower: np.ndarray
    certified: bool
    value: np.ndarray

    def _doc(self) -> dict:
        """The report document with its fields as arrays, for
        :func:`impulsegames.game._write_json`."""
        return {"upper": self.upper, "lower": self.lower, "certified": self.certified,
                "value": self.value}

    def to_dict(self) -> dict:
        """The report as plain lists and scalars, as the ``oracle`` subcommand
        writes it."""
        return _plain(self._doc())


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
    pols1 = np.array(list(itertools.product(*allowed1)))
    pols2 = np.array(list(itertools.product(*allowed2)))
    ns, pairs = game.num_states, count1 * count2
    values = np.empty((pairs, ns))
    for k in _batches(pairs, ns):
        values[k] = _chain_values(game, *_executed_chain(game, pols1[k // count2],
                                                         pols2[k % count2]))
    values = values.reshape(count1, count2, ns)
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
    A state that is not a whole number is refused with ``ValueError``.
    """
    states = _whole(trajectory, "trajectory states")
    outside = (states < 0) | (states >= game.num_states)
    if outside.any():
        raise IndexError(f"trajectory state {states[outside.argmax()]} out of range")
    p2 = policy.p2_acts[states]
    p1 = policy.p1_acts[states] & ~p2
    return np.flatnonzero(p1).tolist(), np.flatnonzero(p2).tolist()
