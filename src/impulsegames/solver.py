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
The solver reads the transition only through the game: expectations of a
value field from :meth:`ImpulseGame.expect`, and policy chains from
:meth:`ImpulseGame.chain_rows`; :func:`q_from_value`, the one reader of the
pairs where both players act, takes its expectations from
:meth:`ImpulseGame.expect_pairs`.

The operator is a gamma-contraction with a unique fixed point ``v*``, so any
field ``v`` is certified by its residual alone:
``||v - v*|| <= gamma ||T v - v|| / (1 - gamma)`` for ``T v``, whatever
produced ``v``.  :func:`solve` sweeps, and once the greedy policy stops
changing between sweeps jumps to the exact value of its executed chain
(modified policy iteration, Puterman & Shin 1978; strategy iteration for
stochastic games, Hoffman & Karp 1966), in :func:`_iterate`, the one loop
it shares with :func:`impulsegames.linfa.projected_iteration` and with
:func:`_best_response`, by which :func:`minimax_oracle` certifies a saddle.
Linear solves on policy chains have one home, :func:`_executed_chain` plus
:func:`_chain_values`, shared by that finish and :func:`evaluate_policies`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .game import (ImpulseGame, _count, _finite_table, _index, _plain, _Table, cell_index,
                   to_cells)

TIE_EPS = 1e-10

CERT_TOL = 1e-8

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
    try:
        n1, n2 = caps
    except (TypeError, ValueError):
        raise ValueError(f"caps must be a pair (n1, n2), got {caps!r}") from None
    n1, n2 = _count(n1, "caps"), _count(n2, "caps")
    ny, nz = n1 + 1, n2 + 1
    cells = game.num_states * ny * nz * game.num_actions1 * game.num_actions2
    if cells > MAX_AUGMENTED_CELLS:
        raise ValueError(f"caps ({n1}, {n2}) give an augmented table of {cells} cells, "
                         f"above the limit of {MAX_AUGMENTED_CELLS}")
    return ny, nz, 1


def _field(game: ImpulseGame, v, ny: int = 1, nz: int = 1) -> np.ndarray:
    """``v``, flat over ``(s, y, z)`` on the counter layers of :func:`_layers`,
    as a float grid ``(S, ny, nz)``.  A field that is not one value per
    (augmented) state is refused with ``ValueError`` naming ``v``: the one
    shape check of every entry that takes a value field."""
    v = np.asarray(v, dtype=float)
    size = game.num_states * ny * nz
    if v.shape != (size,):
        raise ValueError(f"v must have shape ({size},), got {v.shape}")
    return v.reshape(-1, ny, nz)


def _next_values(ev, acts1, acts2):
    """E[v(next) | cell] from ``ev``, the expectation of a :func:`_field` grid,
    axes ``(s, cell..., y, z)``: the cells ``acts1``/``acts2`` (where Player
    1/2 acts) read their next value one counter step down, in place.
    """
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
    na = game.num_actions1
    ev = _next_values(game.expect(_field(game, v, ny, nz)), np.s_[:, 1:na], np.s_[:, na:])
    q = game.cells[1][:, :, None, None] + game.discount * ev
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


def _state_terms(game: ImpulseGame, v, s: int) -> OperatorTerms:
    """The operator's pieces at state ``s`` alone, from its row of
    :attr:`ImpulseGame.cells`, ``s`` checked by :func:`impulsegames.game._index`."""
    s = _index(s, "state", game.num_states)
    ev = game.expect(_field(game, v)[:, 0, 0], state=s)
    q = game.cells[1][s] + game.discount * ev
    return _reduce(q[None], game.num_actions1)


def max_intervention(game: ImpulseGame, v, s: int) -> InterventionResult:
    """Best immediate costly Player-1 action value at ``s`` (b held null).

    Returns ``(-inf, None)`` when Player 1 has no available non-null action.
    A state that is not an integer is refused with ``TypeError``, one outside
    ``0 .. S-1`` with ``IndexError``.
    """
    t = _state_terms(game, v, s)
    if not t.has1[0]:
        return InterventionResult(-math.inf, None)
    return InterventionResult(float(t.m1[0]), int(t.act1[0]))


def min_intervention(game: ImpulseGame, v, s: int) -> InterventionResult:
    """Best immediate costly Player-2 action value at ``s`` (a held null).

    Returns ``(inf, None)`` when Player 2 has no available non-null action.
    A state that is not an integer is refused with ``TypeError``, one outside
    ``0 .. S-1`` with ``IndexError``.
    """
    t = _state_terms(game, v, s)
    if not t.has2[0]:
        return InterventionResult(math.inf, None)
    return InterventionResult(float(t.m2[0]), int(t.act2[0]))


def noop_continuation(game: ImpulseGame, v) -> np.ndarray:
    """Do-nothing continuation value for every state."""
    return operator_terms(game, v).noop


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
    The one reader of the pairs where both players act: its expectations
    are :meth:`ImpulseGame.expect_pairs`, one product of each of the game's
    two stored kernel tables, so the full kernel is never assembled.  The
    executable cells' entries come from the same product as the operator's
    (:meth:`ImpulseGame.expect`).
    """
    ny, nz, _ = _layers(game, caps)
    ev = _next_values(game.expect_pairs(_field(game, v, ny, nz)),
                      np.s_[:, 1:], np.s_[:, :, 1:])
    q = game.reward[..., None, None] + game.discount * ev
    return q.transpose(0, 3, 4, 1, 2).reshape((-1,) + q.shape[1:3])


@dataclass(frozen=True)
class EquilibriumPolicy:
    """Per-state greedy actions for both players, 0 where a player does not act.

    Stored as read-only 1-D integer arrays of one length; anything else is
    refused with ``ValueError`` naming the field.  ``p1_acts``/``p2_acts``
    are read off the actions.  Where both players act Player 2 takes
    precedence (:attr:`executed_actions`, the one home of that rule for a
    policy; :meth:`executed_pair` applies it at one state).
    """

    p1_action: np.ndarray
    p2_action: np.ndarray

    def __post_init__(self):
        for name in ("p1_action", "p2_action"):
            x = _whole(getattr(self, name), name)
            if x.ndim != 1:
                raise ValueError(f"{name} must be one action per state, got shape {x.shape}")
            x.setflags(write=False)
            object.__setattr__(self, name, x)
        if len(self.p1_action) != len(self.p2_action):
            raise ValueError(f"p1_action has {len(self.p1_action)} states, "
                             f"p2_action has {len(self.p2_action)}")

    @property
    def p1_acts(self) -> np.ndarray:
        return self.p1_action != 0

    @property
    def p2_acts(self) -> np.ndarray:
        return self.p2_action != 0

    @property
    def region1(self) -> np.ndarray:
        return np.flatnonzero(self.p1_action)

    @property
    def region2(self) -> np.ndarray:
        return np.flatnonzero(self.p2_action)

    def executed_pair(self, s: int) -> tuple[int, int]:
        s = _index(s, "state", len(self.p1_action))
        return (0 if self.p2_action[s] else int(self.p1_action[s])), int(self.p2_action[s])

    @property
    def executed_actions(self) -> tuple[np.ndarray, np.ndarray]:
        """Both players' executed actions at every state, 0 where one does not act."""
        return np.where(self.p2_action != 0, 0, self.p1_action), self.p2_action

    def executed_pairs(self) -> list[tuple[int, int]]:
        """:meth:`executed_pair` at every state, as one plain list."""
        a, b = self.executed_actions
        return list(zip(a.tolist(), b.tolist()))

    def _table(self, labels=None) -> _Table:
        """One row per state: ``state`` (the index, or ``str`` of its entry of
        ``labels``, refused with ``ValueError`` unless one per state), the
        flags, the actions and the executed pair."""
        n = len(self.p1_action)
        if labels is not None and len(labels) != n:
            raise ValueError(f"labels has {len(labels)} entries, the policy has {n} states")
        state = np.arange(n) if labels is None else np.array([str(x) for x in labels], object)
        a, b = self.executed_actions
        return _Table({"state": state, "p1_acts": self.p1_acts, "p1_action": self.p1_action,
                       "p2_acts": self.p2_acts, "p2_action": self.p2_action,
                       "executed_a": a, "executed_b": b})

    def to_records(self, labels=None) -> list[dict]:
        """The policy table as one plain dict per state, as the reports write it."""
        return self._table(labels).tolist()


def extract_policy(game: ImpulseGame, v, caps=None) -> EquilibriumPolicy:
    """Greedy equilibrium policy at a solved value field.

    A player acts only on a strict improvement beyond ``TIE_EPS``; exact
    ties resolve to not acting, since acting costs money for no gain.
    ``caps`` selects the budgeted game, as in :func:`bellman`.
    """
    return _policy(operator_terms(game, v, caps))


def _policy(t: OperatorTerms) -> EquilibriumPolicy:
    """The flag rule of :func:`extract_policy` on the operator's pieces."""
    return EquilibriumPolicy(p1_action=np.where(t.m1 > t.noop + TIE_EPS, t.act1, 0),
                             p2_action=np.where(t.m2 < _inner(t) - TIE_EPS, t.act2, 0))


def read_off(game: ImpulseGame, q) -> tuple[np.ndarray, EquilibriumPolicy]:
    """Greedy value and policy of a cost-exclusive ``(S, A, B)`` table, learned or from
    :func:`q_from_value`: the nesting of :func:`bellman` and the flag rule of
    :func:`extract_policy` on its executable cells plus ``cell_costs``.  A ``q``
    of another shape or with a non-finite entry is refused with ``ValueError``."""
    q = _finite_table(q, "q", (game.num_states, game.num_actions1, game.num_actions2))
    t = _reduce(to_cells(q) + game.cell_costs, game.num_actions1)
    return _combine(t), _policy(t)


class _Settled:
    """The finish rule of :func:`_iterate`, called once per sweep with the
    greedy policy read off that sweep's operator pieces: true when the
    policy executes what the previous sweep's did and has not been finished
    before.  A finish's value depends only on the executed actions it
    evaluates, so a policy that is still changing, or one already tried, is
    not worth a linear solve."""

    def __init__(self):
        self._last = None
        self._tried = set()

    def __call__(self, policy: EquilibriumPolicy) -> bool:
        key = b"".join(a.tobytes() for a in policy.executed_actions)
        take = key == self._last and key not in self._tried
        self._last = key
        if take:
            self._tried.add(key)
        return take


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
            "policy": self.policy._table(labels),
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
    which guarantees a sup-norm error of at most ``tol``, in :func:`_iterate`:
    operator sweeps, and a finish on the exact value of the settled greedy
    policy's executed chain (:func:`_policy_values`).  A report that ran out
    of sweeps comes back flagged ``converged=False``.  With ``caps=(n1, n2)``
    it solves the budgeted game of :mod:`impulsegames.budget` from the base
    game's tables.  A non-positive or NaN ``tol``, a ``max_sweeps`` that is
    not a count, a discount outside [0, 1), bad caps or a ``v0`` that is not
    one finite value per state (per augmented state) are refused with
    ``ValueError`` before any sweep.
    """
    _count(max_sweeps, "max_sweeps")
    g, threshold = game.discount, _threshold(game, tol)
    size = game.num_states * math.prod(_layers(game, caps)[:2])
    v = np.zeros(size) if v0 is None else _finite_table(v0, "v0", (size,))

    def sweep(v):
        t = operator_terms(game, v, caps)
        return _combine(t), t

    v, residuals = _iterate(game, v, sweep, _policy,
                            lambda policy: _policy_values(game, policy, caps),
                            threshold, max_sweeps)
    residual = residuals[-1] if residuals else math.inf
    return SolveReport(
        value=v, q=q_from_value(game, v, caps), policy=extract_policy(game, v, caps),
        sweeps=len(residuals), residual=residual, error_bound=g * residual / (1.0 - g),
        converged=bool(residuals) and residual <= threshold,
    )


def _threshold(game: ImpulseGame, tol: float) -> float:
    """The sweep residual ``tol * (1 - gamma) / gamma`` that puts a fixed point within
    ``tol`` (a ``tol`` that is not positive comes back as given, for :func:`_iterate` to
    refuse); a discount outside [0, 1) raises ``ValueError``."""
    g = game.discount
    if not 0.0 <= g < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {g}")
    return max(tol * (1.0 - g) / g, math.ulp(0.0)) if g > 0 and tol > 0 else tol


def _iterate(game: ImpulseGame, x, sweep, read, evaluate, tol: float, max_iter: int):
    """The fixed-point loop of :func:`solve`, :func:`_best_response` and
    :func:`impulsegames.linfa.projected_iteration`, from ``x``.

    ``sweep(x)`` gives the next iterate and the operator pieces ``read``
    takes a policy from.  Once that policy is settled (:class:`_Settled`),
    the loop sweeps once from its fixed point ``evaluate(policy)`` (unless
    None), counted as one iteration, and keeps the result only when its
    delta is below the sweep's, so convergence rests on the sweeps.  Games
    of more than ``FINISH_MAX_STATES`` base states only sweep.  Stops at a
    delta of at most ``tol`` (positive, else ``ValueError``) or after
    ``max_iter`` iterations.  Returns the last iterate and its deltas.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    finish = game.num_states <= FINISH_MAX_STATES
    settled = _Settled()
    deltas = []
    while len(deltas) < max_iter:
        nx, t = sweep(x)
        delta = float(np.abs(nx - x).max())
        if finish and settled(policy := read(t)):
            w = evaluate(policy)
            if w is not None:
                nw = sweep(w)[0]
                jump = float(np.abs(nw - w).max())
                if jump < delta:
                    nx, delta = nw, jump
        x = nx
        deltas.append(delta)
        if delta <= tol:
            break
    return x, deltas


def _executed_chain(game: ImpulseGame, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows ``(..., S, S)`` and net rewards ``(..., S)`` of the pairs
    deterministic policy pairs ``(..., S)``, integer arrays, execute, one per
    state, from :meth:`ImpulseGame.chain_rows`; leading axes are a batch.
    Player 2's non-null action suppresses Player 1's."""
    ns, na, nb = game.reward.shape
    if a.shape[-1:] != (ns,) or b.shape[-1:] != (ns,):
        raise ValueError(f"policies must have shape ({ns},)")
    for name, x, n in (("1", a, na), ("2", b, nb)):
        if not 0 <= x.min() <= x.max() < n:
            raise IndexError(f"policy selects a Player-{name} action outside 0..{n - 1}")
    p, r = game.chain_rows(cell_index(na, a, b))
    masked = np.argwhere(np.isinf(r))
    if masked.size:
        raise ValueError(f"policy selects a masked action at state {masked[0, -1]}")
    return p, r


def _chain_values(game: ImpulseGame, p, r) -> np.ndarray:
    """Values of discounted chains with kernel rows ``p`` and rewards ``r``:
    one solve of ``(I - gamma p) v = r`` over any leading batch axes.  The
    left side is built in place in ``p``, which the caller hands over and
    must not read again: ``0 - gamma p`` (the bits of ``I - gamma p`` off the
    diagonal, a zero there kept ``+0.0``), then ``+ 1`` on the diagonal."""
    lhs = np.subtract(0.0, np.multiply(p, game.discount, out=p), out=p)
    states = np.arange(p.shape[-1])
    lhs[..., states, states] += 1.0
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
        return _chain_values(game, *_executed_chain(game, *policy.executed_actions))
    a, b = (x.reshape(ns, ny, nz).transpose(1, 2, 0) for x in policy.executed_actions)
    v = np.zeros((ny, nz, ns))
    for d in range(ny + nz - 1):
        diagonal = np.arange(max(0, d - nz + 1), min(d, ny - 1) + 1)
        for k in _batches(len(diagonal), ns):
            y = diagonal[k]
            z = d - y
            p, r = _executed_chain(game, a[y, z], b[y, z])
            acts1, acts2 = a[y, z] != 0, b[y, z] != 0
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


def _best_response(game: ImpulseGame, policy: EquilibriumPolicy, player: int) -> np.ndarray:
    """Exact value of ``player``'s best response to the other's actions in ``policy``, by
    :func:`_iterate` with :func:`_policy_values` as its finish.  Player 1 faces Player 2's
    actions: ``(0, b)`` executes where Player 2 acts, elsewhere ``max(noop, m1)``.  Player
    2 faces Player 1's own actions, not the executed ones (0 wherever Player 2 acts):
    ``min(q of that cell, m2)``."""
    a, b = policy.p1_action, policy.executed_actions[1]
    fixed = a if player == 2 else cell_index(game.num_actions1, 0, b)
    rows, pinned = np.arange(game.num_states), (b != 0) | (player == 2)

    def sweep(v):  # noop is the fixed player's cell; only the responder's executable actions stay
        q = game.cells[1] + game.discount * game.expect(v)
        t = _reduce(q, game.num_actions1)
        t = t._replace(noop=q[rows, fixed], m1=np.where(pinned, -np.inf, t.m1),
                       m2=t.m2 if player == 2 else np.full_like(t.m2, np.inf))
        return _combine(t), t

    def read(t):
        own = _policy(t).executed_actions[player - 1]
        return EquilibriumPolicy(own, b) if player == 1 else EquilibriumPolicy(a, own)

    return _iterate(game, np.zeros(game.num_states), sweep, read,
                    lambda p: _policy_values(game, p), _threshold(game, 1e-10), 100_000)[0]


def minimax_oracle(game: ImpulseGame) -> OracleReport:
    """Saddle check by two exact best responses to the policy of :func:`solve`.

    ``upper`` is Player 1's best-response value against Player 2's actions,
    ``lower`` Player 2's against Player 1's.  Whatever the policy, they bound
    the game's value from above and below at every state (Hoffman & Karp
    1966), so the report is certified, at any state count, when they
    coincide and match the iterative solution within ``CERT_TOL``.
    """
    report = solve(game, tol=1e-10)
    upper, lower = (_best_response(game, report.policy, player) for player in (1, 2))
    vhat = report.value
    certified = bool(np.abs([upper - lower, upper - vhat, lower - vhat]).max() <= CERT_TOL)
    return OracleReport(upper=upper, lower=lower, certified=certified, value=vhat)


def intervention_times(game: ImpulseGame, policy: EquilibriumPolicy,
                       trajectory) -> tuple[list[int], list[int]]:
    """Indices along a state trajectory where each player's action executes.

    Player 2's interventions collect every visit to its region; Player 1's
    only where its own region is visited outside Player 2's (precedence).
    A state that is not a whole number, or a policy whose length is not the
    game's state count, is refused with ``ValueError``.
    """
    a, b = policy.executed_actions
    if len(a) != game.num_states:
        raise ValueError(f"policy has {len(a)} states, the game has {game.num_states}")
    states = _whole(trajectory, "trajectory states")
    outside = (states < 0) | (states >= game.num_states)
    if outside.any():
        raise IndexError(f"trajectory state {states[outside.argmax()]} out of range")
    return np.flatnonzero(a[states]).tolist(), np.flatnonzero(b[states]).tolist()
