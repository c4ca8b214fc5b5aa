"""Linear value-field approximation: weighted projection, the one-step
operator on feature-parameterised fields, projected fixed points, a sampled
weight-space iteration, and the approximation-error bound check.

Two nestings of the operator are kept side by side behind a ``combinator``
switch: ``"T"`` is min-outside (the solver's own nesting, so its fixed point
is the game value) and ``"F"`` is the flipped max-outside form.  Both are
gamma-contractions; they differ in which player the middle do-nothing term
shelters.  The sampled fit evaluates them at the visited state only, from
the expectation of ``Phi`` under every cell, built once per fit by
:meth:`impulsegames.game.ImpulseGame.expect`; its behaviour trajectory
takes the learner's exploration draw (:func:`impulsegames.qlearn._explore`)
and the game's sampler, :attr:`impulsegames.game.ImpulseGame.sampler_rows`.
Policy chains come from :meth:`impulsegames.game.ImpulseGame.chain_rows`
through :func:`impulsegames.solver._executed_chain`, so the module reads no
kernel itself.

The weighted projection is factored once per basis and weights
(:func:`_projector`).  :func:`projected_iteration` runs the fixed-point loop
of :func:`impulsegames.solver.solve`, :func:`impulsegames.solver._iterate`,
on the projected problem: its sweep is a projected sweep, and its finish
solves the projected policy-evaluation equation of the chain of the cells
the selected nesting picks (:func:`_finish`; LSTD, Bradtke & Barto 1996; as
in least-squares policy iteration for zero-sum Markov games, Lagoudakis &
Parr 2002).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .envs import BlockDraws
from .game import ImpulseGame, _count, _finite_table, cell_index
from .qlearn import _explore, _greedy, _slots
from .solver import (EquilibriumPolicy, _combine, _executed_chain, _iterate, _policy, _reduce,
                     extract_policy, operator_terms, solve)

RANK_TOL = 1e-10

BOUND_SLACK = 1e-8

COMBINATORS = ("F", "T")

# fit's exploration share, step size exponent, samples per episode and per policy refresh.
FIT_EPSILON = 0.2
FIT_STEP_POWER = 0.85
FIT_EPISODE_LEN = 100
FIT_EPOCH = 1000

STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITER = 200_000
PROJECTED_MAX_ITER = 100_000


@dataclass(frozen=True)
class FeatureBasis:
    """A (states x features) matrix of linearly independent columns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("basis must be a 2-D (states x features) matrix")
        if m.shape[1] < 1:
            raise ValueError("basis must have at least one feature column")
        if m.shape[1] > m.shape[0]:
            raise ValueError("more features than states: columns cannot be independent")
        if not np.isfinite(m).all():
            raise ValueError("basis must be finite")
        sv = np.linalg.svd(m, compute_uv=False)
        if sv.min() <= RANK_TOL * max(1.0, sv.max()):
            raise ValueError("basis columns are not linearly independent")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_features(self) -> int:
        return self.matrix.shape[1]

    def field(self, r) -> np.ndarray:
        return self.matrix @ np.asarray(r, dtype=float)


def _check_basis(game: ImpulseGame, basis: FeatureBasis) -> None:
    """Refuse, with ``ValueError``, a basis whose state count is not the game's:
    the one check of every entry that takes a game and a basis."""
    if basis.num_states != game.num_states:
        raise ValueError(f"basis has {basis.num_states} states, the game has {game.num_states}")


def identity_basis(num_states: int) -> FeatureBasis:
    return FeatureBasis(np.eye(num_states))


def constant_basis(num_states: int) -> FeatureBasis:
    return FeatureBasis(np.ones((num_states, 1)))


def _check_weights(weights, num_states: int) -> np.ndarray:
    """``weights`` by :func:`impulsegames.game._finite_table`, and positive."""
    w = _finite_table(weights, "weights", (num_states,))
    if not (w > 0).all():
        raise ValueError("state weights must be strictly positive")
    return w


def weighted_norm(weights, x) -> float:
    x = np.asarray(x, dtype=float)
    w = _check_weights(weights, len(x))
    return math.sqrt(float(w @ (x * x)) / w.sum())


def _projector(basis: FeatureBasis, weights) -> np.ndarray:
    """The (features x states) matrix ``M`` whose product with a target gives
    its weighted least-squares coefficients: ``M = R^-1 Q^T diag(sqrt w)``
    from a QR factoring of ``diag(sqrt w) Phi``.  ``M`` also equals
    ``(Phi^T D Phi)^-1 Phi^T D`` with ``D = diag(w)``."""
    w = _check_weights(weights, basis.num_states)
    sq = np.sqrt(w / w.sum())
    q, upper = np.linalg.qr(basis.matrix * sq[:, None])
    return np.linalg.solve(upper, q.T) * sq


def projection_weights(basis: FeatureBasis, weights, target) -> np.ndarray:
    """Coefficients of the weighted least-squares projection onto the span."""
    return _projector(basis, weights) @ np.asarray(target, dtype=float)


def project(basis: FeatureBasis, weights, target) -> np.ndarray:
    """Weighted least-squares projection of a state field onto the span.

    Idempotent, and non-expansive in the same weighted norm.
    """
    return basis.field(projection_weights(basis, weights, target))


def _flipped_inner(t) -> np.ndarray:
    """Player 1's side of ``"F"``: min(best costly action, do-nothing)."""
    return np.where(t.has1, np.minimum(t.m1, t.noop), t.noop)


def _nest(t, combinator: str) -> np.ndarray:
    """The selected nesting of the operator's pieces ``t``."""
    if combinator == "T":
        return _combine(t)
    if combinator == "F":
        inner = _flipped_inner(t)
        return np.where(t.has2, np.maximum(inner, t.m2), inner)
    raise ValueError(f"combinator must be one of {COMBINATORS}, got {combinator!r}")


def _nest_policy(t, combinator: str) -> EquilibriumPolicy:
    """The policy of the cells :func:`_nest` picks: for ``"T"`` the policy of
    :func:`impulsegames.solver.extract_policy`; for ``"F"`` Player 2 acts where
    its best action beats the flipped inner term, and Player 1 where its best
    action is below doing nothing."""
    if combinator == "T":
        return _policy(t)
    return EquilibriumPolicy(p1_action=np.where(t.has1 & (t.m1 < t.noop), t.act1, 0),
                             p2_action=np.where(t.has2 & (t.m2 > _flipped_inner(t)), t.act2, 0))


def _sample_target(game: ImpulseGame, row, combinator: str) -> float:
    """The selected operator's value at one state from that state's row of
    net cell values, ``net[s] + gamma * E[v(next) | cell]``: ``"T"`` through
    the learner's scalar read-off on the row's Python floats (one vectorised
    call on one row costs more), ``"F"`` through the one-row :func:`_nest`."""
    if combinator != "T":
        return _nest(_reduce(row[None], game.num_actions1), combinator)[0]
    return _greedy(row.tolist(), game.num_actions1)[0]


def apply_operator(game: ImpulseGame, basis: FeatureBasis, r,
                   combinator: str = "F") -> np.ndarray:
    """One application of the selected operator nesting to the field ``Phi r``.

    The middle slot of either nesting is the do-nothing continuation of the
    field; a player with no available costly action drops out of its side of
    the nesting, so with no actions at all both forms reduce to the plain
    one-step expected-value operator.
    """
    _check_basis(game, basis)
    return _nest(operator_terms(game, basis.field(r)), combinator)


class StationaryResult(NamedTuple):
    weights: np.ndarray
    ergodic: bool


def stationary_distribution(game: ImpulseGame, policy) -> StationaryResult:
    """Stationary law of the executed-policy chain by damped power iteration.

    ``ergodic=False`` flags a chain whose iteration did not reach an L1 step of
    ``STATIONARY_TOL`` in ``STATIONARY_MAX_ITER`` iterations, or whose weights
    are not strictly positive (transient states); callers then use uniform weights.
    """
    ns = game.num_states
    p, _ = _executed_chain(game, *policy.executed_actions)
    lazy = 0.5 * (np.eye(ns) + p)
    w = np.full(ns, 1.0 / ns)
    for _ in range(STATIONARY_MAX_ITER):
        w, prev = w @ lazy, w
        if np.abs(w - prev).sum() <= STATIONARY_TOL:
            break
    else:
        return StationaryResult(weights=w / w.sum(), ergodic=False)
    w = w / w.sum()
    return StationaryResult(weights=w, ergodic=bool((w > 1e-9).all()))


def projected_iteration(game: ImpulseGame, basis: FeatureBasis, weights, combinator: str = "T",
                        tol: float = 1e-12) -> tuple[np.ndarray, list[float]]:
    """Deterministic fixed point of projection composed with the operator.

    Iterates coefficients through project(operator(field)), a contraction,
    in :func:`impulsegames.solver.solve`'s loop
    (:func:`impulsegames.solver._iterate`), whose finish takes the projected
    fixed point (:func:`_finish`) of the settled policy the nesting picks.
    Stops at a delta of ``tol``, which must be positive (``ValueError``), or
    after ``PROJECTED_MAX_ITER`` iterations.  Returns the coefficients and
    one delta per iteration.
    """
    _check_basis(game, basis)
    m = _projector(basis, weights)
    phi = basis.matrix

    def sweep(r):
        t = operator_terms(game, phi @ r)
        return m @ _nest(t, combinator), t

    return _iterate(game, np.zeros(basis.num_features), sweep,
                    lambda t: _nest_policy(t, combinator),
                    lambda policy: _finish(game, phi, m, policy), tol, PROJECTED_MAX_ITER)


def _finish(game: ImpulseGame, phi, m, policy: EquilibriumPolicy):
    """The projected fixed point of the chain ``policy`` executes, or None
    when that system is singular.

    The chain's projected policy-evaluation equation
    ``Phi^T D (I - gamma P) Phi r = Phi^T D r_pi`` is solved multiplied through
    by ``(Phi^T D Phi)^-1``, which turns it into ``(I - gamma M P Phi) r = M r_pi``
    with the projector ``M`` and forms no normal equations.
    """
    p, reward = _executed_chain(game, *policy.executed_actions)
    lhs = np.eye(m.shape[0]) - game.discount * (m @ (p @ phi))
    try:
        return np.linalg.solve(lhs, m @ reward)
    except np.linalg.LinAlgError:
        return None


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the sampled weight-space iteration; its schedule is the
    ``FIT_*`` constants.  ``divergence_limit`` is a positive bound on
    ``max |r|``; ``inf`` turns the check off."""

    samples: int
    seed: int = 0
    combinator: str = "T"
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.combinator not in COMBINATORS:
            raise ValueError(f"combinator must be one of {COMBINATORS}")
        _count(self.samples, "samples")
        _count(self.seed, "seed")
        if not self.divergence_limit > 0:
            raise ValueError("divergence_limit must be positive (inf for no check), "
                             f"got {self.divergence_limit!r}")


class FitDivergenceError(RuntimeError):
    def __init__(self, step, r):
        self.step = step
        self.r = np.array(r)
        super().__init__(f"weight iteration diverged at step {step}: |r| = {np.abs(r).max():.3g}")


@dataclass(frozen=True)
class FitReport:
    """``samples_run`` is the number of samples taken, ``config.samples``."""

    samples_run: int


def fit(game: ImpulseGame, basis: FeatureBasis, config: FitConfig,
        r0=None) -> tuple[np.ndarray, FitReport]:
    """Stochastic weight iteration along a greedy-with-exploration trajectory.

    Each visited state nudges the coefficients toward the selected
    operator's value there, with Robbins-Monro step sizes; the visiting
    distribution of the behaviour trajectory supplies the projection
    weighting.  The behaviour policy is refreshed from the current field
    once per epoch.  Intervention terms are expectations under the model;
    only the trajectory is sampled.  The schedule is the ``FIT_*`` constants;
    coefficients above ``config.divergence_limit`` raise :class:`FitDivergenceError`.

    Per sample the work runs on tables built once.  ``E[Phi(next) | s, cell]``
    from :meth:`ImpulseGame.expect`, S x (A+B-1) x K doubles and so never
    larger than the cells kernel, gives the visited state's row of the
    operator as ``net[s] + gamma * (E[Phi][s] @ r)``; the ``"T"`` target is read
    off that row on Python floats by the learner's scalar nesting (``"F"``
    takes the one-row vectorised nesting).  ``r`` moves in place along
    ``Phi[s]``.  The divergence check keeps a running upper bound on
    ``max |r|`` and takes the exact maximum only when the bound passes the
    limit, so it raises at the same sample as an exact check after every
    sample would.  The executed cell comes from a per-state list rebuilt
    with the policy, and the exploration slots are built once per run; the
    next state is a bisection in that cell's row of the game's
    :attr:`ImpulseGame.sampler_rows`, the table ``learn`` steps through.
    An ``r0`` that is not ``K`` finite coefficients, or a basis of another
    state count, is refused with ``ValueError`` before any draw.
    Every draw (reset state, exploration coin, slot and action, next-state
    uniform) comes from one :class:`impulsegames.envs.BlockDraws` of
    ``config.seed``: the scalar draws of ``np.random.default_rng(config.seed)``,
    bit for bit.
    """
    _check_basis(game, basis)
    k = basis.num_features
    r = np.zeros(k) if r0 is None else _finite_table(r0, "r0", (k,))
    rng = BlockDraws(config.seed)
    rows = game.sampler_rows
    phi = basis.matrix
    net = game.cells[1]
    kphi = game.expect(phi)
    phi_max = np.abs(phi).max(axis=1).tolist()
    gamma, limit = game.discount, config.divergence_limit
    na = game.num_actions1
    slots = _slots(game.cell_costs.tolist(), na)
    bound = float(np.abs(r).max())
    s = rng.integers(game.num_states)
    cells = cell_index(na, *extract_policy(game, basis.field(r)).executed_actions).tolist()
    for t in range(config.samples):
        target = _sample_target(game, net[s] + gamma * (kphi[s] @ r), config.combinator)
        c = (1.0 + t) ** -FIT_STEP_POWER * (target - phi[s] @ r)
        r += c * phi[s]
        # An upper bound on max |r|, with room for the update's rounding; the
        # exact maximum is taken only when the bound passes the limit.
        bound = (bound + abs(c) * phi_max[s]) * (1.0 + 1e-12)
        if bound > limit:
            bound = float(np.abs(r).max())
            if bound > limit:
                raise FitDivergenceError(t, r)
        if (t + 1) % FIT_EPOCH == 0:
            cells = cell_index(na, *extract_policy(game, phi @ r).executed_actions).tolist()
        # As in `learn`: policy cells and `_slots` are never masked, so the cell's
        # row is bisected without `SamplingEnv.step`'s checks.
        cell = _explore(slots[s], rng) if rng.random() < FIT_EPSILON else cells[s]
        s = bisect_right(rows[s][cell][0], rng.random())
        if (t + 1) % FIT_EPISODE_LEN == 0:
            s = rng.integers(game.num_states)
    return r, FitReport(samples_run=config.samples)


class BoundReport(NamedTuple):
    """Both sides of the bound, in the weights of :func:`bound_weights`."""

    lhs: float
    rhs: float
    holds: bool


def exact_fixed_point(game: ImpulseGame, combinator: str = "T") -> np.ndarray:
    """The selected nesting's fixed point on the full state space, the field
    a fit with that nesting is checked against: the game value from
    :func:`solve` for ``"T"``; for ``"F"`` the projected fixed point on the
    identity basis, whose projection is the identity under any weights."""
    if combinator == "T":
        return solve(game, tol=1e-10).value
    ns = game.num_states
    return projected_iteration(game, identity_basis(ns), np.ones(ns), combinator, tol=1e-12)[0]


def bound_weights(game: ImpulseGame, value, combinator: str = "T") -> StationaryResult:
    """State weights of the bound check at the selected nesting's fixed point
    ``value``: the stationary law of the chain of the cells that nesting picks
    there (for ``"T"`` the greedy policy's executed chain), or uniform
    weights with ``ergodic=False`` when that chain is not ergodic."""
    w, ergodic = stationary_distribution(game, _nest_policy(operator_terms(game, value),
                                                            combinator))
    if not ergodic:
        w = np.full(game.num_states, 1.0 / game.num_states)
    return StationaryResult(weights=w, ergodic=ergodic)


def verify_bound(game: ImpulseGame, basis: FeatureBasis, r,
                 value, *, weights: StationaryResult) -> BoundReport:
    """Check the approximation-error bound against the exact value field.

    In the stationary-weighted norm of the equilibrium chain (uniform
    fallback when that chain is not ergodic):

        ||Phi r - v||_w  <=  (1 - gamma^2)^(-1/2) ||Proj v - v||_w + slack

    ``value`` is the exact fixed point of the fit's nesting,
    :func:`exact_fixed_point`: the game value from :func:`solve` for ``"T"``.
    ``weights`` is :func:`bound_weights` of ``value`` at the same nesting;
    only the caller knows that nesting, so it passes them.
    """
    _check_basis(game, basis)
    vhat = np.asarray(value, dtype=float)
    w = weights.weights
    lhs = weighted_norm(w, basis.field(r) - vhat)
    proj = project(basis, w, vhat)
    rhs = (1.0 - game.discount ** 2) ** -0.5 * weighted_norm(w, proj - vhat)
    return BoundReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + BOUND_SLACK))
