"""Linear value-field approximation: weighted projection, the one-step
operator on feature-parameterised fields, projected fixed points, a sampled
weight-space iteration, and the approximation-error bound check.

Two nestings of the operator are kept side by side behind a ``combinator``
switch: ``"T"`` is min-outside (the solver's own nesting, so its fixed point
is the game value) and ``"F"`` is the flipped max-outside form.  Both are
gamma-contractions; they differ in which player the middle do-nothing term
shelters.  The sampled fit evaluates them at the visited state only; its
behaviour trajectory takes the learner's exploration draw
(:func:`impulsegames.qlearn._explore`) and the sampler of
:class:`impulsegames.envs.SamplingEnv`.

The weighted projection is factored once per basis and weights
(:func:`_projector`).  :func:`projected_iteration` sweeps through it and,
every :data:`impulsegames.solver.FINISH_EVERY` iterations, tries the finish
rule of :func:`impulsegames.solver.solve` on the projected problem: the
cells the selected nesting picks at the current field form a policy chain,
whose projected policy-evaluation equation (LSTD, Bradtke & Barto 1996; as
in least-squares policy iteration for zero-sum Markov games, Lagoudakis &
Parr 2002) is solved exactly, followed by one projected sweep.  The result
is kept only when its coefficient delta is below the plain sweep's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .envs import SamplingEnv
from .game import ImpulseGame
from .qlearn import _explore, _greedy, _slots
from .solver import (FINISH_EVERY, EquilibriumPolicy, _combine, _executed_chain, _policy,
                     extract_policy, operator_terms, solve)

RANK_TOL = 1e-10

BOUND_SLACK = 1e-8

COMBINATORS = ("F", "T")


@dataclass(frozen=True)
class FeatureBasis:
    """A (states x features) matrix of linearly independent columns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("basis must be a 2-D (states x features) matrix")
        if m.shape[1] > m.shape[0]:
            raise ValueError("more features than states: columns cannot be independent")
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


def identity_basis(num_states: int) -> FeatureBasis:
    return FeatureBasis(np.eye(num_states))


def constant_basis(num_states: int) -> FeatureBasis:
    return FeatureBasis(np.ones((num_states, 1)))


def _check_weights(weights, num_states):
    w = np.asarray(weights, dtype=float)
    if w.shape != (num_states,):
        raise ValueError(f"weights must have shape ({num_states},)")
    if not (w > 0).all():
        raise ValueError("state weights must be strictly positive")
    return w / w.sum()


def weighted_norm(weights, x) -> float:
    w = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    return math.sqrt(float(w @ (x * x)) / w.sum())


def _projector(basis: FeatureBasis, weights) -> np.ndarray:
    """The (features x states) matrix ``M`` whose product with a target gives
    its weighted least-squares coefficients: ``M = R^-1 Q^T diag(sqrt w)``
    from a QR factoring of ``diag(sqrt w) Phi``.  ``M`` also equals
    ``(Phi^T D Phi)^-1 Phi^T D`` with ``D = diag(w)``."""
    sq = np.sqrt(_check_weights(weights, basis.num_states))
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


def _operator_on_field(game: ImpulseGame, lam, combinator: str, rows=None) -> np.ndarray:
    return _nest(operator_terms(game, lam, _rows=rows), combinator)


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


def _nest_actions(t, combinator: str) -> tuple[np.ndarray, np.ndarray]:
    """Player 1's and Player 2's actions of the cells :func:`_nest` picks, 0
    where a player does not act: for ``"T"`` the flags of
    :func:`impulsegames.solver.extract_policy`; for ``"F"`` Player 2 acts where
    its best action beats the flipped inner term, else Player 1 acts where its
    best action is below doing nothing."""
    if combinator == "T":
        policy = _policy(t)
        return policy.p1_action, policy.p2_action
    p2 = t.has2 & (t.m2 > _flipped_inner(t))
    p1 = t.has1 & (t.m1 < t.noop)
    return np.where(p1, t.act1, 0), np.where(p2, t.act2, 0)


def _sample_target(game: ImpulseGame, lam, s: int, combinator: str) -> float:
    """The selected operator's value at the one state ``s``: ``"T"`` through
    the learner's scalar read-off on the row's Python floats (one vectorised
    call on one row costs more), ``"F"`` through :func:`_operator_on_field`."""
    if combinator != "T":
        return _operator_on_field(game, lam, combinator, rows=slice(s, s + 1))[0]
    kernel, net = game.cells
    row = (net[s] + game.discount * (kernel[s] @ lam)).tolist()
    # `net` holds the costs already, so the read-off adds -0.0 to each cell.
    return _greedy(row, [-0.0] * len(row), game.num_actions1)[0]


def apply_operator(game: ImpulseGame, basis: FeatureBasis, r,
                   combinator: str = "F") -> np.ndarray:
    """One application of the selected operator nesting to the field ``Phi r``.

    The middle slot of either nesting is the do-nothing continuation of the
    field; a player with no available costly action drops out of its side of
    the nesting, so with no actions at all both forms reduce to the plain
    one-step expected-value operator.
    """
    return _operator_on_field(game, basis.field(r), combinator)


class StationaryResult(NamedTuple):
    weights: np.ndarray
    ergodic: bool


def stationary_distribution(game: ImpulseGame, policy, tol: float = 1e-12,
                            max_iter: int = 200_000) -> StationaryResult:
    """Stationary law of the executed-policy chain by damped power iteration.

    ``ergodic=False`` flags a chain whose iteration failed to converge or
    whose stationary weights are not strictly positive (transient states);
    callers then fall back to uniform weights.
    """
    ns = game.num_states
    p, _ = _executed_chain(game, policy.p1_action, policy.p2_action)
    lazy = 0.5 * (np.eye(ns) + p)
    w = np.full(ns, 1.0 / ns)
    for _ in range(max_iter):
        nw = w @ lazy
        if np.abs(nw - w).sum() <= tol:
            w = nw
            break
        w = nw
    else:
        return StationaryResult(weights=w / w.sum(), ergodic=False)
    w = w / w.sum()
    return StationaryResult(weights=w, ergodic=bool((w > 1e-9).all()))


def projected_iteration(game: ImpulseGame, basis: FeatureBasis, weights,
                        combinator: str = "T", tol: float = 1e-12,
                        max_iter: int = 100_000) -> tuple[np.ndarray, list[float]]:
    """Deterministic fixed point of projection composed with the operator.

    Iterates coefficients through project(operator(field)); the composite
    contracts, so the coefficient deltas shrink geometrically.  Every
    ``FINISH_EVERY`` iterations :func:`_finish` may replace the sweep's
    result, when its delta is smaller, so a refused finish costs no
    iteration.  Returns the coefficients and one delta per iteration.
    """
    m = _projector(basis, weights)
    phi = basis.matrix
    r = np.zeros(basis.num_features)
    deltas = []
    for it in range(max_iter):
        t = operator_terms(game, phi @ r)
        nr = m @ _nest(t, combinator)
        delta = float(np.abs(nr - r).max())
        if it and it % FINISH_EVERY == 0:
            jump = _finish(game, phi, m, t, combinator)
            if jump is not None and jump[1] < delta:
                nr, delta = jump
        deltas.append(delta)
        r = nr
        if delta <= tol:
            break
    return r, deltas


def _finish(game: ImpulseGame, phi, m, t, combinator: str):
    """The projected fixed point of the chain the nesting picks at the
    operator's pieces ``t``, then one projected sweep: ``(coefficients,
    delta)``, or None when the system is singular.

    The chain's projected policy-evaluation equation
    ``Phi^T D (I - gamma P) Phi r = Phi^T D r_pi`` is solved multiplied through
    by ``(Phi^T D Phi)^-1``, which turns it into ``(I - gamma M P Phi) r = M r_pi``
    with the projector ``M`` and forms no normal equations.
    """
    p, reward = _executed_chain(game, *_nest_actions(t, combinator))
    lhs = np.eye(m.shape[0]) - game.discount * (m @ (p @ phi))
    try:
        jump = np.linalg.solve(lhs, m @ reward)
    except np.linalg.LinAlgError:
        return None
    nr = m @ _operator_on_field(game, phi @ jump, combinator)
    return nr, float(np.abs(nr - jump).max())


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the sampled weight-space iteration."""

    samples: int
    epsilon: float = 0.2
    step_power: float = 0.85
    seed: int = 0
    episode_len: int = 100
    epoch: int = 1000
    tol: float = 0.0
    combinator: str = "T"
    divergence_limit: float = 1e6
    compute_reference: bool = True

    def __post_init__(self):
        if self.combinator not in COMBINATORS:
            raise ValueError(f"combinator must be one of {COMBINATORS}")
        if self.episode_len <= 0 or self.epoch <= 0:
            raise ValueError("episode_len and epoch must be positive")


class FitDivergenceError(RuntimeError):
    def __init__(self, step, r):
        self.step = step
        self.r = np.array(r)
        super().__init__(f"weight iteration diverged at step {step}: |r| = {np.abs(r).max():.3g}")


@dataclass(frozen=True)
class FitReport:
    samples_run: int
    final_epoch_delta: float
    sup_dist_to_value: Optional[float]
    stopped_early: bool

    def to_dict(self) -> dict:
        return {
            "samples_run": self.samples_run,
            "final_epoch_delta": self.final_epoch_delta,
            "sup_dist_to_value": self.sup_dist_to_value,
            "stopped_early": self.stopped_early,
        }


def fit(game: ImpulseGame, basis: FeatureBasis, config: FitConfig,
        r0=None) -> tuple[np.ndarray, FitReport]:
    """Stochastic weight iteration along a greedy-with-exploration trajectory.

    Each visited state nudges the coefficients toward the selected
    operator's value there, with Robbins-Monro step sizes; the visiting
    distribution of the behaviour trajectory supplies the projection
    weighting.  The behaviour policy is refreshed from the current field
    once per epoch.  Intervention terms are expectations under the model;
    only the trajectory is sampled.

    Per sample the work runs on tables built once: the ``"T"`` target is
    the visited state's row of the operator, read off on Python floats by
    the learner's scalar nesting (``"F"`` takes the one-row vectorised
    operator), the executed pair comes from a per-state list rebuilt with
    the policy, and the exploration slots are built once per run.
    """
    rng = np.random.default_rng(config.seed)
    env = SamplingEnv(game, rng=rng)
    phi = basis.matrix
    slots = _slots(game.cell_costs.tolist(), game.num_actions1)
    r = np.zeros(basis.num_features) if r0 is None else np.array(r0, dtype=float)
    s = env.reset()
    pairs = extract_policy(game, basis.field(r)).executed_pairs()
    r_epoch = r.copy()
    final_delta = math.inf
    stopped = False
    steps_run = 0
    for t in range(config.samples):
        lam = phi @ r
        target = _sample_target(game, lam, s, config.combinator)
        alpha = (1.0 + t) ** -config.step_power
        r = r + alpha * phi[s] * (target - lam[s])
        steps_run = t + 1
        if np.abs(r).max() > config.divergence_limit:
            raise FitDivergenceError(t, r)
        if (t + 1) % config.epoch == 0:
            final_delta = float(np.abs(r - r_epoch).max())
            r_epoch = r.copy()
            pairs = extract_policy(game, phi @ r).executed_pairs()
            if config.tol > 0.0 and final_delta <= config.tol:
                stopped = True
                break
        if config.epsilon > 0.0 and rng.random() < config.epsilon:
            pair = _explore(slots[s], rng)
        else:
            pair = pairs[s]
        s, _ = env.step(s, pair)
        if (t + 1) % config.episode_len == 0:
            s = env.reset()
    dist = None
    if config.compute_reference:
        vhat = solve(game, tol=1e-9).value
        dist = float(np.abs(basis.field(r) - vhat).max())
    return r, FitReport(samples_run=steps_run, final_epoch_delta=final_delta,
                        sup_dist_to_value=dist, stopped_early=stopped)


class BoundReport(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    used_uniform_weights: bool
    weights: np.ndarray

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "used_uniform_weights": self.used_uniform_weights,
            "weights": self.weights.tolist(),
        }


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
    a1, a2 = _nest_actions(operator_terms(game, value), combinator)
    chain = EquilibriumPolicy(p1_acts=a1 != 0, p1_action=a1, p2_acts=a2 != 0, p2_action=a2)
    w, ergodic = stationary_distribution(game, chain)
    if not ergodic:
        w = np.full(game.num_states, 1.0 / game.num_states)
    return StationaryResult(weights=w, ergodic=ergodic)


def verify_bound(game: ImpulseGame, basis: FeatureBasis, r,
                 value=None, *, weights: Optional[StationaryResult] = None) -> BoundReport:
    """Check the approximation-error bound against the exact value field.

    In the stationary-weighted norm of the equilibrium chain (uniform
    fallback when that chain is not ergodic):

        ||Phi r - v||_w  <=  (1 - gamma^2)^(-1/2) ||Proj v - v||_w + slack

    ``value`` defaults to the game value, the fixed point of ``"T"``; a fit
    with ``"F"`` is checked against :func:`exact_fixed_point` of ``"F"``.
    ``weights`` takes :func:`bound_weights` of ``value`` (and the same
    nesting) from a caller that has it already; it depends on those only.
    """
    vhat = solve(game, tol=1e-10).value if value is None else np.asarray(value, dtype=float)
    w, ergodic = bound_weights(game, vhat) if weights is None else weights
    lhs = weighted_norm(w, basis.field(r) - vhat)
    proj = project(basis, w, vhat)
    rhs = (1.0 - game.discount ** 2) ** -0.5 * weighted_norm(w, proj - vhat)
    return BoundReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + BOUND_SLACK),
                       used_uniform_weights=not ergodic, weights=w)
