"""Concrete environments: an advertising-investment duopoly and sampling access.

The duopoly discretises two firms' sales levels onto a square lattice.  A
firm's costly action is an advertising investment that pulls untapped market
share its way; doing nothing lets its sales decay.  The scalar game reward is
the antisymmetric revenue difference, which makes the zero-sum accounting an
identity rather than an assumption.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .game import GameValidationError, ImpulseGame, _scalar, check_kernel_size, to_cells, validate


# Gauss-Hermite nodes of the duopoly's noise: the nodes solve an n x n
# eigenproblem, and numpy's weights overflow a few hundred nodes up.
MAX_NOISE_NODES = 100


@dataclass(frozen=True)
class DuopolyParams:
    """Parameters of the discretised advertising duopoly.

    ``investments1``/``investments2`` are the non-null action magnitudes; the
    null action (invest nothing) is always present.  The action cost is
    quasi-linear: ``kappa_i + u`` for investment ``u``.  ``grid_size`` lattice
    points per axis span ``[0, market_size]``.  ``noise_nodes`` Gauss-Hermite
    nodes, ``1 .. MAX_NOISE_NODES``, spread each step's noise; one node means
    no noise.
    """

    market_size: float = 100.0
    b1: float = 0.6
    b2: float = 0.6
    r1: float = 0.05
    r2: float = 0.05
    sigma1: float = 5.0
    sigma2: float = 5.0
    h_slope: float = 0.5
    kappa1: float = 0.2
    kappa2: float = 0.2
    investments1: tuple = (1.0, 2.5, 4.0)
    investments2: tuple = (1.0, 2.5, 4.0)
    grid_size: int = 11
    gamma: float = 0.9
    noise_nodes: int = 7

    def __post_init__(self):
        if self.market_size <= 0:
            raise ValueError("market_size must be positive")
        if not (0 < self.b1 <= 1 and 0 < self.b2 <= 1):
            raise ValueError("response rates must lie in (0, 1]")
        if self.grid_size < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not 1 <= self.noise_nodes <= MAX_NOISE_NODES:
            raise ValueError(f"noise_nodes must lie in 1..{MAX_NOISE_NODES}, "
                             f"got {self.noise_nodes}")


def duopoly_params_from_dict(doc: dict) -> DuopolyParams:
    """Build parameters from a plain config block (e.g. parsed JSON).

    Each value must have its default's type: an integer, a number, or a
    list of numbers for the investment levels.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"duopoly parameters must be an object, got {doc!r}")
    known = set(DuopolyParams.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown duopoly parameter(s): {sorted(unknown)}")
    defaults = DuopolyParams()
    parsed = {}
    for key, value in doc.items():
        default = getattr(defaults, key)
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"duopoly parameter '{key}' must be a list, got {value!r}")
            parsed[key] = tuple(_scalar(v, f"{key}[{i}]", float) for i, v in enumerate(value))
        else:
            parsed[key] = _scalar(value, key, type(default))
    return DuopolyParams(**parsed)


def duopoly_step_mean(params: DuopolyParams, s1, s2, u1, u2):
    """Deterministic next sales levels (noise handled separately), clamped; arrays work too."""
    m = params.market_size
    untapped = (m - s1 - s2) / m
    n1 = s1 + params.b1 * u1 * untapped - params.r1 * s1
    n2 = s2 + params.b2 * u2 * untapped - params.r2 * s2
    return np.clip(n1, 0.0, m), np.clip(n2, 0.0, m)


def _axis_distribution(mean, sigma, grid, nodes, weights):
    """Lattice distribution of mean + sigma*N(0,1), shape (len(mean), G).

    Each quadrature node's clamped landing point spreads its mass over the
    two neighbouring lattice points by linear interpolation; the boundary
    absorbs the clamped tails.
    """
    g = len(grid)
    step = grid[1] - grid[0]
    x = np.clip(mean[:, None] + sigma * nodes[None, :], grid[0], grid[-1])
    pos = (x - grid[0]) / step
    lo = np.minimum(pos.astype(int), g - 2)
    frac = pos - lo
    out = np.zeros((len(mean), g))
    rows = np.repeat(np.arange(len(mean)), len(nodes))
    np.add.at(out, (rows, lo.ravel()), ((1.0 - frac) * weights[None, :]).ravel())
    np.add.at(out, (rows, lo.ravel() + 1), (frac * weights[None, :]).ravel())
    return out


def build_duopoly_game(params: DuopolyParams) -> ImpulseGame:
    """Materialise the duopoly as a dense game over the sales lattice.

    States enumerate lattice pairs row-major: state ``i*G + j`` holds
    ``(S1, S2) = (grid[i], grid[j])``.  Rewards are ``h_slope * (S1 - S2)``
    for every action pair; costs route through the game's cost tables and
    are not double counted inside the reward.  Raises ``GameValidationError``
    when the parameters give a game that breaks a model invariant (say a
    discount outside [0, 1) or a NaN cost).
    """
    g = params.grid_size
    check_kernel_size(g * g, len(params.investments1) + 1, len(params.investments2) + 1)
    grid = np.linspace(0.0, params.market_size, g)
    s1 = np.repeat(grid, g)
    s2 = np.tile(grid, g)
    ns = g * g
    levels1 = (0.0,) + tuple(params.investments1)
    levels2 = (0.0,) + tuple(params.investments2)
    na, nb = len(levels1), len(levels2)

    if params.noise_nodes > 1:
        nodes, w = np.polynomial.hermite_e.hermegauss(params.noise_nodes)
        weights = w / w.sum()
    else:
        nodes, weights = np.zeros(1), np.ones(1)

    reward = np.broadcast_to(
        (params.h_slope * (s1 - s2))[:, None, None], (ns, na, nb)).copy()
    cost1 = np.zeros((ns, na))
    cost1[:, 1:] = params.kappa1 + np.asarray(params.investments1)[None, :]
    cost2 = np.zeros((ns, nb))
    cost2[:, 1:] = params.kappa2 + np.asarray(params.investments2)[None, :]

    kernel = np.empty((ns, na, nb, ns))
    for ai, u1 in enumerate(levels1):
        for bi, u2 in enumerate(levels2):
            d1, d2 = duopoly_step_mean(params, s1, s2, u1, u2)
            p1 = _axis_distribution(d1, params.sigma1, grid, nodes, weights)
            p2 = _axis_distribution(d2, params.sigma2, grid, nodes, weights)
            joint = np.einsum("si,sj->sij", p1, p2).reshape(ns, ns)
            kernel[:, ai, bi, :] = joint / joint.sum(axis=1, keepdims=True)

    floor = min(params.kappa1 + min(levels1[1:], default=1.0),
                params.kappa2 + min(levels2[1:], default=1.0))
    game = ImpulseGame(kernel=kernel, reward=reward, cost1=cost1, cost2=cost2,
                       cost_floor=floor, discount=params.gamma)
    violations = validate(game)
    if violations:
        raise GameValidationError(violations)
    return game


# Draws fetched from the generator at a time: uniforms by ``sim.simulate``,
# raw 64-bit words by :class:`BlockDraws`.
DRAW_BLOCK = 1 << 12

_UNIT = 1.0 / (1 << 53)
_LOW32 = (1 << 32) - 1


class BlockDraws:
    """The scalar draws of ``np.random.default_rng(seed)``, bit for bit, read
    from raw PCG64 words fetched ``DRAW_BLOCK`` at a time.

    numpy builds each scalar ``random()`` from one raw word ``w`` as ``(w >>
    11) * 2**-53``.  Its ``integers(n)`` takes 32-bit halves of raw words, the
    low half first, keeping the upper half pending for the next 32-bit draw
    (a ``random()`` in between leaves it pending), and bounds them by
    Lemire's multiply-and-reject method (Lemire 2019, "Fast random integer
    generation in an interval"); ``integers(1)`` takes no draw.  Both are
    replayed here on Python ints, which costs a fraction of a scalar call into
    the ``Generator``.  ``integers`` returns a Python ``int`` and refuses an
    ``n`` outside ``1 .. 2**32`` (``ValueError``), where numpy would switch to
    64-bit draws.

    :attr:`word` is the bound ``__next__`` of one endless iterator over the raw
    words: ``word()`` returns the word that ``random()`` or ``integers`` would
    read next, so a hot loop can take ``(word() >> 11) * 2**-53`` inline in
    place of a ``random()`` call and stay on the same stream.
    """

    __slots__ = ("word", "_half")

    def __init__(self, seed):
        bits = np.random.default_rng(seed).bit_generator
        blocks = iter(lambda: bits.random_raw(DRAW_BLOCK).tolist(), None)
        self.word = chain.from_iterable(blocks).__next__
        self._half = None

    def random(self) -> float:
        """A uniform on [0, 1), as ``Generator.random()``."""
        return (self.word() >> 11) * _UNIT

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        w = self.word()
        self._half = w >> 32
        return w & _LOW32

    def integers(self, n: int) -> int:
        """A uniform integer in ``0 .. n-1``, as ``Generator.integers(n)``."""
        if not 0 < n <= 1 << 32:
            raise ValueError(f"integers(n) needs n in 1..2**32, got {n}")
        if n == 1:
            return 0
        m = self._uint32() * n
        if (m & _LOW32) < n:
            threshold = ((1 << 32) - n) % n
            while (m & _LOW32) < threshold:
                m = self._uint32() * n
        return m >> 32


class SamplingEnv:
    """Model-free access to a game: seeded uniform reset and step, probabilities hidden.

    Exposes the state and action counts and the sampler's rows, none of the
    game's tables.  Transitions and raw rewards are reachable only by
    sampling, with one uniform per next state: :meth:`step` takes one checked
    step, and ``learn``, ``fit`` and ``simulate`` bisect :attr:`rows` inline.
    The draws come from ``rng`` (by default ``np.random.default_rng(seed)``):
    :meth:`reset` and :meth:`step` call only its scalar ``integers(n)`` and
    ``random()``, so a :class:`BlockDraws` serves them too.

    ``rows[s][c]`` is the pair ``(cut cumulative row, raw reward)`` of cell
    ``c`` of :attr:`ImpulseGame.cells` at state ``s``, built once as a tuple
    of per-state tuples; the row is an ``array('d')``, and ``bisect_right(row,
    u)`` of one uniform ``u`` is the next state.  It is a read-only view.  A
    row whose sum rounds below 1 can draw past its end; such a draw lands on
    the row's last state with positive mass.  So each row is cut just before
    that state.  Masked cells have rows too: a caller that bisects them
    without :meth:`step` must never execute a masked cell (one whose
    :attr:`ImpulseGame.cell_costs` entry is not finite).
    """

    def __init__(self, game: ImpulseGame, seed=0, rng=None):
        kernel = game.cells[0]
        ns = game.num_states
        last = ns - 1 - np.argmax(kernel[..., ::-1] > 0, axis=2)
        self.rows = tuple(
            tuple((array("d", row[:n].tobytes()), r)
                  for row, n, r in zip(np.cumsum(kernel_s, axis=1), ends, rewards))
            for kernel_s, ends, rewards in zip(kernel, last.tolist(),
                                               to_cells(game.reward).tolist()))
        self._ok = np.isfinite(game.cell_costs).tolist()
        self._ncells = kernel.shape[1]
        self._rng = np.random.default_rng(seed) if rng is None else rng
        self.num_states = game.num_states
        self.num_actions1 = game.num_actions1
        self.num_actions2 = game.num_actions2

    def reset(self) -> int:
        """Draw a fresh start state, uniform over the states."""
        return int(self._rng.integers(self.num_states))

    def step(self, s: int, c: int) -> tuple[int, float]:
        """Execute cell ``c`` of :attr:`ImpulseGame.cells` at state ``s``: the
        next state (one uniform draw) and the raw (cost-exclusive) reward.  A
        masked cell is a hard fault (``RuntimeError``).  Refused: a state
        outside ``0 .. S-1`` or a cell outside ``0 .. A+B-2`` (``IndexError``)."""
        if not 0 <= c < self._ncells:
            raise IndexError(f"cell {c} outside 0..{self._ncells - 1}")
        if not 0 <= s < self.num_states:
            raise IndexError(f"state {s} outside 0..{self.num_states - 1}")
        if not self._ok[s][c]:
            raise RuntimeError(f"masked cell {c} attempted at state {s}")
        row, reward = self.rows[s][c]
        return bisect_right(row, self._rng.random()), reward
