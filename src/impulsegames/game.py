"""Model container for two-player zero-sum stochastic games with costly actions.

Both players always own the cost-free null action ``0``; every other action
pays a state-dependent cost bounded below by a positive floor, so acting at
every step is never free.  Player 1 maximises the discounted sum of net
rewards, Player 2 minimises the same quantity (its payoff is the exact
negation).  Tables are dense numpy arrays indexed ``[state, action1, action2]``
with the null action in slot 0 of each action axis.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import threading
from array import array
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

import numpy as np

KAPPA_DEFAULT = 0.1

KERNEL_ROW_TOL = 1e-12

# Largest transition kernel S*A*B*S (float64 entries, 128 MB at the limit) a
# game may have; checked from the counts before any table is built.
MAX_KERNEL_ENTRIES = 16_000_000

# The fewest kernel entries per random_game draw thread; and, for every
# generated kernel (the draw, the duopoly), the most entries per block of whole
# states (256 KB, or one state) that _fill_kernel makes in its scratch buffer
# and divides by its row sums before splitting it into the tables.
_ENTRIES_PER_PART = 2**20
_BLOCK_ENTRIES = 2**15

# Entries of one broken rule that `validate` lists.
_LISTED_PER_RULE = 10


class Violation(NamedTuple):
    """One broken model invariant: a short code, offending indices, message,
    and the broken entries it stands for (more than 1 on the last one
    :func:`_listed` lists of a rule broken at entries it does not list)."""

    code: str
    where: tuple
    message: str
    count: int = 1


class GameFormatError(ValueError):
    """Raised when a game-spec file cannot be parsed into model tables."""


class GameValidationError(ValueError):
    """Raised when parsed tables violate the model invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = [v.message for v in self.violations[:3]]
        if len(self.violations) > 3:
            shown[-1] += f" ({sum(v.count for v in self.violations[3:])} more)"
        super().__init__("; ".join(shown))


def _frozen_array(values, dtype=float):
    """``values`` as a read-only C-contiguous ``dtype`` array.  A read-only
    array that owns its memory (another game's table, say) is kept as it is;
    an array made here from a list or by a dtype or layout change is frozen
    in place; a view, or a writeable array the caller passed in, is copied,
    so later writes to it leave the game unchanged."""
    arr = np.asarray(values, dtype=dtype, order="C")
    if not arr.flags.owndata or (arr is values and arr.flags.writeable):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _write_whole(path, write, newline=None) -> None:
    """Write through a temporary file renamed into place, so a write that
    fails part-way leaves no partial output behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as f:
            write(f)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON, byte for byte what ``json.dump(obj, f,
    sort_keys=True, indent=2, allow_nan=False)`` and a final newline write,
    through :func:`_write_whole`.

    Besides what ``json`` takes (dicts with string keys, lists, tuples and
    scalars), ``obj`` may hold numpy arrays, written as their ``tolist()``:
    a float or integer array is formatted in blocks along its leading axis,
    one ``repr`` map per block, and each block is written before the next is
    made; a :class:`_Pairs` table is written the same way, each block
    assembled from its parts.  A :class:`_Table` is written as the list of
    its rows, a batch of rows at a time, each filled into one row template;
    every other list takes ``json``'s own walk.  A non-finite float, in an
    array or not, raises ``ValueError`` and leaves no file."""
    _write_whole(path, lambda f: (f.writelines(_encode(obj, 0)), f.write("\n")))


# Rows of a CSV file formatted at a time.
_BLOCK_ROWS = 1 << 12


def _csv_quote(text: str) -> str:
    """``text`` as a field of ``csv.writer``'s default dialect: quoted, with
    inner quotes doubled, when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_fields(values) -> list:
    """The fields of a 1-D array as ``csv.writer`` writes them, each distinct
    value formatted once: floats (told apart by their bits, so ``-0.0`` is
    not ``0.0``) with ``repr``, ints and bools with ``str``, strings quoted."""
    if values.dtype == np.float64:
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        texts = [repr(x) for x in keys.view(np.float64).tolist()]
    else:
        keys, inverse = np.unique(values, return_inverse=True)
        fmt = _csv_quote if values.dtype.kind == "U" else str
        texts = [fmt(x) for x in keys.tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def _write_csv(path, header, columns) -> None:
    """Write equal-length 1-D arrays ``columns`` (two or more; float64, int,
    bool or str) under ``header``: the bytes of ``csv.writer`` with its
    default dialect, CRLF line ends, formatted ``_BLOCK_ROWS`` rows at a time,
    through :func:`_write_whole`."""
    def write(f):
        f.write(",".join(map(_csv_quote, header)) + "\r\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            fields = [_csv_fields(col[lo:lo + _BLOCK_ROWS]) for col in columns]
            f.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
    _write_whole(path, write, newline="")


# Numbers of an array, and rows of a table, formatted per piece: a piece's
# strings and text are what writing a table holds beyond the table itself.
_BLOCK_NUMBERS = 1 << 11
_BLOCK_ITEMS = 1 << 8


def _not_compliant(x) -> ValueError:
    return ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _json_float(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise _not_compliant(x)


def _json_scalar(x) -> str:
    """A scalar as ``json`` writes it; the checks run in ``json``'s order."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _json_float(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


@dataclass(frozen=True, eq=False)
class _Table:
    """Named 1-D numpy columns of one length, in order, that :func:`_write_json`
    writes as the list of its rows; a dict of arrays stays a dict.  A string
    column is an object array, since a ``str`` array drops trailing NULs."""

    columns: dict

    def tolist(self) -> list[dict]:
        """One dict per row, keys in column order, values as arrays' ``tolist()`` gives them."""
        return [dict(zip(self.columns, row))
                for row in zip(*(col.tolist() for col in self.columns.values()))]


# Encoders of a table column, by dtype kind; an object column takes _json_scalar.
_KIND_ENCODERS = {"b": ("false", "true").__getitem__, "i": int.__repr__, "f": _json_float}


def _encode(obj, level: int):
    """The JSON text of ``obj`` at nesting ``level``, in pieces."""
    inner, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, (np.ndarray, _Pairs)):
        yield from _array(obj, level)
    elif isinstance(obj, _Table):
        yield from _table(obj, level)
    elif isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            yield sep + _quote(key) + ": "
            yield from _encode(value, level + 1)
            sep = "," + inner
        yield close + "}" if obj else "{}"
    elif isinstance(obj, (list, tuple)):
        sep = "[" + inner
        for item in obj:
            yield sep
            yield from _encode(item, level + 1)
            sep = "," + inner
        yield close + "]" if obj else "[]"
    else:
        yield _json_scalar(obj)


def _table(table: _Table, level: int):
    """The text of ``table.tolist()`` at nesting ``level``, ``_BLOCK_ITEMS``
    rows at a time: each row fills one template, in which each column's
    values are encoded by the one encoder its dtype picks."""
    keys = sorted(table.columns)
    n = len(table.columns[keys[0]]) if keys else 0
    inner = "\n" + "  " * (level + 1)
    template = ("{" + ",".join(inner + "  " + _quote(key).replace("%", "%%") + ": %s"
                               for key in keys) + inner + "}")
    sep = "[" + inner
    for lo in range(0, n, _BLOCK_ITEMS):
        texts = [map(_KIND_ENCODERS.get(col.dtype.kind, _json_scalar),
                     col[lo:lo + _BLOCK_ITEMS].tolist()) for col in map(table.columns.get, keys)]
        yield sep + ("," + inner).join(map(template.__mod__, zip(*texts)))
        sep = "," + inner
    yield "\n" + "  " * level + "]" if n else "[]"


def _array(arr, level: int):
    """The text of ``arr.tolist()`` at nesting ``level``, in blocks of whole
    rows along the leading axis, each sliced out of ``arr`` (an array, or a
    :class:`_Pairs` table, which assembles only the block).  Leaf ``j`` of a
    block is followed by the separator that closes and reopens as many
    inner lists as the index rolls over there, so one join per block places
    every bracket."""
    k, size = len(arr.shape), math.prod(arr.shape)
    if k == 0 or size == 0 or arr.dtype.kind not in "fiu":
        yield from _encode(arr.tolist(), level)
        return
    nl = ["\n" + "  " * (level + d) for d in range(k + 1)]
    # seps[r]: between two leaves across r inner list boundaries
    seps = ["".join(nl[k - i] + "]" for i in range(1, r + 1)) + ","
            + "".join(nl[k - i] + "[" for i in range(r, 0, -1)) + nl[k] for r in range(k)]
    row = size // arr.shape[0]
    rows = max(1, _BLOCK_NUMBERS // row)
    per_block = rows * row
    pattern = [seps[0]] * per_block
    stride = 1
    for r in range(1, k):
        stride *= arr.shape[k - r]
        pattern[stride - 1::stride] = [seps[r]] * (per_block // stride)
    is_float = arr.dtype.kind == "f"
    yield "".join("[" + nl[d] for d in range(1, k + 1))
    for lo in range(0, arr.shape[0], rows):
        block = arr[lo:lo + rows].reshape(-1)
        if is_float and not np.isfinite(block).all():
            raise _not_compliant(block[~np.isfinite(block)][0].item())
        parts = [None] * (2 * block.size)
        parts[0::2] = map(float.__repr__ if is_float else int.__repr__, block.tolist())
        parts[1::2] = pattern[:block.size]
        if lo + rows >= arr.shape[0]:
            parts[-1] = "".join(nl[k - i] + "]" for i in range(1, k + 1))
        yield "".join(parts)


@dataclass(frozen=True, eq=False)
class _Pairs:
    """A table over every action pair, ``(S, A, B, ...)``, held as its two
    parts: ``cells`` ``(S, A+B-1, ...)``, the pairs that can execute in the
    layout of :attr:`ImpulseGame.cells` (column ``a`` is ``(a, 0)``, column
    ``A - 1 + b`` is ``(0, b)``), and ``both`` ``(S, (A-1)(B-1), ...)``, the
    pairs where both players act, row-major over ``(a - 1, b - 1)``.  The one
    home of that layout: indexing a slice of states assembles the whole
    table there, and assigning to one splits a whole table into the parts."""

    cells: np.ndarray
    both: np.ndarray
    na: int

    @property
    def shape(self) -> tuple:
        return (len(self.cells), self.na, self.cells.shape[1] - self.na + 1) + self.cells.shape[2:]

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.cells, self.both)

    def _at(self, states: slice) -> _Pairs:
        return _Pairs(self.cells[states], self.both[states], self.na)

    def _views(self, full: np.ndarray) -> tuple:
        """``(view of full, view of a part)`` for each of the three places a
        pair's entry sits."""
        (ns, na, nb), rest = full.shape[:3], full.shape[3:]
        return ((full[:, :, 0], self.cells[:, :na]), (full[:, 0, 1:], self.cells[:, na:]),
                (full[:, 1:, 1:], self.both.reshape((ns, na - 1, nb - 1) + rest)))

    def __getitem__(self, states: slice) -> np.ndarray:
        """The whole table at a slice of states, assembled."""
        part = self._at(states)
        full = np.empty(part.shape, part.dtype)
        for whole, view in part._views(full):
            whole[...] = view
        return full

    def __setitem__(self, states: slice, full: np.ndarray) -> None:
        """Split the whole table ``full`` into the parts at a slice of states."""
        for whole, view in self._at(states)._views(full):
            view[...] = whole

    def tolist(self) -> list:
        return self[:].tolist()


def _empty_pairs(ns: int, na: int, nb: int) -> _Pairs:
    """Unfilled cell and both-act kernel tables of a game of these counts."""
    return _Pairs(np.empty((ns, na + nb - 1, ns)), np.empty((ns, (na - 1) * (nb - 1), ns)), na)


@dataclass(frozen=True, eq=False, init=False)
class ImpulseGame:
    """A finite zero-sum stochastic game where non-null actions are costly.

    Parameters
    ----------
    kernel : array (S, A, B, S)
        Transition probabilities; row ``kernel[s, a, b]`` is the distribution
        of the next state when the executed pair is ``(a, b)``.
    reward : array (S, A, B)
        Player 1's raw (cost-exclusive) reward for each executed pair.
    cost1, cost2 : array (S, A), (S, B)
        Per-action costs for each player.  Column 0 belongs to the null
        action, carries no cost and is never queried.
    cost_floor : float
        Positive lower bound every non-null cost must respect.
    discount : float
        Discount factor in [0, 1).
    mask1, mask2 : bool array, optional
        Per-state action availability.  The null action must stay available
        everywhere; defaults to everything allowed.  Of the budgeted paths only
        the dense reference ``AugmentedGame.game`` masks a spent budget's actions.

    The game stores each kernel row once, split into two read-only tables:
    ``cell_kernel`` ``(S, A+B-1, S)``, the rows of the pairs that can execute
    under Player 2's precedence (null, ``(a, 0)``, ``(0, b)``; it is
    ``cells[0]``), and ``both_kernel`` ``(S, (A-1)(B-1), S)``, the rows where
    both players act, row-major over ``(a - 1, b - 1)``.  The ``kernel``
    handed in is split once, so it is always copied.  :attr:`kernel` is the
    full table again, assembled on first read.

    Every other table is stored read-only.  A read-only C-contiguous array
    of the right dtype that owns its memory (another game's table, say) is
    shared, not copied; a view or a writeable array is copied, so the caller
    may go on changing it; a list or an array of another dtype is converted
    once and the conversion is kept.  Only the array's own flags are
    checked: a caller that hands over a read-only array must not make it
    writeable again or keep a writeable view of it, or every game sharing
    it changes.
    """

    cell_kernel: np.ndarray
    both_kernel: np.ndarray
    reward: np.ndarray
    cost1: np.ndarray
    cost2: np.ndarray
    cost_floor: float
    discount: float
    mask1: np.ndarray
    mask2: np.ndarray

    def __init__(self, kernel, reward, cost1, cost2, cost_floor, discount, mask1=None,
                 mask2=None):
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 4 or kernel.shape[0] != kernel.shape[3]:
            raise ValueError(f"kernel must have shape (S, A, B, S), got {kernel.shape}")
        s, a, b, _ = kernel.shape
        _count(s, "num_states", 1)
        _count(a, "num_actions1", 1)
        _count(b, "num_actions2", 1)
        pairs = _empty_pairs(s, a, b)
        pairs[:] = kernel
        self._store(pairs, reward, cost1, cost2, cost_floor, discount, mask1, mask2)

    @classmethod
    def _from_pairs(cls, pairs: _Pairs, *tables) -> ImpulseGame:
        """A game on kernel tables the caller hands over as they are, read-only
        and owning their memory; ``tables`` are the constructor's after ``kernel``."""
        game = cls.__new__(cls)
        game._store(pairs, *tables)
        return game

    def _store(self, pairs: _Pairs, reward, cost1, cost2, cost_floor, discount, mask1=None,
               mask2=None) -> None:
        s, a, b = pairs.shape[:3]
        reward = _frozen_array(reward)
        if reward.shape != (s, a, b):
            raise ValueError(f"reward must have shape {(s, a, b)}, got {reward.shape}")
        cost1 = _frozen_array(cost1)
        if cost1.shape != (s, a):
            raise ValueError(f"cost1 must have shape {(s, a)}, got {cost1.shape}")
        cost2 = _frozen_array(cost2)
        if cost2.shape != (s, b):
            raise ValueError(f"cost2 must have shape {(s, b)}, got {cost2.shape}")
        mask1 = np.ones((s, a), dtype=bool) if mask1 is None else mask1
        mask2 = np.ones((s, b), dtype=bool) if mask2 is None else mask2
        mask1 = _frozen_array(mask1, dtype=bool)
        mask2 = _frozen_array(mask2, dtype=bool)
        if mask1.shape != (s, a) or mask2.shape != (s, b):
            raise ValueError("action masks must match the (state, action) table shapes")
        for table in (pairs.cells, pairs.both):
            table.setflags(write=False)
        for name, value in (("cell_kernel", pairs.cells), ("both_kernel", pairs.both),
                            ("reward", reward), ("cost1", cost1), ("cost2", cost2),
                            ("mask1", mask1), ("mask2", mask2),
                            ("cost_floor", float(cost_floor)), ("discount", float(discount))):
            object.__setattr__(self, name, value)

    @property
    def num_states(self) -> int:
        return self.reward.shape[0]

    @property
    def num_actions1(self) -> int:
        return self.reward.shape[1]

    @property
    def num_actions2(self) -> int:
        return self.reward.shape[2]

    def _pairs(self) -> _Pairs:
        return _Pairs(self.cell_kernel, self.both_kernel, self.num_actions1)

    @cached_property
    def kernel(self) -> np.ndarray:
        """The full transition kernel ``(S, A, B, S)``, read-only, assembled
        from the two stored tables on first read and kept: ``S*A*B*S``
        doubles on top of them (82 MB at 800 states and 3+3 actions).  No
        path of ``solve``, ``learn``, ``fit``, ``simulate`` or the CLI
        reads it."""
        kernel = self._pairs()[:]
        kernel.setflags(write=False)
        return kernel

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Kernel rows ``(S, A+B-1, S)`` and net rewards ``(S, A+B-1)`` of the
        pairs that can execute under Player 2's precedence: column ``a`` is
        ``(a, 0)``, ``A - 1 + b`` is ``(0, b)``.  The rows are the stored
        :attr:`cell_kernel` itself; the net rewards, the raw rewards plus
        :attr:`cell_costs`, are built on first use."""
        net = to_cells(self.reward) + self.cell_costs
        net.setflags(write=False)
        return self.cell_kernel, net

    @cached_property
    def cell_costs(self) -> np.ndarray:
        """What executing each cell of :attr:`cells` adds to its raw reward,
        ``(S, A+B-1)``: ``-cost1`` for ``(a, 0)``, ``+cost2`` for ``(0, b)``,
        -inf / +inf where the action is masked, and -0.0 for the null pair
        (the zero that leaves every reward's bits as they are)."""
        costs = np.concatenate([np.full((self.num_states, 1), -0.0),
                                np.where(self.mask1[:, 1:], -self.cost1[:, 1:], -np.inf),
                                np.where(self.mask2[:, 1:], self.cost2[:, 1:], np.inf)],
                               axis=1)
        costs.setflags(write=False)
        return costs

    @cached_property
    def sampler_rows(self) -> tuple:
        """Per cell of :attr:`cells`, the next-state sampler, built once per
        game on first use: ``sampler_rows[s][c]`` is ``(row, raw reward)``,
        ``row`` an ``array('d')`` cumulative kernel row cut just before its
        last state with mass (where a draw past a row summing below 1 lands),
        so ``bisect_right(row, u)`` of a uniform ``u`` is the next state.
        Masked cells have rows too; a caller must not execute them.  It holds
        about as many doubles as the kernel of :attr:`cells` (37 MB at 800
        states and 3+3 actions), lives as long as the game and is shared:
        callers must not write to it."""
        kernel = self.cell_kernel
        last = self.num_states - 1 - np.argmax(kernel[..., ::-1] > 0, axis=2)
        return tuple(
            tuple((array("d", row[:n].tobytes()), r)
                  for row, n, r in zip(np.cumsum(kernel_s, axis=1), ends, rewards))
            for kernel_s, ends, rewards in zip(kernel, last.tolist(),
                                               to_cells(self.reward).tolist()))

    def _field(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != (self.num_states,):
            raise ValueError(f"a field must have the {self.num_states} states on its "
                             f"leading axis, got shape {x.shape}")
        return x

    def expect(self, x, state=None) -> np.ndarray:
        """``E[x(s') | s, cell]`` for every cell of :attr:`cells`, shape
        ``(S, A+B-1) + x.shape[1:]``, or ``(A+B-1,) + x.shape[1:]`` at the
        index ``state`` alone.  ``x`` holds the states on its leading axis
        (refused with ``ValueError`` otherwise) and any trailing axes.  All
        states are one product of the whole cell table (:func:`_expect`);
        one state is the product of its own rows, which may differ from the
        whole table's in the last bits."""
        kernel = self.cell_kernel
        if state is not None:
            kernel = kernel[_index(state, "state", self.num_states)]
        return _expect(kernel, self._field(x))

    def expect_pairs(self, x) -> np.ndarray:
        """``E[x(s') | s, a, b]`` for every action pair, shape ``(S, A, B) +
        x.shape[1:]``, ``x`` as in :meth:`expect`: one product of each stored
        table, placed by the pair layout, so the cells' entries are those of
        :meth:`expect` bit for bit.  No pair where both players act ever
        executes; this is for tables over all pairs, such as ``q``."""
        x = self._field(x)
        return _Pairs(_expect(self.cell_kernel, x), _expect(self.both_kernel, x),
                      self.num_actions1)[:]

    def chain_rows(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """Kernel rows ``(..., S, S)`` and net rewards ``(..., S)`` of one cell
        of :attr:`cells` per state: ``cells[..., s]`` is the column at state
        ``s``, and leading axes are a batch.  The rows come back dense
        ``(..., S, S)`` whatever the game stores, a sparse kernel included:
        a chain solve on them is S x S, and so :func:`impulsegames.solver.solve`
        takes its exact finish only on games of at most ``FINISH_MAX_STATES``
        states and only sweeps, through :meth:`expect`, above that."""
        kernel, net = self.cells
        states = np.arange(self.num_states)
        return kernel[states, cells], net[states, cells]


def check_kernel_size(num_states: int, num_actions1: int, num_actions2: int) -> None:
    """Refuse a game whose kernel would exceed ``MAX_KERNEL_ENTRIES``, before
    anything is allocated.  Action counts include the null action."""
    entries = num_states * num_states * num_actions1 * num_actions2
    if entries > MAX_KERNEL_ENTRIES:
        raise ValueError(
            f"a game of {num_states} states and {num_actions1}x{num_actions2} action pairs "
            f"has {entries} kernel entries, above the limit of {MAX_KERNEL_ENTRIES}")


def to_cells(table: np.ndarray) -> np.ndarray:
    """``table[:, a, b, ...]`` at the pairs that can execute, in the layout of
    :attr:`ImpulseGame.cells`: shape ``(S, A+B-1, ...)``."""
    return np.concatenate([table[:, :, 0], table[:, 0, 1:]], axis=1)


def _expect(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows ``kernel (..., S)`` applied to a field ``x (S, ...)`` over the next
    state, shape ``kernel.shape[:-1] + x.shape[1:]``: one product of all the
    rows with all of ``x``'s columns, the rule (and so the bits) of every
    expectation over a whole table."""
    ns = kernel.shape[-1]
    flat = kernel.reshape(-1, ns) @ x.reshape(ns, -1)
    return flat.reshape(kernel.shape[:-1] + x.shape[1:])


def cell_index(num_actions1: int, a, b) -> np.ndarray:
    """The column of :attr:`ImpulseGame.cells` that the pairs ``(a, b)``
    execute (arrays of actions, elementwise): ``A - 1 + b`` where Player 2
    acts, which takes precedence, else ``a``."""
    return np.where(b != 0, b + (num_actions1 - 1), a)


def _listed(code: str, bad: np.ndarray, describe) -> list[Violation]:
    """Violations ``code`` at the first ``_LISTED_PER_RULE`` true entries of
    ``bad``, in index order, with ``(where, message)`` from ``describe`` on
    the entry's indices; the last one listed says how many more there are,
    and counts them."""
    flat = np.flatnonzero(bad)
    listed = np.column_stack(np.unravel_index(flat[:_LISTED_PER_RULE], bad.shape)).tolist()
    out = [Violation(code, *describe(*index)) for index in listed]
    if len(flat) > len(out):
        more = len(flat) - len(out)
        out[-1] = out[-1]._replace(message=f"{out[-1].message} ({more} more)", count=1 + more)
    return out


def validate(game: ImpulseGame) -> list[Violation]:
    """Check every model invariant; violations come back as data, not raises.

    An empty list means the game is well-formed.  A rule broken at many
    entries lists only the first few (:func:`_listed`; per player for costs
    and masks).
    """
    out = []
    tables = (game.cell_kernel, game.both_kernel)

    def pairs(rule):  # a rule on both stored tables, in the (S, A, B, ...) layout
        return _Pairs(*map(rule, tables), game.num_actions1)[:]

    row_sums = pairs(lambda k: k.sum(axis=2))
    out += _listed("kernel-row-sum", np.abs(row_sums - 1.0) > KERNEL_ROW_TOL, lambda s, a, b: (
        (s, a, b),
        f"kernel row (s={s}, a={a}, b={b}) sums to {float(row_sums[s, a, b])!r}, expected 1"))
    # the full-layout mask only when an entry is negative; fmin passes over NaNs
    if any(np.fmin.reduce(k, axis=None, initial=0.0) < 0 for k in tables):
        out += _listed("kernel-negative", pairs(lambda k: k < 0), lambda s, a, b, t: (
            (s, a, b, t), f"kernel entry (s={s}, a={a}, b={b}, s'={t}) is negative"))
    if not all(np.isfinite(k).all() for k in tables):
        out.append(Violation("kernel-not-finite", (), "kernel has non-finite entries"))
    if not (game.cost_floor > 0):
        out.append(Violation(
            "cost-floor", (), f"cost_floor must be > 0, got {game.cost_floor!r}"))
    for name, costs in (("1", game.cost1), ("2", game.cost2)):
        out += _listed("cost-below-floor", ~(costs[:, 1:] >= game.cost_floor), lambda s, j: (
            (name, s, j + 1),
            f"cost{name}(s={s}, action={j + 1}) = {float(costs[s, j + 1])!r} "
            f"is below the floor {game.cost_floor}"))
    out += _listed("reward-not-finite", ~np.isfinite(game.reward), lambda *where: (
        where, f"reward at (s,a,b)={where} is not finite"))
    if not (0.0 <= game.discount < 1.0):
        out.append(Violation(
            "discount-range", (), f"discount must be < 1 and >= 0, got {game.discount!r}"))
    for name, mask in (("1", game.mask1), ("2", game.mask2)):
        out += _listed("mask-null-action", ~mask[:, 0], lambda s: (
            (name, s), f"null action of player {name} is masked at state {s}"))
    return out


def effective_reward(game: ImpulseGame, s: int, joint) -> float:
    """Player 1's net one-step payoff for the executed pair at state ``s``.

    The raw reward, minus Player 1's action cost when it acts, plus Player
    2's action cost when it acts (the minimiser paying a cost raises the
    maximiser's payoff under the zero-sum convention).  A ``joint`` that is
    not a pair is refused with ``ValueError``.
    """
    try:
        a, b = joint
    except (TypeError, ValueError):
        raise ValueError(f"joint must be a pair (a, b), got {joint!r}") from None
    _index(s, "state", game.num_states)
    _index(a, "action1", game.num_actions1)
    _index(b, "action2", game.num_actions2)
    r = float(game.reward[s, a, b])
    if a != 0:
        r -= float(game.cost1[s, a])
    if b != 0:
        r += float(game.cost2[s, b])
    return r


def player2_reward(game: ImpulseGame, s: int, joint) -> float:
    """Player 2's net payoff: exactly the negation of Player 1's."""
    return -effective_reward(game, s, joint)


def random_game(num_states: int, num_actions1: int, num_actions2: int, seed,
                gamma: float = 0.9, cost_floor: float = KAPPA_DEFAULT) -> ImpulseGame:
    """Draw a well-formed random game, deterministic in ``seed``.

    Action counts exclude the null action (it is always added in slot 0).
    Kernel rows are normalised uniform variates, rewards are uniform in
    [-1, 1] and costs uniform in [cost_floor, 2*cost_floor].
    """
    _count(num_states, "num_states", 1)
    _count(num_actions1, "num_actions1")
    _count(num_actions2, "num_actions2")
    _count(seed, "seed")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    if not (cost_floor > 0 and math.isfinite(2 * cost_floor)):
        raise ValueError(f"cost_floor must be positive with a finite double, got {cost_floor!r}")
    na, nb = num_actions1 + 1, num_actions2 + 1
    check_kernel_size(num_states, na, nb)
    rng = np.random.default_rng(seed)
    shape = (num_states, na, nb, num_states)
    pairs = _random_kernel(rng, shape, _draw_parts(shape))
    reward = rng.uniform(-1.0, 1.0, size=(num_states, na, nb))
    cost1 = np.zeros((num_states, na))
    if num_actions1:
        cost1[:, 1:] = rng.uniform(cost_floor, 2 * cost_floor, size=(num_states, num_actions1))
    cost2 = np.zeros((num_states, nb))
    if num_actions2:
        cost2[:, 1:] = rng.uniform(cost_floor, 2 * cost_floor, size=(num_states, num_actions2))
    for table in (reward, cost1, cost2):
        table.setflags(write=False)
    return ImpulseGame._from_pairs(pairs, reward, cost1, cost2, cost_floor, gamma)


def _draw_parts(shape: tuple) -> int:
    """How many threads draw a kernel of ``shape``: one per CPU this process
    may run on, but none with fewer than ``_ENTRIES_PER_PART`` entries or
    without a state of its own."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, math.prod(shape) // _ENTRIES_PER_PART, shape[0]))


def _random_kernel(rng: np.random.Generator, shape: tuple, parts: int) -> _Pairs:
    """Uniform [0.1, 1) draws of a kernel of ``shape`` from ``rng``, each
    last-axis row divided by its sum, with ``rng`` left after the draws: bit
    for bit the whole-array draw ``rng.uniform(0.1, 1.0, shape)`` normalised
    in place, but stored as the game stores it, split into its two tables
    (:class:`_Pairs`) by :func:`_fill_kernel`; the whole kernel is never built.

    The leading axis is cut into ``parts`` contiguous shares.  A share
    starting at ``lo > 0`` is drawn from a copy of ``rng``'s PCG64 advanced
    by ``lo`` states' entries (each double takes one 64-bit output, so the
    copy produces exactly the share's numbers) on a thread of its own;
    share 0 is drawn from ``rng`` itself on this thread once the copies are
    made.  All threads are joined before returning, and the first error
    raised in any share is raised here.
    """
    pairs = _empty_pairs(*shape[:3])
    per_state = math.prod(shape[1:])
    bounds = [i * shape[0] // parts for i in range(parts + 1)]
    errors = []

    def uniform(draws):  # `uniform(0.1, 1.0)` is `0.1 + (1.0 - 0.1) * random()`, in place
        def rows(block, lo):
            draws.random(out=block)
            block *= 1.0 - 0.1
            block += 0.1
        return rows

    def draw(draws, lo, hi):
        try:
            _fill_kernel(pairs, uniform(draws), lo, hi)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    copies = []
    for lo in bounds[1:-1]:
        bits = np.random.PCG64(0)
        bits.state = rng.bit_generator.state
        bits.advance(lo * per_state)
        copies.append(np.random.Generator(bits))
    threads = []
    try:
        for draws, lo, hi in zip(copies, bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=draw, args=(draws, lo, hi))
            thread.start()
            threads.append(thread)
        _fill_kernel(pairs, uniform(rng), bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    rng.bit_generator.advance((shape[0] - bounds[1]) * per_state)
    return pairs


def _fill_kernel(pairs: _Pairs, rows, lo: int, hi: int) -> None:
    """Fill states ``lo .. hi-1`` of the kernel tables ``pairs`` with the rows
    that ``rows(block, s)`` makes, each divided by its sum: the one loop of
    every generated kernel (:func:`random_game`'s draw, the duopoly).  Blocks
    of whole states, at most ``_BLOCK_ENTRIES`` entries (or one state), are
    made in one scratch buffer: ``rows`` writes the non-negative rows of
    states ``s .. s + len(block) - 1`` into ``block`` ``(k, A, B, S)``, which
    is divided by its row sums in place and split into the two tables."""
    shape = pairs.shape
    step = max(1, _BLOCK_ENTRIES // math.prod(shape[1:]))
    scratch = np.empty((min(step, hi - lo),) + shape[1:])
    for s in range(lo, hi, step):
        block = scratch[:min(step, hi - s)]
        rows(block, s)
        block /= block.sum(axis=-1, keepdims=True)
        pairs[s:s + len(block)] = block


def games_equal(g1: ImpulseGame, g2: ImpulseGame) -> bool:
    """Exact field-for-field equality (used for round-trip checks)."""
    return (
        g1.reward.shape == g2.reward.shape
        and np.array_equal(g1.cell_kernel, g2.cell_kernel)
        and np.array_equal(g1.both_kernel, g2.both_kernel)
        and np.array_equal(g1.reward, g2.reward)
        and np.array_equal(g1.cost1, g2.cost1)
        and np.array_equal(g1.cost2, g2.cost2)
        and np.array_equal(g1.mask1, g2.mask1)
        and np.array_equal(g1.mask2, g2.mask2)
        and g1.cost_floor == g2.cost_floor
        and g1.discount == g2.discount
    )


_REQUIRED_KEYS = ("states", "actions1", "actions2", "gamma", "cost_floor",
                  "rewards", "costs1", "costs2", "kernel")


def _game_doc(game: ImpulseGame) -> dict:
    """The game-spec document with its tables as arrays, the kernel as its
    two stored tables (:class:`_Pairs`, which :func:`save_game` writes a
    block of states at a time), the one layout :func:`game_to_dict` and
    :func:`save_game` write."""
    doc = {
        "states": game.num_states,
        "actions1": game.num_actions1,
        "actions2": game.num_actions2,
        "gamma": game.discount,
        "cost_floor": game.cost_floor,
        "rewards": game.reward,
        "costs1": game.cost1[:, 1:],
        "costs2": game.cost2[:, 1:],
        "kernel": game._pairs(),
    }
    if not game.mask1.all():
        doc["mask1"] = game.mask1.astype(int)
    if not game.mask2.all():
        doc["mask2"] = game.mask2.astype(int)
    return doc


def _plain(doc: dict) -> dict:
    """``doc`` with each array, :class:`_Table` or :class:`_Pairs` value replaced by its
    ``tolist()``: the public form of a document a private builder makes for
    :func:`_write_json`."""
    return {key: value.tolist() if isinstance(value, (np.ndarray, _Table, _Pairs)) else value
            for key, value in doc.items()}


def game_to_dict(game: ImpulseGame) -> dict:
    """The game-spec document as plain JSON-ready lists and scalars."""
    return _plain(_game_doc(game))


def save_game(game: ImpulseGame, path) -> None:
    """Write the game-spec JSON document (UTF-8, row-major dense arrays); the
    tables go to the writer as arrays, so no nested list of them is built."""
    _write_json(path, _game_doc(game))


def _reject_constant(token):
    raise GameFormatError(f"non-finite literal {token!r} is not allowed in game files")


def _numeric(doc, key):
    try:
        return np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"key '{key}' is not a numeric array: {exc}") from None


def _shaped(doc, key, shape):
    arr = _numeric(doc, key)
    if arr.shape != shape:
        raise GameFormatError(f"key '{key}' has shape {arr.shape}, expected {shape}")
    return arr


def _scalar(x, key, kind):
    """``x`` as a Python ``int`` or ``float``; a bool, a string, null or (for
    an int) a fractional number is a format error naming ``key``."""
    abc, noun = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a number")
    if isinstance(x, bool) or not isinstance(x, abc):
        raise GameFormatError(f"key '{key}' must be {noun}, got {x!r}")
    return kind(x)


def _count(x, name: str, low: int = 0, high: int | None = None) -> int:
    """``x`` as a Python ``int``; ``ValueError`` naming ``name`` unless it is an integer
    (not a bool; numpy integers pass) in ``low .. high`` (unbounded above for ``None``)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if x < low or (high is not None and x > high):
        rule = (f"lie in {low}..{high}" if high is not None
                else "be non-negative" if low == 0 else f"be at least {low}")
        raise ValueError(f"{name} must {rule}, got {x}")
    return int(x)


def _index(x, name: str, n: int) -> int:
    """``x`` as a Python ``int``; ``TypeError`` naming ``name`` unless it is an integer
    (not a bool; numpy integers pass), ``IndexError`` outside ``0 .. n-1``."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {x!r}")
    if not 0 <= x < n:
        raise IndexError(f"{name} {x} outside 0..{n - 1}")
    return int(x)


def _finite_table(values, name: str, shape: tuple) -> np.ndarray:
    """A float copy of ``values``, refused (``ValueError`` naming ``name``) unless
    it has ``shape`` and only finite entries."""
    table = np.array(values, dtype=float)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError(f"{name} must be finite")
    return table


def game_from_dict(doc: dict) -> ImpulseGame:
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise GameFormatError(f"missing key '{key}'")
    s, na, nb = (_scalar(doc[key], key, int) for key in ("states", "actions1", "actions2"))
    if s < 1 or na < 1 or nb < 1:
        raise GameFormatError("state and action counts must be positive")
    check_kernel_size(s, na, nb)
    reward = _shaped(doc, "rewards", (s, na, nb))
    kernel = _shaped(doc, "kernel", (s, na, nb, s))
    cost1 = np.zeros((s, na))
    if na > 1:
        cost1[:, 1:] = _shaped(doc, "costs1", (s, na - 1))
    cost2 = np.zeros((s, nb))
    if nb > 1:
        cost2[:, 1:] = _shaped(doc, "costs2", (s, nb - 1))
    mask1 = mask2 = None
    if "mask1" in doc:
        mask1 = _shaped(doc, "mask1", (s, na)).astype(bool)
    if "mask2" in doc:
        mask2 = _shaped(doc, "mask2", (s, nb)).astype(bool)
    game = ImpulseGame(kernel=kernel, reward=reward, cost1=cost1, cost2=cost2,
                       cost_floor=_scalar(doc["cost_floor"], "cost_floor", float),
                       discount=_scalar(doc["gamma"], "gamma", float),
                       mask1=mask1, mask2=mask2)
    violations = validate(game)
    if violations:
        raise GameValidationError(violations)
    return game


def _read_spec(path) -> dict:
    """The top-level JSON object of a game-spec file, read strictly: bad JSON,
    a non-finite literal or a top-level value other than an object raises
    ``GameFormatError``."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise GameFormatError("top-level JSON value must be an object")
    return doc


def load_game(path) -> ImpulseGame:
    """Parse and validate a game-spec JSON file.

    Raises ``GameFormatError`` naming the offending key on schema problems
    and ``GameValidationError`` carrying the violation list on semantic ones.
    """
    return game_from_dict(_read_spec(path))


def _basis_from_dict(doc: dict):
    """The optional `basis` matrix of a parsed game-spec document, or None."""
    if "basis" not in doc:
        return None
    arr = _numeric(doc, "basis")
    if arr.ndim != 2 or arr.shape[0] != _scalar(doc.get("states", arr.shape[0]), "states", int):
        raise GameFormatError("key 'basis' must be a (states x features) matrix")
    return arr


def load_basis(path):
    """Read the optional `basis` matrix from a game-spec file, or None."""
    return _basis_from_dict(_read_spec(path))
