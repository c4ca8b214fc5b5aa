"""The transition has one home: ``ImpulseGame.expect`` (the expectation of a
field under each cell), ``ImpulseGame.expect_pairs`` (the same under every
action pair) and ``ImpulseGame.chain_rows`` (the kernel rows and net rewards
of one cell per state).  Outside ``game.py`` no module of
``src/impulsegames`` reads the kernel or its stored tables itself, bar the
dense budget reference, and the entries match plain loops over the full
kernel."""

import ast
from pathlib import Path

import numpy as np
import pytest

import impulsegames as ig
from impulsegames.game import to_cells
from _oracles import loop_chain_rows, loop_expect
from conftest import randomly_masked

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "impulsegames"

# The readers of the full kernel outside game.py, by module and qualified name:
# the dense budget model.
EXEMPT = {("budget.py", "AugmentedGame.game")}
# The kernel and the two tables a game stores it in.
KERNEL_NAMES = {"kernel", "cell_kernel", "both_kernel"}


def _kernel_reads(path):
    """``(qualified name of the enclosing definition, line)`` of every read of
    ``.kernel`` or a stored kernel table, and of ``.cells`` other than
    ``.cells[1]`` (net rewards), in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def owner(node):
        names = []
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
        return ".".join(reversed(names))

    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parent = parents[node]
        net_only = (isinstance(parent, ast.Subscript) and parent.value is node
                    and isinstance(parent.slice, ast.Constant) and parent.slice.value == 1)
        if node.attr in KERNEL_NAMES or (node.attr == "cells" and not net_only):
            yield owner(node), node.lineno


def test_only_game_and_the_named_exemptions_read_the_kernel():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "game.py")
    assert len(modules) > 5
    reads = {(path.name, name, line) for path in modules for name, line in _kernel_reads(path)}
    outside = sorted(f"{module}:{line} in {name or 'module'}" for module, name, line in reads
                     if (module, name) not in EXEMPT)
    assert outside == []
    assert {(module, name) for module, name, _ in reads} == EXEMPT


def _games():
    return {
        "random": ig.random_game(7, 2, 3, seed=3),
        "masked": randomly_masked(ig.random_game(6, 3, 1, seed=4), 4),
        "no-actions": ig.random_game(5, 0, 0, seed=5),
        "duopoly": ig.build_duopoly_game(ig.DuopolyParams(grid_size=6)),
    }


GAMES = _games()


def _fields(ns):
    rng = np.random.default_rng(ns)
    return {"1-D": rng.normal(size=ns), "2-D": rng.normal(size=(ns, 3)),
            "3-D": rng.normal(size=(ns, 2, 3))}


@pytest.mark.parametrize("field", ["1-D", "2-D", "3-D"])
@pytest.mark.parametrize("name", list(GAMES))
def test_expect_matches_the_loop_at_every_state_and_at_one(name, field):
    game = GAMES[name]
    x = _fields(game.num_states)[field]
    ncells = game.num_actions1 + game.num_actions2 - 1
    ev = game.expect(x)
    assert ev.shape == (game.num_states, ncells) + x.shape[1:]
    np.testing.assert_allclose(ev, loop_expect(game, x), rtol=0, atol=1e-12)
    for s in range(game.num_states):
        one = game.expect(x, state=s)
        assert one.shape == (ncells,) + x.shape[1:]
        np.testing.assert_allclose(one, loop_expect(game, x, state=s), rtol=0, atol=1e-12)


@pytest.mark.parametrize("field", ["1-D", "2-D", "3-D"])
@pytest.mark.parametrize("name", list(GAMES))
def test_expect_pairs_matches_the_loop_and_is_expect_on_the_cells(name, field):
    game = GAMES[name]
    ns, na, nb = game.reward.shape
    x = _fields(ns)[field]
    ev = game.expect_pairs(x)
    assert ev.shape == (ns, na, nb) + x.shape[1:]
    want = np.zeros(ev.shape)
    for s, a, b, t in np.ndindex(ns, na, nb, ns):
        want[s, a, b] += game.kernel[s, a, b, t] * x[t]
    np.testing.assert_allclose(ev, want, rtol=0, atol=1e-12)
    assert to_cells(ev).tobytes() == game.expect(x).tobytes()
    with pytest.raises(ValueError, match=f"the {ns} states on its leading axis"):
        game.expect_pairs(x[1:])


def test_expect_of_a_list_field_and_of_a_numpy_state():
    game = GAMES["random"]
    v = [float(i) for i in range(game.num_states)]
    assert np.array_equal(game.expect(v), game.expect(np.array(v)))
    assert np.array_equal(game.expect(v, state=np.int64(2)), game.expect(v, state=2))


@pytest.mark.parametrize("batch", [(), (4,), (2, 3)], ids=["one", "batch", "batch-2d"])
@pytest.mark.parametrize("name", list(GAMES))
def test_chain_rows_match_the_loop(name, batch):
    game = GAMES[name]
    ncells = game.num_actions1 + game.num_actions2 - 1
    cells = np.random.default_rng(len(batch)).integers(ncells, size=batch + (game.num_states,))
    p, r = game.chain_rows(cells)
    want_p, want_r = loop_chain_rows(game, cells)
    assert p.shape == batch + (game.num_states, game.num_states) and r.shape == cells.shape
    np.testing.assert_allclose(p, want_p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(r, want_r, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(4,), (6,), (2, 5), ()], ids=str)
def test_expect_refuses_a_field_without_the_states_on_its_leading_axis(shape):
    game = ig.random_game(5, 1, 1, seed=0)
    with pytest.raises(ValueError, match=r"the 5 states on its leading axis"):
        game.expect(np.zeros(shape))


@pytest.mark.parametrize("state,error", [(5, IndexError), (-1, IndexError), (True, TypeError),
                                         (1.0, TypeError)])
def test_expect_refuses_a_bad_state_by_name(state, error):
    game = ig.random_game(5, 1, 1, seed=0)
    with pytest.raises(error, match="state"):
        game.expect(np.zeros(5), state=state)
