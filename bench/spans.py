"""Span tracing of the package's layers from outside the package.

``Tracer.install`` rebinds every public module-level function of the traced
modules (and the ``cli.cmd_*``/``cli.main`` entry points, and
``SamplingEnv.step``/``reset``) to a timing wrapper, in every
``impulsegames`` module namespace that holds a reference to it, so calls
made through ``from .solver import solve`` are caught as well as calls
inside the defining module.  ``uninstall`` puts the originals back.

Each call records a span ``(index, name, start, end, parent, job)`` in
memory; ``save`` writes them out.  Self time (a span's duration minus the
time its child spans cover) is accumulated as spans close.  Hooks read a
call's arguments and result to count work (sweeps, samples, steps); the
time a hook takes is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "impulsegames"
LAYERS = ("game", "envs", "solver", "qlearn", "linfa", "budget", "sim", "cli")


class Frame:
    __slots__ = ("index", "name", "child")

    def __init__(self, index, name):
        self.index = index
        self.name = name
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: list[list] = []  # per name: [calls, total_s, self_s]
        self.stack: list[Frame] = []
        self.job = -1
        self.counters: dict[str, float] = {}
        self.hooks: dict[str, object] = {}
        self._spans = tuple(array(code) for code in "qqddqq")
        self._next = 0
        self._wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._build()

    # -- construction -----------------------------------------------------

    def _targets(self):
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    yield f"{layer}.{name}", obj
        envs = sys.modules[f"{PACKAGE}.envs"]
        for meth in ("step", "reset"):
            yield f"envs.SamplingEnv.{meth}", getattr(envs.SamplingEnv, meth)

    def _build(self):
        for name, fn in self._targets():
            self._wrapped[id(fn)] = (fn, self._wrap(name, fn))
        cls = sys.modules[f"{PACKAGE}.envs"].SamplingEnv
        self._methods = [(cls, meth, *self._wrapped[id(getattr(cls, meth))])
                         for meth in ("step", "reset")]

    def _name_id(self, name):
        self.names.append(name)
        self.stats.append([0, 0.0, 0.0])
        return len(self.names) - 1

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        stat = self.stats[nid]
        stack = self.stack
        clock = time.perf_counter
        idx_a, name_a, start_a, end_a, parent_a, job_a = self._spans
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._next
            tracer._next = index + 1
            frame = Frame(index, name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame.child
                idx_a.append(index)
                name_a.append(nid)
                start_a.append(t0)
                end_a.append(t1)
                parent_a.append(parent.index if parent is not None else -1)
                job_a.append(tracer.job)
                if parent is not None:
                    parent.child += dur
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(tracer, args, kwargs, result, parent)
                if parent is not None:
                    parent.child += clock() - t1
            return result

        return functools.update_wrapper(traced, fn)

    # -- install / uninstall ---------------------------------------------

    def _modules(self):
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def _rebind(self, swap):
        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in swap:
                    setattr(mod, name, swap[id(obj)])

    def install(self):
        self._rebind({id(o): w for o, w in self._wrapped.values()})
        for cls, meth, _orig, wrapper in self._methods:
            setattr(cls, meth, wrapper)

    def uninstall(self):
        self._rebind({id(w): o for o, w in self._wrapped.values()})
        for cls, meth, orig, _wrapper in self._methods:
            setattr(cls, meth, orig)

    # -- results ----------------------------------------------------------

    def count(self, key, amount=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def in_call(self, name) -> bool:
        """True when a span named ``name`` is open on the stack."""
        return any(f.name == name for f in self.stack)

    def stat(self, name) -> tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of a traced function, zeros if never called."""
        try:
            calls, total, self_s = self.stats[self.names.index(name)]
        except ValueError:
            return 0, 0.0, 0.0
        return calls, total, self_s

    def layer_self(self) -> dict[str, float]:
        """Self time summed per layer (module)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, self_s) in zip(self.names, self.stats):
            out[name.split(".", 1)[0]] += self_s
        return out

    @property
    def span_count(self) -> int:
        return len(self._spans[0])

    def save(self, path) -> None:
        idx, nid, start, end, parent, job = self._spans
        np.savez(path, index=np.frombuffer(idx, dtype=np.int64),
                 name=np.frombuffer(nid, dtype=np.int64),
                 start=np.frombuffer(start), end=np.frombuffer(end),
                 parent=np.frombuffer(parent, dtype=np.int64),
                 job=np.frombuffer(job, dtype=np.int64), names=np.array(self.names))
