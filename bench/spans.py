"""In-memory call tracer for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of every ``hardyheat`` module,
a few methods, the check-suite runners and three scipy kernels, and rebinds
each wrapper under every name that held the original. ``suites``,
``estimators`` and ``cli`` import functions by name, so patching only the
defining module would miss their calls.

Spans are aggregated as they close: per span name the call count, the
inclusive time of outermost calls (a recursive or re-entrant call is not
counted twice), the self time (inclusive minus the time of child spans),
distinct argument keys, bytes and computed work. For the coverage figure the
tracer keeps the intervals of named work: every span called by ``cli.main``,
every span called outside it, and the output stage of each ``cli.main`` call
(from the end of its last child span to its return: the CLI's inline report,
state and kernel writers), which is also the span ``cli.writers``. Nothing is
written until the caller reads ``summary()`` at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time

import numpy as np

MODULES = ("specfun", "grids", "scenario", "operators", "evolution", "estimators",
           "suites", "runstore", "cli")

# Wrapped although not listed in __all__: called across modules all the same.
_EXTRA_FUNCS = {("scenario", "validate_for_suite"), ("evolution", "default_truncation_schedule")}
# Spans that share a name: every quadratic-form entry point counts as one layer.
_SPAN_NAMES = {("operators", "form_value"): "operators.forms"}
CLI = "cli.main"


def _key(obj):
    """A hashable stand-in for an argument, cheap for the arguments keyed here."""
    from hardyheat.grids import Grid
    from hardyheat.operators import DiscreteOperator
    from hardyheat.specfun import FractionalParams

    if isinstance(obj, np.ndarray):
        return (obj.shape, hashlib.sha1(np.ascontiguousarray(obj).tobytes()).hexdigest())
    if isinstance(obj, Grid):
        return ("grid", obj.h, tuple(map(tuple, obj.bounds)))
    if isinstance(obj, FractionalParams):
        return ("params", obj.d, obj.alpha)
    if isinstance(obj, DiscreteOperator):
        return ("op", _key(obj.grid), _key(obj.params), obj.c, obj.k)
    if isinstance(obj, (list, tuple)):
        return tuple(_key(v) for v in obj)
    return repr(obj)


def _args_key(args, kwargs):
    return (_key(args), tuple(sorted((k, _key(v)) for k, v in kwargs.items())))


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class _Stat:
    __slots__ = ("calls", "s", "self_s", "keys", "bytes", "n3", "depth", "hits")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.keys = set()
        self.bytes = 0
        self.n3 = 0
        self.depth = 0
        self.hits = 0


class Tracer:
    """Wraps hardyheat's layers in place; one instance per traced process."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.named: list[tuple[float, float]] = []  # intervals of named work
        # One [time of child spans, span name, end of the last child] per open span.
        self._stack: list[list] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _wrap(self, name, fn, key=None, after=None):
        """Return a wrapper that times ``fn`` as span ``name``.

        ``key(args, kwargs)`` adds a distinct-argument key; ``after(st, args,
        kwargs, result)`` records bytes, work or cache hits from the call.
        """
        st = self._stat(name)
        writers = self._stat("cli.writers")
        stack = self._stack
        named = self.named
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                st.keys.add(key(args, kwargs))
            frame = [0.0, name, None]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dur - frame[0]
                if st.depth == 0:
                    st.s += dur
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[2] = t1
                    if parent[1] == CLI:
                        named.append((t0, t1))
                elif name != CLI:
                    named.append((t0, t1))
                elif frame[2] is not None:
                    writers.calls += 1
                    writers.s += t1 - frame[2]
                    named.append((frame[2], t1))
            if after is not None:
                after(st, args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hardyheat.{m}") for m in MODULES}
        replace = {}  # id(original) -> wrapper

        def add(orig, wrapper):
            replace[id(orig)] = (orig, wrapper)

        keyed = {
            ("operators", "assemble_operator"): _args_key,
            ("operators", "killing_term"): _args_key,
            ("operators", "exterior_power_tail"): _args_key,
            ("estimators", "t_ref"): _args_key,
        }

        def save_bytes(st, args, kwargs, result):
            st.bytes += _file_bytes(*result)

        def load_bytes(st, args, kwargs, result):
            base = args[0] if args else kwargs["base"]
            st.bytes += _file_bytes(base + ".csv", base + ".json")

        after = {
            ("operators", "save_operator"): save_bytes,
            ("operators", "load_operator"): load_bytes,
        }
        for mname, mod in mods.items():
            names = set(getattr(mod, "__all__", ())) | {f for m, f in _EXTRA_FUNCS if m == mname}
            for fname in sorted(names):
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = _SPAN_NAMES.get((mname, fname), f"{mname}.{fname}")
                add(fn, self._wrap(span, fn, key=keyed.get((mname, fname)),
                                   after=after.get((mname, fname))))

        ops = mods["operators"]
        cls = ops.DiscreteOperator
        cls.with_truncation = self._wrap("operators.with_truncation", cls.with_truncation)
        for meth in ("plain", "hardy", "weighted", "exterior_gap_bound"):
            setattr(ops.FormEvaluator, meth,
                    self._wrap("operators.forms", getattr(ops.FormEvaluator, meth)))

        def run_after(st, args, kwargs, result):
            st.hits += int(bool(result[1]))

        rs = mods["runstore"].RunStore
        rs.run = self._wrap("runstore.run", rs.run, after=run_after)
        rs.save_report = self._wrap("runstore.save_report", rs.save_report)
        rs.cached_report = self._wrap("runstore.cached_report", rs.cached_report)

        runners = mods["suites"]._RUNNERS
        for sname, fn in list(runners.items()):
            runners[sname] = self._wrap(f"suites.{sname}", fn)

        def n3_after(st, args, kwargs, result):
            a = args[0] if args else next(iter(kwargs.values()))
            st.n3 += int(np.shape(a)[0]) ** 3

        ev, est = mods["evolution"], mods["estimators"]
        add(ev.expm, self._wrap("kernel.expm", ev.expm, after=n3_after))
        add(est.eigvalsh, self._wrap("kernel.eigh", est.eigvalsh, after=n3_after))
        import scipy.integrate

        scipy.integrate.quad = self._wrap("kernel.quad", scipy.integrate.quad)

        for mod in [m for n, m in sys.modules.items() if n == "hardyheat" or n.startswith("hardyheat.")]:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span statistics plus the intervals of named work, as plain JSON."""
        spans = {
            name: {
                "calls": st.calls,
                "s": st.s,
                "self_s": st.self_s,
                "distinct": len(st.keys),
                "bytes": st.bytes,
                "n3": st.n3,
                "hits": st.hits,
            }
            for name, st in self.stats.items()
        }
        return {"spans": spans, "named": self.named}
