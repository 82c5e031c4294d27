"""Span tracer that times calls into tsgad without editing the program.

The pipeline looks its collaborators up by module-level name at call time
(``batch_alignment`` in ``tsgad.train``, ``sinkhorn_wd`` in ``tsgad.align``,
``ad.backward`` in ``tsgad.autodiff`` ...). ``Tracer.installed`` replaces
each traced name, wherever a loaded tsgad module holds it, with a wrapper
that records one span per call, and puts the originals back on exit.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of
the innermost traced span open when the call began (-1 at top level).
Names of tagged targets get a ``.grad`` or ``.nograd`` suffix, taken from
how many ``autodiff.no_grad`` blocks are open; ``no_grad`` itself is
rebound to keep that count.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

STATS = ("busy_s", "self_s", "calls")


@dataclass(frozen=True)
class Target:
    """One traced name: ``qualname`` is a function or ``Class.method`` of ``module``."""

    module: str
    qualname: str
    tagged: bool = False  # suffix the span name with the autodiff mode
    after: Callable | None = None  # after(args, kwargs, result, mode), outside the span

    @property
    def name(self):
        return f"{self.module.removeprefix('tsgad.')}.{self.qualname}"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.nograd_depth = 0
        self.hook_s = 0.0  # time spent in ``after`` callbacks
        self._open = []
        self._bindings = []  # (owner, attribute, original), in install order

    @property
    def mode(self):
        return "nograd" if self.nograd_depth else "grad"

    def wrap(self, name, fn, tagged=False, after=None):
        """Return ``fn`` wrapped so that each call records a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{tracer.mode}" if tagged else name
            span = [label, 0.0, 0.0, tracer._open[-1] if tracer._open else -1]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer._open.pop()
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result, tracer.mode)
                tracer.hook_s += time.perf_counter() - t0
            return result

        return traced

    def _counting_no_grad(self, original):
        tracer = self

        @functools.wraps(original)
        @contextlib.contextmanager
        def no_grad():
            with original():
                tracer.nograd_depth += 1
                try:
                    yield
                finally:
                    tracer.nograd_depth -= 1

        return no_grad

    def _rebind(self, owner, attribute, replacement):
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            holders = [(owner, attribute)]
        else:
            # every tsgad module that imported the function by name holds it too
            holders = [
                (module, key)
                for modname, module in list(sys.modules.items())
                if modname == "tsgad" or modname.startswith("tsgad.")
                for key, value in list(vars(module).items())
                if value is original
            ]
        for holder, key in holders:
            self._bindings.append((holder, key, original))
            setattr(holder, key, replacement)

    @contextlib.contextmanager
    def installed(self, targets):
        """Trace ``targets`` (and count ``no_grad`` blocks) inside the block."""
        try:
            autodiff = importlib.import_module("tsgad.autodiff")
            self._rebind(autodiff, "no_grad", self._counting_no_grad(autodiff.no_grad))
            for target in targets:
                owner = importlib.import_module(target.module)
                *classes, attribute = target.qualname.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, attribute)
                self._rebind(owner, attribute,
                             self.wrap(target.name, original, target.tagged, target.after))
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._bindings:
            holder, key, original = self._bindings.pop()
            setattr(holder, key, original)

    def totals(self):
        """Per span name: summed duration, self time and call count.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, dict.fromkeys(STATS, 0))
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - covered[index]
            agg["calls"] += 1
        return out


def wrapper_cost(calls=20000):
    """Seconds a traced call adds over a direct one (mean over ``calls``)."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t0 - direct) / calls)
