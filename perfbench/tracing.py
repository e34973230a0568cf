"""Spans around the program's public entry points, installed from outside.

Each span wraps one callable found by (module, attribute path).  A wrapped
call records its count, inclusive time and self time (inclusive minus the
time of wrapped calls made inside it).  A target that a later version of the
program renames or removes is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns


class Span:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.spans = {}
        self.absent = set()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                span.calls += 1
                span.total_ns += dt
                span.self_ns += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def _patch(self, owner, attr, name):
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            return False
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, self._wrap(name, original))
        return True

    def install(self, name, module, attr, owners=()):
        """Wrap ``module.attr`` (a dotted path for methods) as span ``name``.

        ``owners`` names further modules that imported the same function by
        name; their bindings are wrapped too so that every call is seen.
        """
        found = False
        for mod_name in (module, *owners):
            try:
                obj = importlib.import_module(mod_name)
                *path, last = attr.split(".")
                for part in path:
                    obj = getattr(obj, part)
                if last in vars(obj):
                    found = self._patch(obj, last, name) or found
            except (ImportError, AttributeError, TypeError):
                continue
        if not found:
            self.absent.add(name)
            self.spans.setdefault(name, Span())

    def install_methods(self, name, module, base, method):
        """Wrap ``method`` on every subclass of ``module.base`` that defines it."""
        try:
            root = getattr(importlib.import_module(module), base)
        except (ImportError, AttributeError):
            root = None
        found = False
        seen, todo = set(), [root] if isinstance(root, type) else []
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if method in vars(cls) and callable(vars(cls)[method]):
                found = self._patch(cls, method, name) or found
        if not found:
            self.absent.add(name)
            self.spans.setdefault(name, Span())

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def install_homcone_spans(tracer):
    """The layer boundaries the per-layer metrics are read from."""
    pkg = "homcone"
    tracer.install("homproj.project_homogenization", pkg, "project_homogenization",
                   owners=(f"{pkg}.homproj",))
    tracer.install("homproj.find_alpha_star", f"{pkg}.homproj", "find_alpha_star")
    tracer.install("homproj.project_ice_cream", f"{pkg}.homproj", "project_ice_cream")
    tracer.install("homproj.project_ball_pen", f"{pkg}.homproj", "project_ball_pen")
    tracer.install("scaledfun.psi_prime", f"{pkg}.scaledfun", "PsiEvaluator.psi_prime")
    tracer.install("sets.as_vector", f"{pkg}.sets", "as_vector",
                   owners=(f"{pkg}.scaledfun", f"{pkg}.homproj"))
    tracer.install_methods("sets.project", f"{pkg}.sets", "ConvexSet", "project")
    tracer.install_methods("sets.contains", f"{pkg}.sets", "ConvexSet", "contains")
    tracer.install_methods("sets.support", f"{pkg}.sets", "ConvexSet", "support")
