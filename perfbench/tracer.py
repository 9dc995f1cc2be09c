"""Outside-in tracer for the proctensor package.

Wraps every public function of the package's modules, without touching
their source. A function is public when it is defined at module level in
that module and its name does not start with ``_`` (``__all__`` is not
used: ``linalg`` has none and ``states.__all__`` re-exports ``kron``).
Each function is patched in every namespace that binds it, the defining
module, every module that did ``from .x import f`` and the package
itself, so calls from one module into another are traced too.

Per function it counts calls and sums inclusive and self time, where self
time is inclusive time minus the inclusive time of wrapped children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, package: str, modules):
        self.package = importlib.import_module(package)
        self.modules = {m: importlib.import_module(f"{package}.{m}")
                        for m in modules}
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.hooks = {}  # traced name -> callable(args, kwargs) on entry
        self._stack = []  # inclusive time of wrapped children, per frame
        self._patches = []  # (namespace, attribute, original)

    def public_functions(self) -> dict:
        """{function object: "module.function"} for every public function."""
        found = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[obj] = f"{short}.{name}"
        return found

    def _wrap(self, name, fn):
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        stack, hooks = self._stack, self.hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook = hooks.get(name)
            if hook is not None:
                hook(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter() - t0
                children = stack.pop()
                calls[name] += 1
                incl_s[name] += total
                self_s[name] += total - children
                if stack:
                    stack[-1] += total
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = self.public_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for ns in (self.package, *self.modules.values()):
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((ns, attr, val))
                    setattr(ns, attr, wrappers[val])

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._patches):
            setattr(ns, attr, val)
        self._patches.clear()
