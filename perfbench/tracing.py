"""In-memory spans around calls into a package's public functions.

`Tracer.instrument(modules)` swaps every public function and public method
defined in the package for a wrapper that records a span, and puts the
originals back on exit; the package's source is untouched. A span is
[name, start, end, parent], with times from `time.perf_counter` and parent
the index of the enclosing span (-1 at the top). Spans stay in memory until
`dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def instrument(self, modules, package: str):
        """Record a span for each call into a public function or method of `package`.

        A function imported into several modules gets one wrapper, named
        after the module that defines it (`exact.is_connected` becomes
        `graphs.is_connected`).
        """
        saved = []
        wrappers = {}

        def traced(fn, owner_name):
            if id(fn) not in wrappers:
                short = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = self.wrap(f"{short}.{owner_name}{fn.__name__}", fn)
            return wrappers[id(fn)]

        def ours(obj) -> bool:
            return getattr(obj, "__module__", "").startswith(package + ".")

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and ours(obj):
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, traced(obj, ""))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, mobj in list(vars(obj).items()):
                        if mattr.startswith("_"):
                            continue
                        if inspect.isfunction(mobj):
                            new = traced(mobj, obj.__name__ + ".")
                        elif isinstance(mobj, classmethod):
                            new = classmethod(traced(mobj.__func__, obj.__name__ + "."))
                        else:
                            continue
                        saved.append((obj, mattr, mobj))
                        setattr(obj, mattr, new)
        try:
            yield
        finally:
            for owner, attr, obj in reversed(saved):
                setattr(owner, attr, obj)

    def roots(self) -> list[str]:
        """Name of the top-level span each span descends from."""
        root: list[int] = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return [self.spans[r][0] for r in root]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
