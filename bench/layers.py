"""Per-layer tracing of hqmoduli from outside the package.

The modules bind each other's functions with ``from ... import``, so a
wrapper replaces a function under every name that holds it in every
``hqmoduli.*`` namespace (and in the benchmark's own modules); for
example ``boundary`` calls its own binding of ``herm``.
``QMatrix.__matmul__`` is wrapped on the class.  Hot, tiny functions get
call counts only; the others also get inclusive and self time, where
self time is a call's duration minus the part spent in timed calls it
made.  Time spent in count-only functions stays in the caller's self
time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute) pairs; "QMatrix.__matmul__" is reported as
# "qmatrix.matmul"
COUNTED = (("hform", "herm"), ("hform", "form_matrix"), ("hform", "classify"),
           ("qmatrix", "QMatrix.__matmul__"))
TIMED = (("gram", "gram"), ("gram", "rescale_gram"),
         ("gram", "span_dimension"), ("gram", "inertia"), ("gram", "realize"),
         ("triangle", "classify_triangle"), ("triangle", "realize_triangle"),
         ("boundary", "semi_normalize"), ("boundary", "boundary_coordinate"),
         ("positive", "one_normalize"), ("positive", "detect_partition"),
         ("positive", "regular_coordinate"),
         ("positive", "parabolic_coordinates"),
         ("quat", "rotation_normalize_vector"))
SAMPLING = (("sampling", "random_null_tuple"),
            ("sampling", "random_regular_tuple"),
            ("sampling", "random_parabolic_tuple"),
            ("sampling", "random_rescaling"), ("hform", "random_isometry"))


def layer_name(module: str, attr: str) -> str:
    if attr == "QMatrix.__matmul__":
        return "qmatrix.matmul"
    return f"{module}.{attr}"


class Tracer:
    """Installs wrappers, accumulates counts and times, and restores the
    original functions on ``uninstall``.  Use one tracer per pass."""

    def __init__(self, extra_namespaces=()):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.missing: list[str] = []
        self._extra = list(extra_namespaces)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------
    def _counted(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, key, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[key] += 1
                total[key] += elapsed
                self_time[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed
        return wrapper

    # -- installation ------------------------------------------------------
    def _namespaces(self):
        mods = [m for name, m in list(sys.modules.items())
                if name == "hqmoduli" or name.startswith("hqmoduli.")]
        return mods + self._extra

    def install(self, counted=COUNTED, timed=TIMED) -> "Tracer":
        namespaces = self._namespaces()
        for targets, make in ((counted, self._counted), (timed, self._timed)):
            for module, attr in targets:
                key = layer_name(module, attr)
                mod = sys.modules.get(f"hqmoduli.{module}")
                if attr == "QMatrix.__matmul__":
                    cls = getattr(mod, "QMatrix", None)
                    fn = getattr(cls, "__matmul__", None)
                    if fn is None:
                        self.missing.append(key)
                        continue
                    self._saved.append((cls, "__matmul__", fn))
                    setattr(cls, "__matmul__", make(key, fn))
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(key)
                    continue
                wrapper = make(key, fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._saved.append((ns, name, fn))
                            setattr(ns, name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()
