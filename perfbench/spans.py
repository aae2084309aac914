"""Spans around calls into the program's public functions.

The program itself is not instrumented. :func:`install` wraps a named
public function (or method) and rebinds the wrapper at every module
attribute of the ``repro`` package that binds the original, so callers
that imported the name directly are traced too. Spans are kept in memory
and summarised per layer at the end of the run.

A call into a layer that is already open on the same thread is not a new
span: the layer's busy time is the time of its outermost calls.
"""

import sys
import threading
import time

from arith import self_times


class Tracer:
    """Records spans ``(id, parent, layer, start, end)`` per thread."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: When False, wrapped calls run untimed (a flag check only).
        self.enabled = True

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer, fn, args, kwargs, counter=None):
        """Run ``fn`` inside a span; ``counter`` turns the call into counts.

        ``counter(args, kwargs, result)`` returns ``{name: amount}``
        work counts added to :attr:`counts`.
        """
        if not self.enabled or any(
            entry[1] == layer for entry in self._stack()
        ):
            return fn(*args, **kwargs)
        with _CallSpan(self, layer):
            result = fn(*args, **kwargs)
        if counter is not None:
            for name, amount in counter(args, kwargs, result).items():
                self.count(name, amount)
        return result

    def span(self, layer):
        """Context manager for a span the benchmark opens itself."""
        return _CallSpan(self, layer)

    def summary(self):
        """Per layer: busy seconds, outermost calls and self seconds."""
        selfs = self_times(self.spans)
        layers = {}
        for span in self.spans:
            entry = layers.setdefault(
                span["layer"], {"busy_s": 0.0, "calls": 0, "self_s": 0.0}
            )
            entry["busy_s"] += span["end"] - span["start"]
            entry["calls"] += 1
            entry["self_s"] += selfs[span["id"]]
        return layers


class _CallSpan:
    """``with tracer.span(layer):`` — a span around a block of code."""

    def __init__(self, tracer, layer):
        self._tracer = tracer
        self._layer = layer

    def __enter__(self):
        stack = self._tracer._stack()
        with self._tracer._lock:
            self._id = self._tracer._next_id
            self._tracer._next_id += 1
        self._parent = stack[-1][0] if stack else None
        stack.append((self._id, self._layer))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self._tracer._stack().pop()
        with self._tracer._lock:
            self._tracer.spans.append({
                "id": self._id, "parent": self._parent,
                "layer": self._layer, "start": self._start, "end": end,
            })
        return False


def _resolve(path):
    """``"pkg.mod:Class.method"`` -> (owner object, attribute name, value)."""
    module_name, _, qualname = path.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        owner = __import__(module_name, fromlist=["_"])
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer, layer, path, counter=None):
    """Wrap the function at ``path`` and rebind it everywhere it is bound.

    Methods (``Class.method``) are rebound on their class, keeping
    a ``classmethod`` a classmethod. Module-level functions are
    rebound on every loaded ``repro`` module attribute that holds the
    original. Returns the number of bindings replaced.
    """
    owner, name = _resolve(path)
    if isinstance(owner, type):
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            inner = raw.__func__

            def method(cls, *args, **kwargs):
                return tracer.call(layer, inner, (cls,) + args, kwargs, counter)

            setattr(owner, name, classmethod(_named(method, inner)))
        else:
            def method(*args, **kwargs):
                return tracer.call(layer, raw, args, kwargs, counter)

            setattr(owner, name, _named(method, raw))
        return 1

    original = getattr(owner, name)

    def function(*args, **kwargs):
        return tracer.call(layer, original, args, kwargs, counter)

    wrapper = _named(function, original)
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


def _named(wrapper, original):
    wrapper.__name__ = getattr(original, "__name__", wrapper.__name__)
    wrapper.__qualname__ = getattr(
        original, "__qualname__", wrapper.__qualname__
    )
    wrapper.__doc__ = getattr(original, "__doc__", None)
    wrapper.__wrapped__ = original
    return wrapper
