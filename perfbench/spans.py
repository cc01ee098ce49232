"""Per-layer spans recorded from outside the package.

Each traced function is replaced, for the duration of a traced phase, by a
wrapper that times the call and subtracts the time of traced calls made
inside it, so every layer gets a call count and a self time.

A wrapper must replace the name the caller looks up. Modules such as
`enumeration`, `games` and `balanced` bind kernel and simplex functions to
their own names at import time, so the tracer rebinds every module-level
name in the package that refers to the original function, not only the
one in the defining module.
"""
import functools
import importlib
import os
import sys
import time

PACKAGE = "balanced_forge"


class Stat:
    __slots__ = ("calls", "self_time", "results")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.results = 0

    def add(self, other):
        self.calls += other.calls
        self.self_time += other.self_time
        self.results += other.results

    def to_list(self):
        return [self.calls, self.self_time, self.results]

    @classmethod
    def from_list(cls, values):
        s = cls()
        s.calls, s.self_time, s.results = values
        return s


def _count_len(args, kwargs, result):
    return len(result)


def _count_rejected(args, kwargs, result):
    return result.diagnostics["rejected"]


def _count_columns(args, kwargs, result):
    c = args[2] if len(args) > 2 else kwargs["c"]
    return len(c)


def _count_file_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _cover_key(args, kwargs):
    n, k = args[0], args[1]
    return "kernel.cover_search.n%d.k%d" % (n, k)


# (span name, defining module, attribute, class or None, result counter)
LAYERS = [
    ("kernel.direct_search", "_kernel", "direct_search", None, _count_len),
    ("kernel.cover_search", "_kernel", "cover_search", None, _count_len),
    ("enumeration.enumerate_mbc", "enumeration", "enumerate_mbc", None, None),
    ("enumeration.save_catalog", "enumeration", "save_catalog", None, _count_file_bytes),
    ("enumeration.load_catalog", "enumeration", "load_catalog", None, None),
    ("enumeration.mbc_via_duality", "enumeration", "mbc_via_duality", None, _count_rejected),
    ("enumeration.enumerate_mbc_oracle", "enumeration", "enumerate_mbc_oracle", None, None),
    ("enumeration.enumerate_uniform", "enumeration", "enumerate_uniform", None, _count_len),
    ("balanced.is_balanced", "balanced", "is_balanced", None, None),
    ("balanced.find_balancing_weights", "balanced", "find_balancing_weights", None, None),
    ("balanced.from_regular_hypergraph", "balanced", "from_regular_hypergraph", None, None),
    ("balanced.efficiency", "balanced", "efficiency", None, None),
    ("simplex.simplex_min", "_simplex", "simplex_min", None, _count_columns),
    ("simplex.solve_square", "_simplex", "solve_square", None, None),
    ("games.core_lp", "games", "core_lp", None, None),
    ("games.core_mbc", "games", "core_mbc", None, None),
    ("hypergraph.dual", "hypergraph", "dual", "Hypergraph", None),
    ("hypergraph.is_minimally_uniform", "hypergraph", "is_minimally_uniform", None, None),
    ("hypergraph.is_minimally_regular", "hypergraph", "is_minimally_regular", None, None),
    ("decomposition.decompose", "decomposition", "decompose", None, None),
    ("decomposition.decompose_all", "decomposition", "decompose_all", None, _count_len),
    ("counting.count_spanning", "counting", "count_spanning", None, None),
]

# spans whose name depends on the arguments, one span per distinct key
KEYED = {"kernel.cover_search": _cover_key}


def bindings(original):
    """Every (namespace, attribute) in the package bound to `original`."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, attr))
    return out


class Tracer:
    """Installs wrappers on every traced layer and accumulates their spans.

    The process-wide balancedness cache is read, never written: a call to
    `is_balanced` that leaves the cache the same size was a hit.
    """

    def __init__(self):
        self.stats = {}
        self.hits = 0
        self._stack = []
        self._saved = []

    def reset(self):
        self.stats = {}
        self.hits = 0
        del self._stack[:]

    def stat(self, name):
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        cache = importlib.import_module(PACKAGE + ".balanced")._balanced_cache
        for span, module, attr, cls, counter in LAYERS:
            mod = importlib.import_module("%s.%s" % (PACKAGE, module))
            if cls is None:
                original = getattr(mod, attr)
                wrapper = self._wrap(span, original, counter, cache)
                targets = bindings(original)
                if not targets:
                    raise RuntimeError("no binding of %s.%s found" % (module, attr))
            else:
                owner = getattr(mod, cls)
                original = vars(owner)[attr]
                wrapper = self._wrap(span, original, counter, cache)
                targets = [(owner, attr)]
            for owner, name in targets:
                self._saved.append((owner, name, original))
                setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    def _wrap(self, span, fn, counter, cache):
        stack = self._stack
        keyed = KEYED.get(span)
        tracer = self
        clock = time.perf_counter
        watch_cache = span == "balanced.is_balanced"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = len(cache) if watch_cache else 0
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                s = tracer.stat(keyed(args, kwargs) if keyed else span)
                s.calls += 1
                s.self_time += dt - child
            if counter is not None:
                s.results += counter(args, kwargs, result)
            if watch_cache and len(cache) == before:
                tracer.hits += 1
            return result

        return wrapper

    def export(self):
        """Plain data for sending spans from a child process."""
        return {"stats": {k: v.to_list() for k, v in self.stats.items()}, "hits": self.hits}

    def merge(self, data):
        for k, values in data["stats"].items():
            self.stat(k).add(Stat.from_list(values))
        self.hits += data["hits"]
