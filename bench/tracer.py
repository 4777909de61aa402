"""Module-boundary tracing of the `twowayqkd` package, from outside it.

`Tracer.install()` replaces every public function of the traced modules, in
every package namespace that refers to it, with a wrapper that records call
count, total time and self time (total minus the time of nested traced
calls).  Calls inside a module go through its globals, so they are traced
too.  `uninstall()` puts the originals back.  Nothing under `src/` changes.
"""

import importlib
import inspect
import time

#: traced modules and the prefix their metrics carry
MODULES = {
    "twowayqkd.gaussian": "gaussian",
    "twowayqkd.attacks": "attacks",
    "twowayqkd.protocol": "protocol",
    "twowayqkd.security": "security",
    "twowayqkd._serialize": "serialize",
    "twowayqkd.cli": "cli",
}

#: namespaces that may hold references to traced functions
NAMESPACES = ("twowayqkd", *MODULES)

#: per-value helpers called once per output cell; their callers are traced instead
UNTRACED = {"serialize.fmt_float"}


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Call counts and total/self times per traced function, keyed 'module.name'.

    `observers` maps a key to f(args, kwargs, result), called after each
    traced call outside the timed span, for counts that need the arguments.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.stats = {}
        self._stack = []  # child time accumulated per open span
        self._patches = []

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        observer = self.observers.get(key)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observer is not None:
                observer(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for module_name, prefix in MODULES.items():
            module = importlib.import_module(module_name)
            for name, obj in vars(module).items():
                key = f"{prefix}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module_name
                        and not name.startswith("_") and key not in UNTRACED):
                    wrappers[id(obj)] = (obj, self._wrap(key, obj))
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, hit[1])

    def uninstall(self):
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def stat(self, key):
        return self.stats.get(key) or Stat()
