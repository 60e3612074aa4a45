"""Layer tracing from outside the library.

``Tracer`` wraps the public functions and methods of every ``chroma``
module (plus the few private or special methods named in ``EXTRA``) for
the duration of a ``with`` block, and puts the originals back on exit.
Nothing inside ``src/chroma`` changes.  Each call records a span (name,
start, end, parent span, job) and adds to per-function counts, inclusive
time (outermost activation only) and self time (span minus child spans).
Calls to ``scalars.Cyclo`` methods are also counted per conductor.

The wrappers cost about a microsecond per call, and the scalar layer is
called millions of times per job, so traced wall time is much longer than
untraced; end-to-end numbers come only from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

# special or private methods traced in addition to the public ones, as
# (module, owner class or None, attribute, metric name)
EXTRA = (
    ("scalars", "Cyclo", "__mul__", "scalars.Cyclo.mul"),
    ("scalars", "Cyclo", "__add__", "scalars.Cyclo.add"),
    ("scalars", "Cyclo", "__sub__", "scalars.Cyclo.sub"),
    ("scalars", "Rational01", "__init__", "scalars.Rational01.init"),
    ("scalars", "Scalar", "__mul__", "scalars.Scalar.mul"),
    ("datum", "Datum", "__init__", "datum.Datum.init"),
    ("hopfcheck", None, "_convolve", "hopfcheck.convolve"),
)
# at most this many spans are kept; counts and times stay exact beyond it
MAX_SPANS = 200_000


def chroma_modules() -> dict:
    """Every module of the imported ``chroma`` package, by short name."""
    import chroma
    mods = {}
    for info in pkgutil.iter_modules(chroma.__path__):
        mods[info.name] = importlib.import_module(f"chroma.{info.name}")
    return mods


def _targets(mods: dict) -> list:
    """(owner, attribute, raw attribute, function, metric name) to wrap."""
    found = []
    for short, mod in sorted(mods.items()):
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((mod, name, obj, obj, f"{short}.{name}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, raw in sorted(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        found.append((obj, attr, raw, fn, f"{short}.{name}.{attr}"))
    for short, owner_name, attr, metric in EXTRA:
        owner = mods[short] if owner_name is None else getattr(mods[short], owner_name)
        raw = vars(owner)[attr]
        found.append((owner, attr, raw, raw, metric))
    return found


class Stat:
    __slots__ = ("calls", "incl", "self_time", "active", "by_conductor")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.active = 0
        self.by_conductor = defaultdict(int)


class Tracer:
    """Context manager installing the wrappers; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.pairs = defaultdict(int)      # (parent name, child name) -> calls
        self.orbit_new_nodes = 0
        self.spans: list = []              # (id, parent id, name, job, start, end)
        self.spans_dropped = 0
        self.job = None
        self._stack: list = []             # [name, span id, child time]
        self._next_id = 0
        self._patches: list = []           # (owner, attribute, original raw value)

    # -- installation -----------------------------------------------------

    def __enter__(self):
        mods = chroma_modules()
        replaced = {}
        for owner, attr, raw, fn, metric in _targets(mods):
            per_conductor = (metric.startswith("scalars.Cyclo.")
                             and not isinstance(raw, (classmethod, staticmethod)))
            wrapper = self._wrap(fn, metric, per_conductor)
            if isinstance(raw, classmethod):
                new = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                new = staticmethod(wrapper)
            else:
                new = wrapper
                replaced[id(fn)] = (fn, wrapper)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
        # module-level functions are also bound under other modules' names
        # by "from .x import f"; rebind those too
        import chroma
        for mod in [chroma, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        return False

    def _wrap(self, fn, name, per_conductor):
        stat = self.stats[name]
        stack = self._stack
        pairs = self.pairs
        clock = time.perf_counter
        hook = self._orbit_hook if name == "weyl.weyl_orbit" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, 0.0]
            stat.calls += 1
            if per_conductor:
                stat.by_conductor[args[0].N] += 1
            if parent is not None:
                pairs[(parent[0], name)] += 1
            stat.active += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                dur = end - start
                if stat.active == 0:
                    stat.incl += dur
                stat.self_time += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent[1] if parent else None,
                                       name, self.job, start, end))
                else:
                    self.spans_dropped += 1
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _orbit_hook(self, orbit):
        self.orbit_new_nodes += len(orbit.nodes) - 1

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """name -> {calls, s, self_s[, calls_by_conductor]} for every traced
        function that was called."""
        out = {}
        for name, st in sorted(self.stats.items()):
            if not st.calls:
                continue
            entry = {"calls": st.calls, "s": st.incl, "self_s": st.self_time}
            if st.by_conductor:
                entry["calls_by_conductor"] = {
                    str(n): c for n, c in sorted(st.by_conductor.items())}
            out[name] = entry
        return out

    def layer_self_s(self) -> dict:
        """Self time summed per module (the layer is the first name part)."""
        layers = defaultdict(float)
        for name, st in self.stats.items():
            layers[name.split(".", 1)[0]] += st.self_time
        return dict(layers)

    def write(self, path: str) -> None:
        """Write the summary and the kept spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.summary(),
                       "spans_dropped": self.spans_dropped,
                       "spans": self.spans}, fh)


def installed_wrappers() -> list[str]:
    """Names of chroma attributes that are still perfbench wrappers."""
    import chroma
    left = []
    mods = chroma_modules()
    owners = [("chroma", chroma), *mods.items()]
    owners += [(f"{s}.{n}", c) for s, m in mods.items()
               for n, c in vars(m).items() if inspect.isclass(c)]
    for label, owner in owners:
        for attr, raw in vars(owner).items():
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if getattr(fn, "__wrapped_by_perfbench__", False):
                left.append(f"{label}.{attr}")
    return left
