"""In-memory span recorder and the wrappers that put spans on t0lab's layers.

Nothing in ``src/t0lab`` is edited: :func:`install` replaces each traced
public function in every ``t0lab`` module namespace that holds it (and
wraps the constructors of ``FiniteSpace`` and ``SpaceMap`` on the class),
and the returned undo callable puts the originals back.

The layers are the package's modules.  Which end-to-end metric each layer
metric should move, on which workload, and where it should stay flat:

=========  ==============================  ====================  ================  ==========================
layer      metrics                         should move           on workload       should not move
=========  ==============================  ====================  ================  ==========================
spaces     kernel ``*_ns`` probes          latency_p50_ms        verdicts, wide    maps (mostly)
spaces     ``SpaceMap.self_ms``            ops_per_s             maps              verdicts, wide
systems    h_member ... property_q         latency_p50_ms        verdicts          maps
checkers   ``check.<property>.self_ms``,   ops_per_s,            verdicts, wide    maps
           crosschecks; path counts        latency_p50_ms;
                                           fail_share
powers     lifts and units                 ops_per_s             maps              verdicts
powers     ``smyth``                       ops_per_s,            wide
                                           peak_rss_mb
construct  continuous_maps ... products    ops_per_s,            maps              wide
                                           latency_p90_ms
cli        ``main.self_ms``,               ops_per_s             wide              (only wide calls it)
           ``stdout_bytes``
=========  ==============================  ====================  ================  ==========================

``zoo`` is left out on purpose: all nine catalog claims verify in about
13 ms, so no change there could move a result.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# (layer, module, attribute) of every wrapped function; see _span_name for
# the span names.  ``checkers.check`` spans are named per property.
TRACED = (
    ("spaces", "spaces", "parse_space"),
    ("spaces", "spaces", "FiniteSpace.__init__"),
    ("spaces", "spaces", "SpaceMap.__init__"),
    ("spaces", "spaces", "FiniteSpace.downsets"),
    ("systems", "systems", "h_member"),
    ("systems", "systems", "h_family_member"),
    ("systems", "systems", "m_family"),
    ("systems", "systems", "rudin_minimal"),
    ("systems", "systems", "property_m_instance"),
    ("systems", "systems", "property_q_instance"),
    ("checkers", "checkers", "check"),
    ("checkers", "checkers", "crosscheck_h_sober"),
    ("checkers", "checkers", "crosscheck_super"),
    ("powers", "powers", "smyth"),
    ("powers", "powers", "hoare"),
    ("powers", "powers", "xi_embed"),
    ("powers", "powers", "hoare_eta"),
    ("powers", "powers", "smyth_map"),
    ("powers", "powers", "hoare_map"),
    ("powers", "powers", "hofmann_mislove_report"),
    ("construct", "construct", "continuous_maps"),
    ("construct", "construct", "product"),
    ("construct", "construct", "reflect"),
    ("construct", "construct", "homeomorphic"),
    ("construct", "construct", "universal_property_verify"),
    ("construct", "construct", "product_preservation"),
    ("cli", "cli", "main"),
)

PROPERTIES = (
    "t0", "sober", "d_space", "well_filtered", "omega_well_filtered",
    "h_sober", "super_h_sober", "h_complete", "h_bounded", "hip",
    "smyth_h_complete", "h_consonant", "locally_hypercompact",
)

KERNEL = ("closure", "sat", "ubs", "max", "top")

# counters the harness records at the layer boundaries
COUNTERS = (
    "checkers.check.calls",
    "checkers.paths.computed",
    "checkers.paths.skipped",
    "checkers.paths.sampled",
    "checkers.verdicts.not_agreed",
    "construct.continuous_maps.maps",
    "cli.stdout_bytes",
)


def _span_name(layer: str, attr: str) -> str:
    """``FiniteSpace.__init__`` spans are named after the class, other
    methods after the method."""
    cls, _, meth = attr.rpartition(".")
    return f"{layer}.{cls if meth == '__init__' else meth}"


def span_names() -> list[str]:
    out = []
    for layer, _, attr in TRACED:
        name = _span_name(layer, attr)
        if name == "checkers.check":
            out += [f"checkers.check.{p}" for p in PROPERTIES]
        else:
            out.append(name)
    return out


class Tracer:
    """Spans (name, start, end, parent, operation id) in flat arrays, plus
    named counters.  A span's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self._stack = [-1]
        self.op_id = -1
        self.active = False  # spans are recorded only while an operation runs
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self ns): each span's duration minus the part
        of it covered by its direct children."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child[i]
        return {self.names[k]: (calls[k], self_ns[k]) for k in calls}

    def write(self, path: str) -> None:
        """Write the spans as CSV: name,start_ns,end_ns,parent,op."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.op[i]}\n")


def _wrap(tracer: Tracer, fn, name: str):
    if name == "checkers.check":
        @functools.wraps(fn)
        def traced(X, prop, *args, **kwargs):
            if not tracer.active:
                return fn(X, prop, *args, **kwargs)
            tracer.counters["checkers.check.calls"] += 1
            i = tracer.open(f"checkers.check.{prop}")
            try:
                return fn(X, prop, *args, **kwargs)
            finally:
                tracer.close(i)
        return traced
    if name == "construct.continuous_maps":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                maps = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            tracer.counters["construct.continuous_maps.maps"] += len(maps)
            return maps
        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return traced


def install(tracer: Tracer):
    """Wrap every function in TRACED; returns a callable that undoes it."""
    import t0lab.cli  # noqa: F401  (cli is not imported by the package)
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "t0lab" or k.startswith("t0lab."))]
    undo = []
    for layer, mod, attr in TRACED:
        owner = sys.modules[f"t0lab.{mod}"]
        name = _span_name(layer, attr)
        if "." in attr:  # a method: wrap it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, orig, name))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(owner, attr)
        traced = _wrap(tracer, orig, name)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, traced)
                    undo.append((m, key, orig))

    def uninstall():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)
    return uninstall
