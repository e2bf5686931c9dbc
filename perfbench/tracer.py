"""Per-layer tracing of qschur from outside the package.

`Tracer.install` replaces the public functions and methods of each qschur
module with wrappers; nothing inside the package is changed.  The layers
are the modules.  A call that crosses from one layer into another opens a
span (name, layer, start, end, parent span, job id); a call that stays in
its caller's layer is only counted, so a span covers the whole stretch of
work a layer does on behalf of its caller.

`ring` and `symgrp` are leaves of the package's import graph and are
called hundreds of thousands of times per pass, so one span per call would
cost more than the work measured.  Their calls are aggregated instead:
each span keeps the time its direct leaf-layer calls took, per layer, and
that time counts as covered by children.  A layer's self time is then its
spans' durations minus what their child spans and aggregated calls cover,
plus (for the leaf layers) the aggregated time.

Properties and private names are not wrapped; their time counts towards
whichever public call runs them.
"""

from __future__ import annotations

import inspect
import itertools
import time
from collections import Counter, defaultdict, namedtuple

LAYERS = ("ring", "hecke", "schur", "linalg", "branching", "tableaux",
          "symgrp", "cli")
AGGREGATED = frozenset({"ring", "symgrp"})
#: the harness's own spans, one per job
BENCH = "bench"

_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__neg__", "__pow__", "__eq__")

Span = namedtuple("Span", "id name layer start end parent job agg")


def covered_length(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, loose_agg=None):
    """Self time per layer: each span's duration minus the part of it that
    its child spans cover and minus its aggregated leaf calls; aggregated
    time is the self time of its own layer.  `loose_agg` holds aggregated
    time spent outside every span."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = defaultdict(float)
    for s in spans:
        kids = covered_length(children.get(s.id, ()), s.start, s.end)
        out[s.layer] += (s.end - s.start) - kids - sum(s.agg.values())
        for layer, t in s.agg.items():
            out[layer] += t
    for layer, t in (loose_agg or {}).items():
        out[layer] += t
    return dict(out)


def _max_coeff_bits(terms):
    return max(map(abs, terms.values()), default=0).bit_length()


def _scalar_result(tr, args, res):
    # `_terms` is read, never written: ExactScalar has no public size query
    # that does not copy the term dict
    terms = res._terms
    tr.maximum("ring.max_terms", len(terms))
    tr.maximum("ring.max_coeff_bits", _max_coeff_bits(terms))


def _lmul_gen(tr, args, res):
    tr.add("hecke.lmul_gen_terms_in", len(args[0].terms))
    tr.maximum("hecke.max_element_terms", len(res.terms))


def _element_result(tr, args, res):
    tr.maximum("hecke.max_element_terms", len(res.terms))


def _rank_exact(tr, args, res):
    rows = args[0]
    tr.add("linalg.rank_cells", len(rows) * (len(rows[0]) if rows else 0))


def _rowspace_add(tr, args, res):
    tr.add("linalg.rowspace_accepted", int(res))


def _basis_report(tr, args, res):
    tr.add("schur.spec_attempts", res["attempts"])


def _triangularity(tr, args, res):
    tr.add("branching.images_solved", int(res["status"] == "expanded"))


def _ssyt(tr, args, res):
    tr.add("tableaux.ssyt_enumerated", len(res))


def _young(tr, args, res):
    tr.add("symgrp.young_subgroup_elems", len(res))


#: result hooks by "layer.qualname"; they feed the counters below
HOOKS = {
    "ring.ExactScalar.__mul__": _scalar_result,
    "ring.ExactScalar.__rmul__": _scalar_result,
    "ring.ExactScalar.__add__": _scalar_result,
    "ring.ExactScalar.__radd__": _scalar_result,
    "hecke.AKElement.lmul_gen": _lmul_gen,
    "hecke.AKElement.__mul__": _element_result,
    "linalg.rank_exact": _rank_exact,
    "linalg.RowSpace.add": _rowspace_add,
    "schur.SchurContext.verify_basis_independence": _basis_report,
    "branching.BranchContext.triangularity_check": _triangularity,
    "tableaux.enumerate_ssyt": _ssyt,
    "symgrp.young_subgroup": _young,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = {}
        self.job = None
        self._ids = itertools.count()
        self._root = [None, None, {}]
        self._stack = [self._root]
        self._restore = []

    # -- counters ------------------------------------------------------------

    def add(self, key, n):
        self.counts[key] += n

    def maximum(self, key, v):
        if v > self.maxima.get(key, 0):
            self.maxima[key] = v

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer, qualname, fn, hook=None):
        """A wrapper that records fn's calls in `layer` under `qualname`."""
        key = f"{layer}.{qualname}"
        calls, stack, clock, spans, ids = (self.calls, self._stack, self.clock,
                                           self.spans, self._ids)
        tracer = self
        if layer in AGGREGATED:
            leaf = [None, layer, None]

            def wrapper(*args, **kwargs):
                calls[key] += 1
                top = stack[-1]
                if top[1] == layer:
                    result = fn(*args, **kwargs)
                else:
                    stack.append(leaf)
                    t0 = clock()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        agg = top[2]
                        agg[layer] = agg.get(layer, 0.0) + dt
                if hook is not None:
                    hook(tracer, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                top = stack[-1]
                if top[1] == layer:
                    result = fn(*args, **kwargs)
                else:
                    frame = [next(ids), layer, {}]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        t1 = clock()
                        stack.pop()
                        spans.append(Span(frame[0], qualname, layer, t0, t1,
                                          top[0], tracer.job, frame[2]))
                if hook is not None:
                    hook(tracer, args, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def run_job(self, job_id, name, fn):
        """Run fn() as job `job_id` inside one span of the harness layer."""
        self.job = job_id
        try:
            return self.wrap(BENCH, name, fn)()
        finally:
            self.job = None

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap the public functions and methods of every layer module of
        `package` (the imported qschur), rebinding every module-level name
        that refers to a wrapped function."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [
                n for n, v in vars(mod).items()
                if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__]
            for name in names:
                obj = getattr(mod, name)
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(
                        layer, name, obj, HOOKS.get(f"{layer}.{name}")))
        for mod in [package] + list(modules.values()):
            for name, val in list(vars(mod).items()):
                if id(val) in replaced and replaced[id(val)][0] is val:
                    self._set(mod, name, replaced[id(val)][1])

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            if name == "__init__" and layer in AGGREGATED:
                continue
            qual = f"{cls.__name__}.{name}"
            hook = HOOKS.get(f"{layer}.{qual}")
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(layer, qual, raw.__func__, hook))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(layer, qual, raw, hook)
            else:
                continue
            self._set(cls, name, wrapped)

    def _set(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self):
        return self_times(self.spans, self._root[2])


def calibrate(n=50_000, clock=time.perf_counter):
    """Extra cost of one wrapped call, in microseconds, as (span, aggregated):
    a wrapped no-op at a layer boundary timed against the bare no-op, each
    the best of three loops of n calls."""
    def noop():
        return None

    tr = Tracer(clock)

    def best(f):
        runs = []
        for _ in range(3):
            t0 = clock()
            for _ in range(n):
                f()
            runs.append(clock() - t0)
            tr.spans.clear()
        return min(runs)

    bare = best(noop)
    span_cost = best(tr.wrap("hecke", "noop", noop)) - bare
    agg_cost = best(tr.wrap("ring", "noop", noop)) - bare
    return span_cost / n * 1e6, agg_cost / n * 1e6
