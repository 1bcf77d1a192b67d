"""Per-layer tracing of hetlab from outside the program.

``Tracer.installed()`` wraps the public functions of each hetlab module in
spans. Modules bind imported names at import time (``from .gaussian import
gaussian_pool``), so a function is replaced in every hetlab module whose
namespace holds it. Each span records its name, start, end and parent;
a span's self time is its duration minus the time its child spans cover.
Spans are kept in memory and turned into the per-layer metrics of one
round by ``layer_metrics``.

The tracer keeps one call stack, so it assumes hetlab runs single-threaded
(the benchmark sets HETLAB_THREADS=1).
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections import Counter
from time import perf_counter


def _q_tag(q) -> str:
    q = float(q)
    return "qinf" if math.isinf(q) else f"q{q:g}"


def _within_name(*args, **kwargs) -> str:
    q = args[1] if len(args) > 1 else kwargs["q"]
    return f"decomposition.within_heterogeneity.{_q_tag(q)}"


def _hyp3f2_name(num, *args, **kwargs) -> str:
    # The kernel sums a series exactly when a numerator parameter is a
    # non-positive integer (within 1e-12); which of the other two paths ran
    # is read afterwards from whether the Hurwitz-zeta tail was called.
    for v in num:
        r = round(float(v))
        if r <= 0 and abs(float(v) - r) <= 1e-12:
            return "special.reg_hyp3f2_unit.terminating"
    return "special.reg_hyp3f2_unit.series"


# (module, attribute) -> span name; a callable builds the name from the call.
SPANS = {
    ("cli", "_emit"): "cli._emit",
    ("datasets", "read_embeddings"): "datasets.read_embeddings",
    ("datasets", "write_embeddings"): "datasets.write_embeddings",
    ("datasets", "read_assignments"): "datasets.read_assignments",
    ("datasets", "group_decomposition"): "datasets.group_decomposition",
    ("datasets", "neighborhood_between"): "datasets.neighborhood_between",
    ("datasets", "EmbeddingDataset.ensemble"): "datasets.EmbeddingDataset.ensemble",
    ("gaussian", "gaussian_pool"): "gaussian.gaussian_pool",
    ("gaussian", "gaussian_within"): "gaussian.gaussian_within",
    ("gaussian", "gaussian_renyi"): "gaussian.gaussian_renyi",
    ("decomposition", "SubsystemEnsemble.__post_init__"): "decomposition.SubsystemEnsemble",
    ("decomposition", "pooled_heterogeneity"): "decomposition.pooled_heterogeneity",
    ("decomposition", "within_heterogeneity"): _within_name,
    ("betamix", "expected_distance_matrix"): "betamix.expected_distance_matrix",
    ("betamix", "beta_abs_distance"): "betamix.beta_abs_distance",
    ("special", "reg_hyp3f2_unit"): _hyp3f2_name,
    ("special", "_hurwitz_zeta"): "special.hurwitz_zeta",
    ("special", "reg_inc_beta"): "special.reg_inc_beta",
    ("core", "renyi_heterogeneity"): "core.renyi_heterogeneity",
    ("classic", "functional_hill"): "classic.functional_hill",
    ("classic", "leinster_cobbold"): "classic.leinster_cobbold",
    ("classic", "neqrqe"): "classic.neqrqe",
    ("classic", "rqe"): "classic.rqe",
}
# Counted, not timed: called tens of thousands of times per round.
COUNTS = {
    ("gaussian", "GaussianComponent.__post_init__"): "gaussian.components_built",
}

_HYP = "special.reg_hyp3f2_unit."
# per-layer time metric -> span names whose outermost spans it sums
LAYER_TIMES = {
    "cli.emit_s": ["cli._emit"],
    "datasets.read_embeddings_s": ["datasets.read_embeddings"],
    "datasets.write_embeddings_s": ["datasets.write_embeddings"],
    "datasets.group_decomposition_s": ["datasets.group_decomposition"],
    "datasets.neighborhood_between_s": ["datasets.neighborhood_between"],
    "datasets.read_assignments_s": ["datasets.read_assignments"],
    "gaussian.gaussian_pool_s": ["gaussian.gaussian_pool"],
    "gaussian.gaussian_within_s": ["gaussian.gaussian_within"],
    "gaussian.gaussian_renyi_s": ["gaussian.gaussian_renyi"],
    "decomposition.ensemble_build_s": ["decomposition.SubsystemEnsemble"],
    "decomposition.pooled_s": ["decomposition.pooled_heterogeneity"],
    **{f"decomposition.within_s.{t}": [f"decomposition.within_heterogeneity.{t}"]
       for t in ("q0", "q1", "q2", "qinf")},
    "betamix.beta_abs_distance_s": ["betamix.beta_abs_distance"],
    **{f"special.reg_hyp3f2_unit_s.{p}": [_HYP + p]
       for p in ("terminating", "prefix", "tail")},
    "special.reg_inc_beta_s": ["special.reg_inc_beta"],
    "core.renyi_heterogeneity_s": ["core.renyi_heterogeneity"],
    "classic.indices_s": ["classic.functional_hill", "classic.leinster_cobbold",
                          "classic.neqrqe", "classic.rqe"],
}
# per-layer count metric -> span names it counts
LAYER_CALLS = {
    "datasets.ensemble_calls": ["datasets.EmbeddingDataset.ensemble"],
    "betamix.expected_distance_matrix_calls": ["betamix.expected_distance_matrix"],
    "special.reg_hyp3f2_unit_calls": [_HYP + p for p in ("terminating", "prefix", "tail")],
    "special.reg_inc_beta_calls": ["special.reg_inc_beta"],
    "core.renyi_heterogeneity_calls": ["core.renyi_heterogeneity"],
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _span(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(self.spans)
            span = [label, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = perf_counter()
        return traced

    def _count(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        restore = []
        pkg = [m for n, m in list(sys.modules.items())
               if n.split(".")[0] == "hetlab" and m is not None]
        targets = [(key, name, self._span) for key, name in SPANS.items()]
        targets += [(key, name, self._count) for key, name in COUNTS.items()]
        try:
            for (mod_name, attr), name, make in targets:
                owner = sys.modules[f"hetlab.{mod_name}"]
                if "." in attr:  # a method: patch the class it is looked up on
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, make(original, name))
                    restore.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapped = make(original, name)
                for mod in pkg:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            restore.append((mod, key, original))
            yield self
        finally:
            for obj, key, original in reversed(restore):
                setattr(obj, key, original)


def span_names(spans) -> list:
    """Final span names: a series 3F~2 span is ``tail`` when it called the
    Hurwitz-zeta tail closure, ``prefix`` otherwise."""
    tail = {s[3] for s in spans if s[0] == "special.hurwitz_zeta"}
    return [(_HYP + ("tail" if i in tail else "prefix"))
            if s[0] == _HYP + "series" else s[0] for i, s in enumerate(spans)]


def span_stats(spans) -> dict:
    """name -> {count, total_s, self_s} for one round's spans."""
    names = span_names(spans)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    stats = {}
    for i, (name, s) in enumerate(zip(names, spans)):
        entry = stats.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += s[2] - s[1]
        entry["self_s"] += s[2] - s[1] - child_time[i]
    return stats


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced round. A time metric sums the
    outermost spans of its names (a span nested in another of the same
    metric is already inside that one's duration)."""
    spans = tracer.spans
    names = span_names(spans)
    group = {n: m for m, ns in LAYER_TIMES.items() for n in ns}
    # metrics open on the ancestor chain of each span
    open_above = [frozenset()] * len(spans)
    out = {m: 0.0 for m in LAYER_TIMES}
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            pm = group.get(names[p])
            open_above[i] = open_above[p] | {pm} if pm else open_above[p]
        m = group.get(names[i])
        if m and m not in open_above[i]:
            out[m] += s[2] - s[1]
    counts = Counter(names)
    for m, ns in LAYER_CALLS.items():
        out[m] = sum(counts[n] for n in ns)
    out["gaussian.components_built"] = tracer.counts["gaussian.components_built"]
    return out
