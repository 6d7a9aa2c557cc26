"""Span tracing from outside the library, and the per-layer metrics it yields.

``Tracer.install`` replaces module attributes of gnorm with wrappers that
record a span (name, start, end, parent span, workload-item id) per call.
A name bound by ``from .x import f`` lives on in the importing module, so
every module attribute that is the original function is replaced.  Spans
stay in memory; ``write`` dumps them as JSON lines at the end of the run.
Layers are the gnorm modules; a span's layer is the prefix of its name.
"""

import functools
import json
import statistics
import time

MODULES = ("solver", "sections", "norms", "decisions", "cli", "oracles")
SECTION_CONSTRUCTORS = (
    "states_section", "singleton_section", "full_slice_section", "dual_section",
    "transpose_section", "generalized_section", "channels_section", "comb_section",
    "povm_section", "id_tensor_section", "custom_section",
)

UNITS = {
    "sections.build_s": "s",
    "sections.build_s_max": "s",
    "sections.interior_solves": "count",
    "solver.calls": "count",
    "solver.busy_s": "s",
    "solver.iters_total": "count",
    "solver.iters_p50": "count",
    "solver.iters_max": "count",
    "solver.ms_per_iter": "ms",
    "solver.optimal_frac": "fraction",
    "solver.eq_matrix_mb": "MB",
    "solver.psd_projections": "count",
    "norms.self_ms_p50": "ms",
    "norms.closed_form_frac": "fraction",
    "decisions.self_ms_p50": "ms",
    "decisions.sweep_iters": "count",
    "cli.self_ms_p50": "ms",
    "oracles.check_s": "s",
    "trace.overhead_frac": "fraction",
}


def _solve_attrs(args, kwargs, sol):
    program = kwargs.get("program", args[0] if args else None)
    m = program.eq_matrix.shape[0]
    return {
        "iters": sol.iterations,
        "status": sol.status,
        "psd_blocks": sum(b.cone == "psd" for b in program.blocks),
        # computed, not measured: dense A plus the Gram matrix A A^T
        "eq_bytes": program.eq_matrix.nbytes + 8 * m * m,
    }


def _norm_attrs(args, kwargs, res):
    return {"method": res.method}


TARGETS = (
    [("solver", "solve", _solve_attrs)]
    + [("sections", name, None) for name in SECTION_CONSTRUCTORS]
    + [("norms", "base_norm", _norm_attrs), ("norms", "base_norm_psd", _norm_attrs)]
    + [("decisions", name, None) for name in ("max_payoff", "certify_optimal", "bayes_error")]
    + [("cli", "main", None)]
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "item", "attrs")

    def __init__(self, sid, name, start, parent, item):
        self.sid, self.name, self.start, self.end = sid, name, start, start
        self.parent, self.item, self.attrs = parent, item, None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = "setup"
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, time.perf_counter(),
                        self._stack[-1] if self._stack else None, self.item)
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, out)
                return out
            finally:
                self._stack.pop()
                span.end = time.perf_counter()

        return traced

    def install(self, gnorm):
        modules = [gnorm] + [getattr(gnorm, m) for m in MODULES]
        for mod_name, fn_name, attrs in TARGETS:
            orig = getattr(getattr(gnorm, mod_name), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, attrs)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, orig))

    def uninstall(self):
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    def call(self, item, fn, *args):
        """Run one benchmark call as a ``bench.call`` span tagged ``item``."""
        self.item = item
        return self.wrap("bench.call", fn)(*args)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item, "attrs": s.attrs,
                }) + "\n")


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _ancestors(spans, span):
    p = span.parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


def _under_layer(spans, span, layer):
    return any(a.layer == layer for a in _ancestors(spans, span))


def _median_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans, segment_items, passes, sweep_size):
    """Per-layer metrics over the traced segment (spans whose item is in
    ``segment_items``), plus section builds from the set-up phase.

    Counts are per pass of the cycle, so they repeat exactly across runs.
    """
    selfs = self_times(spans)
    seg = [s for s in spans if s.item in segment_items]
    builds = [
        s.duration for s in spans
        if s.item == "setup" and s.layer == "sections" and not _under_layer(spans, s, "sections")
    ]
    solves = [s for s in seg if s.name == "solver.solve" and s.attrs]
    iters = [s.attrs["iters"] for s in solves]
    busy = sum(s.duration for s in solves)
    norms = [s for s in seg if s.layer == "norms"]
    by_layer = {}
    for s in seg:
        by_layer.setdefault(s.layer, []).append(selfs[s.sid])
    sweeps = sum(s.name == "decisions.bayes_error" for s in seg) / sweep_size
    sweep_iters = sum(
        s.attrs["iters"] for s in solves
        if any(a.name == "decisions.bayes_error" for a in _ancestors(spans, s))
    )
    return {
        "sections.build_s": sum(builds),
        "sections.build_s_max": max(builds, default=0.0),
        "sections.interior_solves": sum(
            1 for s in spans if s.name == "solver.solve" and _under_layer(spans, s, "sections")
        ),
        "solver.calls": len(solves) / passes,
        "solver.busy_s": busy / passes,
        "solver.iters_total": sum(iters) / passes,
        "solver.iters_p50": statistics.median(iters) if iters else 0,
        "solver.iters_max": max(iters, default=0),
        "solver.ms_per_iter": 1e3 * busy / sum(iters) if iters else 0.0,
        "solver.optimal_frac": (
            sum(s.attrs["status"] == "optimal" for s in solves) / len(solves) if solves else 0.0
        ),
        "solver.eq_matrix_mb": max((s.attrs["eq_bytes"] for s in solves), default=0) / 2**20,
        "solver.psd_projections": sum(s.attrs["iters"] * s.attrs["psd_blocks"] for s in solves)
        / passes,
        "norms.self_ms_p50": _median_ms(by_layer.get("norms", [])),
        "norms.closed_form_frac": (
            sum(s.attrs["method"] == "closed_form" for s in norms if s.attrs) / len(norms)
            if norms else 0.0
        ),
        "decisions.self_ms_p50": _median_ms(by_layer.get("decisions", [])),
        "decisions.sweep_iters": sweep_iters / sweeps if sweeps else 0.0,
        "cli.self_ms_p50": _median_ms(by_layer.get("cli", [])),
    }, {layer: sum(v) for layer, v in sorted(by_layer.items())}

