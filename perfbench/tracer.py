"""In-process tracing of a stmfem sweep by wrapping module attributes.

Every layer is timed from outside: `install` replaces public functions of the
stmfem modules with wrappers that record a span (name, start, end, parent)
or bump a counter, under the name the *calling* module looks up.  Modules
that import a function by name (`from .spaces import build_pair`) hold their
own binding, so each such binding is patched separately.  Spans stay in
memory; `layer_metrics` turns them into per-layer self times once the sweep
is over.  No stmfem source file is touched.
"""

import functools
import math
import time
from collections import Counter

# span name -> per-layer metric it feeds (self time, seconds)
SPAN_METRICS = {
    "mesh.build": "mesh.build_s",
    "mesh.validity": "mesh.validity_s",
    "spaces.build_pair": "spaces.build_pair_s",
    "spaces.projection": "spaces.projection_s",
    "assembly.matrix": "assembly.matrix_s",
    "assembly.load": "assembly.load_s",
    "timeloop.factor": "timeloop.factor_s",
    "timeloop.solve": "timeloop.solve_s",
    "timeloop.residual_check": "timeloop.residual_check_s",
    "timeloop.step_rhs": "timeloop.step_rhs_s",
    "timeloop.gmres": "timeloop.gmres_s",
    "mms.error_u": "mms.error_u_s",
    "mms.error_q_V": "mms.error_q_V_s",
}

# span name -> per-layer metric counting its calls
CALL_METRICS = {
    "mesh.validity": "mesh.validity_calls",
    "spaces.build_pair": "spaces.build_pair_calls",
    "assembly.load": "assembly.load_calls",
    "timeloop.factor": "timeloop.factorizations",
    "timeloop.gmres": "timeloop.gmres_calls",
}

# counters bumped directly by wrappers (no span)
COUNTERS = (
    "assembly.cell_geometry_calls",
    "assembly.piola_calls",
    "timeloop.lu_fill_nnz",
    "timeloop.triangular_solves",
    "timeloop.gmres_iters",
)

# `harness.run` marks one level of the sweep; it is not a layer, so its self
# time is left to harness.self_s
LEVEL_MARKER = "timeloop.run"

TAIL_CANDIDATES = (99, 95, 90, 75, 50)


class Tracer:
    """In-memory span and counter store for one sweep (single thread)."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


class _CountedLU:
    """SuperLU stand-in that counts triangular solves and forwards the rest."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, rhs, trans="N"):
        self._counts["timeloop.triangular_solves"] += 1
        return self._lu.solve(rhs, trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedLinalg:
    """Stand-in for timeloop's `spla` module with splu and gmres observed."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer
        self._factor = tracer.span("timeloop.factor", spla.splu)
        self.gmres = tracer.span("timeloop.gmres", self._gmres)

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, *args, **kwargs):
        lu = self._factor(*args, **kwargs)
        # read outside the factor span: building L and U copies the factors
        self._tracer.counts["timeloop.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz
        return _CountedLU(lu, self._tracer.counts)

    def _gmres(self, *args, callback=None, callback_type=None, **kwargs):
        counts = self._tracer.counts
        if callback is not None:
            return self._spla.gmres(*args, callback=callback,
                                    callback_type=callback_type, **kwargs)

        def count_iteration(_residual):
            counts["timeloop.gmres_iters"] += 1

        # 'pr_norm' is called once per inner iteration and does not alter
        # the iteration itself
        return self._spla.gmres(*args, callback=count_iteration,
                                callback_type="pr_norm", **kwargs)


def install(tracer):
    """Wrap every traced stmfem binding; returns a function that undoes it.

    A binding that no longer exists raises AttributeError here, so a rename
    fails the traced run instead of silently zeroing a layer.
    """
    from stmfem import assembly, harness, mesh, mms, spaces, timeloop

    spans = [
        (mesh, "unit_square_mesh", "mesh.build"),
        (mesh, "distort", "mesh.build"),
        (mesh, "validity_check", "mesh.validity"),
        (spaces, "validity_check", "mesh.validity"),
        (harness, "build_pair", "spaces.build_pair"),
        (timeloop, "build_pair", "spaces.build_pair"),
        (timeloop, "l2_project_scalar", "spaces.projection"),
        (timeloop, "l2_project_flux", "spaces.projection"),
        (assembly, "assemble_mass_scalar", "assembly.matrix"),
        (assembly, "assemble_weighted_mass_flux", "assembly.matrix"),
        (assembly, "assemble_div_coupling", "assembly.matrix"),
        (assembly, "assemble_load", "assembly.load"),
        (timeloop, "build_step_system", "timeloop.step_rhs"),
        (timeloop, "solve_step", "timeloop.solve"),
        (timeloop, "_check_residual", "timeloop.residual_check"),
        (harness, "error_u", "mms.error_u"),
        (harness, "error_q_V", "mms.error_q_V"),
        (harness, "run", LEVEL_MARKER),
    ]
    counters = [
        (assembly, "cell_geometry", "assembly.cell_geometry_calls"),
        (mms, "cell_geometry", "assembly.cell_geometry_calls"),
        (assembly, "piola_values", "assembly.piola_calls"),
        (mms, "piola_values", "assembly.piola_calls"),
    ]
    saved = []
    try:
        for module, attr, name in spans:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.span(name, original))
        for module, attr, name in counters:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.counter(name, original))
        saved.append((timeloop, "spla", timeloop.spla))
        timeloop.spla = _TracedLinalg(timeloop.spla, tracer)
    except AttributeError:
        _restore(saved)
        raise
    return lambda: _restore(saved)


def _restore(saved):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def tail_percentile(n):
    """Highest candidate percentile with at least ten samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct
    return None


def nearest_rank(sorted_values, pct):
    return sorted_values[max(math.ceil(pct / 100 * len(sorted_values)), 1) - 1]


def layer_metrics(tracer, sweep_s):
    """Per-layer metrics of one traced sweep lasting sweep_s seconds.

    Returns (metrics, step_samples, tail_pct).  Time metrics are self times:
    a span's duration minus the durations of its direct children.
    """
    spans = tracer.spans
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    calls = Counter(name for name, *_ in spans)

    metrics = {metric: 0.0 for metric in SPAN_METRICS.values()}
    for (name, *_), own in zip(spans, self_time):
        if name in SPAN_METRICS:
            metrics[SPAN_METRICS[name]] += own
    covered = sum(metrics.values())
    for name, metric in CALL_METRICS.items():
        metrics[metric] = calls[name]
    for name in COUNTERS:
        metrics[name] = tracer.counts[name]
    metrics["harness.self_s"] = sweep_s - covered

    # one step = build_step_system start to solve_step end, finest level only
    finest = max(i for i, (name, *_) in enumerate(spans) if name == LEVEL_MARKER)
    starts = [s[1] for s in spans if s[0] == "timeloop.step_rhs" and s[3] == finest]
    ends = [s[2] for s in spans if s[0] == "timeloop.solve" and s[3] == finest]
    steps = sorted(end - start for start, end in zip(starts, ends))
    tail = tail_percentile(len(steps))
    metrics["timeloop.step_s.p50"] = nearest_rank(steps, 50)
    metrics["timeloop.step_s.tail"] = nearest_rank(steps, tail or 100)
    return metrics, len(steps), tail


def silent_layers(metrics, solver):
    """Layers that should have fired on this solver but recorded nothing."""
    required = [m for m in list(SPAN_METRICS.values()) + list(CALL_METRICS.values())
                + list(COUNTERS) if not m.startswith("timeloop.gmres")]
    if solver == "schur":
        required += ["timeloop.gmres_s", "timeloop.gmres_calls", "timeloop.gmres_iters"]
    return sorted(m for m in required if not metrics.get(m))
