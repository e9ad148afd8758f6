"""Experiment driver: level sweeps, table emission, and mesh dumps.

run_convergence reproduces the uniform and distorted convergence studies:
per level it builds the mesh (distorting interior vertices when requested),
runs the time-marching solver, and accumulates both space-time error norms
together with their experimental orders.
"""

import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, fields

from . import mesh as meshmod
from . import spaces, timebasis
from .assembly import CoefficientField
from .mms import DEFAULT_OMEGA, ErrorReport, error_q_V, error_u, mms_standard
# build_pair is not called here; perfbench/tracer.py wraps this binding
from .spaces import build_pair  # noqa: F401
from .timeloop import SOLVERS, ProblemData, run


@dataclass
class ExperimentConfig:
    """Configuration of one convergence experiment."""

    r: int = 2
    p: int = 2
    level_min: int = 0
    level_max: int = 4
    n_steps_base: int = 10       # time intervals on level 0; doubles per level
    final_time: float = 1.0
    omega: float = DEFAULT_OMEGA
    distortion: float = 0.0
    seed: int = 20250808
    solver: str = "direct"
    out_dir: str = "."

    def __post_init__(self):
        for name in ("r", "p", "level_min", "level_max", "n_steps_base", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.level_min <= self.level_max <= meshmod.MAX_LEVEL:
            raise ValueError(
                f"need 0 <= level_min <= level_max <= {meshmod.MAX_LEVEL}")
        if not 0 <= self.p <= spaces.MAX_DEGREE:
            raise ValueError(f"p must be in 0..{spaces.MAX_DEGREE}, got {self.p}")
        if not 1 <= self.r <= timebasis.MAX_DEGREE:
            raise ValueError(f"r must be in 1..{timebasis.MAX_DEGREE}, got {self.r}")
        if self.n_steps_base < 1:
            raise ValueError("n_steps_base must be at least 1")
        if not 0.0 < self.final_time < math.inf:
            raise ValueError(f"final_time must be positive and finite, "
                             f"got {self.final_time!r}")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if not 0.0 <= self.distortion < 0.5:
            raise ValueError("distortion factor must be in [0, 0.5)")

    def levels(self):
        return range(self.level_min, self.level_max + 1)

    def n_steps(self, level):
        return self.n_steps_base * 2**level

    def reproducibility_hash(self):
        payload = json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)
             if f.name != "out_dir"},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """Results of one run_convergence call."""

    config: ExperimentConfig
    report: ErrorReport
    config_hash: str = ""


def build_level_mesh(config, level):
    """The (possibly distorted) mesh of one level of the sweep."""
    m = meshmod.unit_square_mesh(level)
    if config.distortion > 0.0:
        m = meshmod.distort(m, config.distortion,
                            meshmod.level_seed(config.seed, level))
    return m


def run_convergence(config, progress=None):
    """Run the level sweep of a config and collect the error report."""
    coefficient = CoefficientField.identity()
    exact = mms_standard(coefficient, config.omega)
    data = ProblemData(
        diffusion=coefficient,
        initial_scalar=exact.initial_scalar(),
        source=exact.source,
        final_time=config.final_time,
        initial_flux=exact.initial_flux(),
    )
    levels, steps, taus, cells, hs, ndofs = [], [], [], [], [], []
    err_us, err_qs = [], []
    for level in config.levels():
        t0 = time.perf_counter()
        m = build_level_mesh(config, level)
        n = config.n_steps(level)
        solution = run(data, m, p=config.p, r=config.r, n_steps=n,
                       solver=config.solver)
        eu = error_u(solution, exact)
        eq = error_q_V(solution, exact)
        ndofs.append(solution.scalar_space.n_dofs + solution.flux_space.n_dofs)
        # free the solution's coefficient rows before the next, larger level
        # is solved
        del solution
        levels.append(level)
        steps.append(n)
        taus.append(config.final_time / n)
        cells.append(m.n_cells)
        hs.append(meshmod.h_max(m))
        err_us.append(eu)
        err_qs.append(eq)
        if progress is not None:
            progress(level, eu, eq, time.perf_counter() - t0)
    report = ErrorReport.from_errors(levels, steps, taus, cells, hs, ndofs,
                                     err_us, err_qs)
    return RunRecord(config=config, report=report,
                     config_hash=config.reproducibility_hash())


def _fmt(x):
    return f"{x:.4e}"


def _fmt_eoc(x):
    return "" if x is None else f"{x:.2f}"


# the table columns: CSV name, markdown name, ErrorReport attribute, format
_COLUMNS = (
    ("level", "level", "levels", str),
    ("N", "N", "n_steps", str),
    ("tau", "tau", "tau", _fmt),
    ("cells", "cells", "n_cells", str),
    ("h", "h", "h", _fmt),
    ("ndof", "ndof", "n_dofs", str),
    ("err_u", "err_u", "err_u", _fmt),
    ("eoc_u", "EOC", "eoc_u", _fmt_eoc),
    ("err_q_V", "err_q_V", "err_q", _fmt),
    ("eoc_q", "EOC", "eoc_q", _fmt_eoc),
)


def _rows(record):
    """The formatted cells of the table, one list per level."""
    rep = record.report
    return [[fmt(getattr(rep, attr)[i]) for _, _, attr, fmt in _COLUMNS]
            for i in range(len(rep.levels))]


def to_csv(record):
    """CSV table, one row per level, 5 significant digits for reals."""
    lines = [",".join(col[0] for col in _COLUMNS)]
    lines += [",".join(row) for row in _rows(record)]
    return "\n".join(lines) + "\n"


def to_markdown(record):
    """Markdown table mirroring the convergence-table layout."""
    lines = ["| " + " | ".join(col[1] for col in _COLUMNS) + " |",
             "|" + "---|" * len(_COLUMNS)]
    lines += ["| " + " | ".join(row) + " |" for row in _rows(record)]
    return "\n".join(lines) + "\n"


def to_plot_data(record):
    """(h, error) pairs per norm for log-log plotting."""
    rep = record.report
    lines = ["# h err_u err_q_V"]
    for i in range(len(rep.levels)):
        lines.append(f"{rep.h[i]!r} {rep.err_u[i]!r} {rep.err_q[i]!r}")
    return "\n".join(lines) + "\n"


def emit_tables(record, fmt, path):
    """Write a record in one of the supported formats; returns the path."""
    writers = {"csv": to_csv, "markdown": to_markdown, "plot-data": to_plot_data}
    if fmt not in writers:
        raise ValueError(f"unknown format {fmt!r}")
    text = writers[fmt](record)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write table to {path}: {exc}") from exc
    return path
