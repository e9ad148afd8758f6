"""The benchmark's workloads and the checks applied to each sweep's result.

Every workload uses the default omega = 10*pi and T = 1.  The benchmark seed
becomes ExperimentConfig.seed, the base seed of the per-level mesh
distortion, so it changes the inputs of the distorted workloads only.
"""

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# relative tolerance against the recorded reference: criterion 9's bound.
# Rounding-level changes (an ulp in the step size, direct vs schur) move the
# errors and orders by 1e-15..3e-12 relative; a wrong result moves them by
# far more.
REFERENCE_RTOL = 1e-9

WORKLOADS = {
    # the paper's headline study; solver-bound, factors once per distinct
    # (ulp-different) step size
    "uniform-direct": dict(p=2, r=2, level_min=0, level_max=4,
                           n_steps_base=10, distortion=0.0, solver="direct"),
    # criterion 3's hardest mesh on the flux-elimination + GMRES path; the
    # only workload where GMRES runs
    "distorted-schur": dict(p=2, r=2, level_min=0, level_max=4,
                            n_steps_base=10, distortion=0.25, solver="schur"),
    # many cells, few steps: per-cell layers (mesh, spaces, assembly, error
    # norms) dominate, and power-of-two step counts give one factorization
    # per level
    "fine-mesh": dict(p=1, r=1, level_min=5, level_max=6,
                      n_steps_base=1, distortion=0.10, solver="direct"),
}


def criterion3_windows(spec):
    """Criterion 3's EOC windows, moved to the workload's order p + 1.

    The acceptance suite states them for p = 2 (order 3); levels below 2 are
    pre-asymptotic and unchecked there, as here.
    """
    shift = spec["p"] + 1 - 3
    if spec["distortion"] == 0.25:
        u, q = (2.5, 3.1), (1.6, 3.1)
    else:
        u, q = (2.6, 3.1), (2.2, 3.1)
    return (u[0] + shift, u[1] + shift), (q[0] + shift, q[1] + shift)


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())


def report_values(report):
    return {"ndof": list(report.n_dofs), "err_u": list(report.err_u),
            "err_q_V": list(report.err_q), "eoc_u": list(report.eoc_u),
            "eoc_q": list(report.eoc_q)}


def uses_reference(name, seed, reference):
    """Exact comparison holds where the inputs equal the recorded ones."""
    return WORKLOADS[name]["distortion"] == 0.0 or seed == reference["seed"]


def check(name, seed, report, reference):
    """Problems found in one sweep's report (empty when it is correct)."""
    spec = WORKLOADS[name]
    expected = reference["workloads"][name]
    got = report_values(report)
    problems = []
    if got["ndof"] != expected["ndof"]:
        problems.append(f"ndof {got['ndof']} != {expected['ndof']}")
    if uses_reference(name, seed, reference):
        for key in ("err_u", "err_q_V", "eoc_u", "eoc_q"):
            for level, a, b in zip(report.levels, got[key], expected[key]):
                if (a is None) != (b is None) or (
                        a is not None
                        and not math.isclose(a, b, rel_tol=REFERENCE_RTOL)):
                    problems.append(f"{key} level {level}: {a!r} != {b!r}")
        return problems
    for level, eu, eq in zip(report.levels, got["err_u"], got["err_q_V"]):
        if not (math.isfinite(eu) and math.isfinite(eq) and eu > 0 and eq > 0):
            problems.append(f"level {level}: errors {eu!r}, {eq!r}")
    u_window, q_window = criterion3_windows(spec)
    for i, level in enumerate(report.levels):
        if level < 2 or i == 0:
            continue
        for key, window in (("eoc_u", u_window), ("eoc_q", q_window)):
            if not window[0] <= got[key][i] <= window[1]:
                problems.append(f"{key} level {level}: {got[key][i]:.3f} "
                                f"outside {window}")
    return problems
