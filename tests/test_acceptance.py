"""Acceptance suite: one test per criterion, summarized at the end of the run.

Heavy level sweeps are shared through module-scoped fixtures.  Criterion 2's
level-5 column is opt-in: set STMFEM_LEVEL5=1.  Two further tests tie
criterion 2's pinned errors to the independent oracle in uniform_oracle.py.
"""

import math
import os

import numpy as np
import pytest

import stmfem as st
from stmfem.assembly import CoefficientField
from stmfem.harness import ExperimentConfig, run_convergence
from stmfem.mesh import unit_square_mesh
from stmfem.quadrature import gauss_legendre_unit, tensor_unit
from stmfem.spaces import build_pair, l2_project_flux, l2_project_scalar, rt_interpolate
from stmfem.timebasis import TimePartition, build_basis
from stmfem.timeloop import (
    ProblemData,
    SystemMatrices,
    build_step_system,
    initial_coefficients,
    local_mass_balance,
    run,
    solve_step,
)

from conftest import record_criterion
from uniform_oracle import uniform_errors

SEED = 20250808

REF_NDOF = [33, 120, 456, 1776, 7008, 27840]
# Criterion 2's errors at levels 0-4 (and 5): the converged values of
# uniform_oracle.uniform_errors, an independent tensor-product reduction of
# the scheme, rounded to 5 significant digits.
REF_ERR_U = [3.6254e-02, 9.9319e-03, 1.2455e-03, 1.5573e-04, 1.9467e-05]
REF_ERR_Q = [7.3552e-01, 2.0008e-01, 2.5089e-02, 3.1368e-03, 3.9210e-04]
REF_ERR_U5 = 2.4335e-06
REF_ERR_Q5 = 4.9013e-05

LEVEL5 = os.environ.get("STMFEM_LEVEL5", "") == "1"


@pytest.fixture(scope="module")
def uniform_sweep():
    cfg = ExperimentConfig(level_min=0, level_max=5 if LEVEL5 else 4,
                           distortion=0.0, seed=SEED)
    return run_convergence(cfg)


@pytest.fixture(scope="module", params=[0.05, 0.10, 0.25])
def distorted_sweep(request):
    cfg = ExperimentConfig(level_min=0, level_max=4,
                           distortion=request.param, seed=SEED)
    return request.param, run_convergence(cfg)


def test_criterion_1_dof_bookkeeping():
    dims = []
    for level in range(6):
        scalar, flux = build_pair(unit_square_mesh(level), 2)
        dims.append(scalar.n_dofs + flux.n_dofs)
    ok = dims == REF_NDOF
    record_criterion("criterion 1 (DoF bookkeeping)", ok, f"dims {dims}")
    assert dims == REF_NDOF


def test_criterion_2_uniform_convergence(uniform_sweep):
    rep = uniform_sweep.report
    failures = []
    expected_u = REF_ERR_U + ([REF_ERR_U5] if LEVEL5 else [])
    expected_q = REF_ERR_Q + ([REF_ERR_Q5] if LEVEL5 else [])
    for i, level in enumerate(rep.levels):
        du = abs(rep.err_u[i] - expected_u[i]) / expected_u[i]
        dq = abs(rep.err_q[i] - expected_q[i]) / expected_q[i]
        if du > 0.02:
            failures.append(f"err_u level {level}: {rep.err_u[i]:.4e} vs "
                            f"{expected_u[i]:.4e} ({100 * du:.1f}%)")
        if dq > 0.02:
            failures.append(f"err_q level {level}: {rep.err_q[i]:.4e} vs "
                            f"{expected_q[i]:.4e} ({100 * dq:.1f}%)")
    for i, level in enumerate(rep.levels):
        if level < 2:
            continue
        for label, val in (("eoc_u", rep.eoc_u[i]), ("eoc_q", rep.eoc_q[i])):
            if not 2.90 <= val <= 3.05:
                failures.append(f"{label} level {level}: {val:.3f} not in "
                                f"[2.90, 3.05]")
    detail = "; ".join(failures) if failures else "all values and EOCs in range"
    record_criterion("criterion 2 (uniform-mesh convergence)",
                     not failures, detail)
    assert not failures, "\n".join(failures)


def _oracle_errors(level):
    """The oracle's errors for criterion 2's configuration on one level."""
    cfg = ExperimentConfig()
    return uniform_errors(level, p=cfg.p, r=cfg.r, omega=cfg.omega,
                          final_time=cfg.final_time,
                          n_steps_base=cfg.n_steps_base)


@pytest.mark.parametrize("level", range(6))
def test_criterion_2_constants_match_oracle(level):
    """The pinned errors are the oracle's values rounded to 5 digits."""
    eu, eq = _oracle_errors(level)
    assert abs((REF_ERR_U + [REF_ERR_U5])[level] - eu) <= 5e-5 * eu
    assert abs((REF_ERR_Q + [REF_ERR_Q5])[level] - eq) <= 5e-5 * eq


@pytest.mark.parametrize("level", [1, 2, 3])
def test_criterion_2_run_agrees_with_oracle(level):
    """With converged error rules the solver's errors are the oracle's."""
    cfg = ExperimentConfig()
    coeff = CoefficientField.identity()
    exact = st.mms_standard(coeff, cfg.omega)
    data = ProblemData(diffusion=coeff, initial_scalar=exact.initial_scalar(),
                       source=exact.source, final_time=cfg.final_time,
                       initial_flux=exact.initial_flux())
    sol = run(data, unit_square_mesh(level), p=cfg.p, r=cfg.r,
              n_steps=cfg.n_steps(level))
    eu = st.error_u(sol, exact, time_order=8, space_order=8)
    eq = st.error_q_V(sol, exact, time_order=8, space_order=8)
    ou, oq = _oracle_errors(level)
    assert abs(eu - ou) <= 1e-7 * ou
    assert abs(eq - oq) <= 1e-7 * oq


def test_criterion_3_distorted_robustness(distorted_sweep):
    factor, record = distorted_sweep
    rep = record.report
    u_window = (2.5, 3.1) if factor == 0.25 else (2.6, 3.1)
    q_window = (1.6, 3.1) if factor == 0.25 else (2.2, 3.1)
    failures = []
    for i, level in enumerate(rep.levels):
        if level < 2:
            continue
        if not u_window[0] <= rep.eoc_u[i] <= u_window[1]:
            failures.append(f"u EOC level {level}: {rep.eoc_u[i]:.3f} "
                            f"outside {u_window}")
        if not q_window[0] <= rep.eoc_q[i] <= q_window[1]:
            failures.append(f"q EOC level {level}: {rep.eoc_q[i]:.3f} "
                            f"outside {q_window}")
    eocs = [f"{e:.2f}" for e in rep.eoc_u[2:]] + [f"{e:.2f}" for e in rep.eoc_q[2:]]
    detail = "; ".join(failures) if failures else f"EOCs {eocs}"
    record_criterion(f"criterion 3 (distorted meshes, {int(factor * 100)}%)",
                     not failures, detail)
    assert not failures, "\n".join(failures)


def test_criterion_4_temporal_identity():
    worst = 0.0
    for r in (1, 2, 3, 4, 5):
        basis = build_basis(r)
        rng = np.random.default_rng(100 + r)
        for _ in range(100):
            f = rng.standard_normal(r + 1)
            lhs = sum(basis.alpha[i, j] * f[j] * f[i + 1]
                      for i in range(r) for j in range(r + 1))
            f1 = float(np.dot(basis.endpoint_weights, f))
            worst = max(worst, abs(lhs - (0.5 * f1**2 - 0.5 * f[0] ** 2)))
    ok = worst < 1e-12
    record_criterion("criterion 4 (telescoping identity)", ok,
                     f"max defect {worst:.2e}")
    assert ok


def test_criterion_5_weight_bounds():
    worst_low, worst_high = np.inf, -np.inf
    ok = True
    for r in (1, 2, 3, 4, 5):
        basis = build_basis(r)
        lower = 2.0 / (r * (r + 1)) ** 2
        ok &= bool(np.all(basis.beta >= lower - 1e-15))
        ok &= bool(np.all(basis.beta <= 1.0 + 1e-15))
        worst_low = min(worst_low, float(np.min(basis.beta / lower)))
        worst_high = max(worst_high, float(np.max(basis.beta)))
    record_criterion("criterion 5 (weight bounds)", ok,
                     f"min beta/bound {worst_low:.2f}, max beta {worst_high:.2f}")
    assert ok


def test_criterion_6_projection_orders():
    pi = np.pi
    gs = lambda x: np.sin(pi * np.atleast_2d(x)[:, 0]) * \
        np.sin(pi * np.atleast_2d(x)[:, 1])

    def gv(x):
        x = np.atleast_2d(x)
        return np.column_stack([
            np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1]) + x[:, 1] ** 2,
            np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]) + x[:, 0] * x[:, 1]])

    def div_gv(x):
        x = np.atleast_2d(x)
        return 2 * pi * np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1]) + x[:, 0]

    from stmfem import assembly as asm

    failures = []
    commuting_worst = 0.0
    for p in (0, 1, 2):
        rule = tensor_unit(p + 4)
        errs = {"P_h": [], "Pvec_h": [], "Pi_h": []}
        for level in (1, 2, 3, 4):
            m = unit_square_mesh(level)
            scalar, flux = build_pair(m, p)
            errs["P_h"].append(_scalar_err(l2_project_scalar(gs, scalar), gs, rule))
            errs["Pvec_h"].append(_flux_err(l2_project_flux(gv, flux), gv, rule))
            interp = rt_interpolate(gv, flux)
            errs["Pi_h"].append(_flux_err(interp, gv, rule))
            if level == 3:
                # the identity is exact for the canonical interpolant; check
                # it with converged moment quadrature so only the property,
                # not the default rule's integration error, is measured
                interp_fine = rt_interpolate(
                    gv, flux, rule_1d=gauss_legendre_unit(p + 6),
                    rule_2d=tensor_unit(p + 6))
                B = asm.assemble_div_coupling(flux, scalar)
                lhs = B @ interp_fine.coefficients
                crule = tensor_unit(p + 5)
                phi = scalar.ref.tabulate(crule.points)
                phys, _, det = asm.cell_geometry(m, crule)
                wdet = crule.weights[None, :] * det
                dg = div_gv(phys.reshape(-1, 2)).reshape(det.shape)
                rhs = np.zeros(scalar.n_dofs)
                np.add.at(rhs, scalar.cell_dofs,
                          np.einsum("cq,qi->ci", wdet * dg, phi))
                commuting_worst = max(commuting_worst,
                                      float(np.max(np.abs(lhs - rhs))))
        for name, seq in errs.items():
            rate = math.log2(seq[0] / seq[-1]) / (len(seq) - 1)
            if rate < p + 0.9:
                failures.append(f"{name} p={p}: rate {rate:.2f} < {p + 0.9}")
    if commuting_worst > 1e-10:
        failures.append(f"commuting residual {commuting_worst:.2e} > 1e-10")
    detail = "; ".join(failures) if failures else \
        f"all rates >= p+0.9, commuting {commuting_worst:.1e}"
    record_criterion("criterion 6 (projection orders)", not failures, detail)
    assert not failures, "\n".join(failures)


def _scalar_err(f, g, rule):
    from stmfem.assembly import cell_geometry
    phys, _, det = cell_geometry(f.space.mesh, rule)
    wdet = rule.weights[None, :] * det
    phi = f.space.ref.tabulate(rule.points)
    vals = np.einsum("qi,ci->cq", phi, f.coefficients[f.space.cell_dofs])
    ge = g(phys.reshape(-1, 2)).reshape(vals.shape)
    return float(np.sqrt(np.sum(wdet * (vals - ge) ** 2)))


def _flux_err(f, g, rule):
    from stmfem.assembly import piola_values
    vals, _, (phys, _, det) = piola_values(f.space, rule)
    wdet = rule.weights[None, :] * det
    vh = np.einsum("cqla,cl->cqa", vals, f.coefficients[f.space.cell_dofs])
    ge = g(phys.reshape(-1, 2)).reshape(vh.shape)
    return float(np.sqrt(np.sum(wdet * np.sum((vh - ge) ** 2, axis=2))))


def _poly_problem():
    def u(x, t):
        x = np.atleast_2d(x)
        return np.outer(t**2, x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1]))

    def q(x, t):
        x = np.atleast_2d(x)
        return (-t**2)[:, None, None] * np.column_stack([
            (1 - 2 * x[:, 0]) * x[:, 1] * (1 - x[:, 1]),
            x[:, 0] * (1 - x[:, 0]) * (1 - 2 * x[:, 1])])

    def div_q(x, t):
        x = np.atleast_2d(x)
        return np.outer(2 * t**2,
                        x[:, 0] * (1 - x[:, 0]) + x[:, 1] * (1 - x[:, 1]))

    def f(x, t):
        x = np.atleast_2d(x)
        return (np.outer(2 * t, x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1]))
                + div_q(x, t))

    exact = st.ManufacturedSolution(omega=0.0, scalar=u, flux=q, source=f,
                                    div_flux=div_q)
    data = ProblemData(diffusion=CoefficientField.identity(),
                       initial_scalar=lambda x: u(x, np.zeros(1))[0], source=f,
                       final_time=1.0)
    return exact, data


def test_criterion_7_polynomial_exactness():
    exact, data = _poly_problem()
    worst = 0.0
    for level in (1, 2, 3):
        mesh = unit_square_mesh(level)
        for n_steps in (2, 5, 10):
            sol = run(data, mesh, p=2, r=2, n_steps=n_steps)
            worst = max(worst, st.error_u(sol, exact), st.error_q_V(sol, exact))
    ok = worst < 1e-9
    record_criterion("criterion 7 (polynomial exactness)", ok,
                     f"max error {worst:.2e}")
    assert ok


def test_criterion_8_local_conservation(mms_problem):
    exact, data = mms_problem
    mesh = unit_square_mesh(2)
    scalar, flux = build_pair(mesh, 2)
    matrices = SystemMatrices(scalar, flux, data.diffusion)
    sol = run(data, mesh, p=2, r=2, n_steps=40)
    worst = local_mass_balance(sol, data, matrices)
    ok = worst < 1e-10
    record_criterion("criterion 8 (local conservation)", ok,
                     f"max relative defect {worst:.2e}")
    assert ok


def test_criterion_9_solver_equivalence(mms_problem):
    exact, data = mms_problem
    basis = build_basis(2)
    # Schur vs direct on a level-2 step
    mesh2 = unit_square_mesh(2)
    s2, v2 = build_pair(mesh2, 2)
    m2 = SystemMatrices(s2, v2, data.diffusion)
    part2 = TimePartition.uniform(1.0, 40)
    u0, _ = initial_coefficients(data, s2, v2, m2.rule)
    system2 = build_step_system(0, basis, m2, data, u0, part2)
    Ud, Qd = solve_step(system2, strategy="direct")
    Us, Qs = solve_step(system2, strategy="schur")
    schur_diff = max(float(np.max(np.abs(Ud - Us))),
                     float(np.max(np.abs(Qd - Qs))))
    # dense-LU oracle on a level-1 step
    mesh1 = unit_square_mesh(1)
    s1, v1 = build_pair(mesh1, 2)
    m1 = SystemMatrices(s1, v1, data.diffusion)
    part1 = TimePartition.uniform(1.0, 20)
    u01, _ = initial_coefficients(data, s1, v1, m1.rule)
    system1 = build_step_system(0, basis, m1, data, u01, part1)
    U, Q = solve_step(system1, strategy="direct")
    dense = np.linalg.solve(system1.full_matrix().toarray(), system1.rhs)
    dense_diff = float(np.max(np.abs(np.concatenate([U.ravel(), Q.ravel()])
                                     - dense)))
    ok = schur_diff < 1e-9 and dense_diff < 1e-10
    record_criterion("criterion 9 (solver equivalence)", ok,
                     f"schur diff {schur_diff:.2e}, dense diff {dense_diff:.2e}")
    assert ok
