"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 2, 4 and 5 pin the convergence rates of the harness runs at the
tolerances of the published tables; 3 pins the absolute size of one table row
to within 25% of a direct-solver reference, above the best-approximation
floor of the discrete space, and prints the published value it cannot reach;
6 to 9 are property based.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from dgdyn.assembly import FormParams, assemble_Ah, assemble_mass
from dgdyn.cli import _transient_errors
from dgdyn.config import ProblemConfig
from dgdyn.errors import energy_norm, l2_errors, rate
from dgdyn.manufactured import get_case
from dgdyn.mesh import build_structured_mesh, classify_edges
from dgdyn.space import DGSpace
from dgdyn.timestepper import build_operators, l2_lambda_project, run_backward_euler, solve_stationary

from test_assembly import form, nodal, oracle_operators, setup as assembly_setup


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


TABLE1_PARAMS = dict(gamma=10.0, alpha=2.0, beta=5.0, lam=10.0, dt=1e-5, t_final=1e-3)


@lru_cache(maxsize=None)
def transient_row(case_name, level, p, dt, t_final, penalty_mode="gamma_over_h"):
    case = get_case(case_name)
    config = ProblemConfig(
        case=case_name,
        bc_mode=case.bc_mode,
        level=level,
        p=p,
        dt=dt,
        t_final=t_final,
        penalty_mode=penalty_mode,
        gamma=10.0,
        alpha=2.0,
        beta=5.0,
        lam=10.0,
    ).validate()
    return _transient_errors(config, case)


def last_pair_rates(rows):
    a, b = rows[-2], rows[-1]
    return (
        rate(a.l2_domain, b.l2_domain),
        rate(a.l2_gamma1, b.l2_gamma1),
        rate(a.energy, b.energy),
    )


def test_criterion_1_spatial_rates_p1():
    start = time.perf_counter()
    rows = [transient_row("example1", lv, 1, 1e-5, 1e-3) for lv in (2, 3, 4, 5)]
    rd, rg, re = last_pair_rates(rows)
    elapsed = time.perf_counter() - start
    ok = abs(rd - 2.0) <= 0.15 and abs(rg - 2.0) <= 0.15 and abs(re - 1.0) <= 0.1
    ok &= elapsed < 300.0
    assert report(
        1,
        ok,
        f"example1 p=1 levels 2-5 last-pair rates: L2(domain) {rd:.2f}, "
        f"L2(gamma1) {rg:.2f}, energy {re:.2f} ({elapsed:.0f}s)",
    )


def test_criterion_2_spatial_rates_p2():
    rows = [transient_row("example1", lv, 2, 1e-5, 1e-3) for lv in (2, 3, 4)]
    rd, rg, re = last_pair_rates(rows)
    ok = abs(rd - 3.0) <= 0.2 and abs(rg - 3.0) <= 0.2 and abs(re - 2.0) <= 0.2
    assert report(
        2,
        ok,
        f"example1 p=2 levels 2-4 last-pair rates: L2(domain) {rd:.2f}, "
        f"L2(gamma1) {rg:.2f}, energy {re:.2f}",
    )


def test_criterion_3_error_magnitude_anchor():
    # Absolute error size of one row of the spatial table: example1, level 4,
    # p=1, L2(Omega) error at T = 1e-3.
    #
    # The expected value is the same row computed with a direct solver
    # (scipy.sparse.linalg.splu on M + dt*A at every step), independent of the
    # CG path under test; perfbench/reference.json stores it as table-h,
    # level=4: 2.2922789e-02.
    #
    # The published value, 1.451833e-02, cannot be the expected value.  No
    # function of the discrete space gets closer to u(T) than its L2(Omega)
    # projection P_h u(T), and ||u(T) - P_h u(T)|| = 1.70470e-02 (the same to
    # six digits with l2_lambda_project's degree-6 Lagrange rule and with an
    # element-local monomial projection under a degree-10 rule, neither of
    # which touches assembly or the solver).  The published value is 14.8%
    # below that floor.  A run within 25% of it would have to lie within 6.5%
    # of the floor.  SIPG stays at 1.33-1.38 times the floor on levels 3-5,
    # and over gamma in {3, 10, 10*sqrt(2), 30, 100} its smallest level-4
    # error is 2.29e-02, at gamma = 10.  The mesh and error measure behind the
    # published value are not recorded, so it is only printed with its
    # deviation.  ||P_lambda u(T) - u_h|| (the lambda-weighted projection
    # that gives the initial data) comes within 1.1% of it, but nothing says
    # the table measured that, and on example3 it is 11% off the true error.
    #
    # The floor is computed here, so an expected value below it cannot come
    # back.  The 25% band still fails gamma = 100 (+28%), gamma = 3,
    # interpolated initial data and the fixed_sigma penalty.
    reference = 2.2923e-02
    published = 1.451833e-02
    case = get_case("example1")
    t_final = 1e-3
    mesh = build_structured_mesh(4)
    space = DGSpace(mesh, 1)
    edges = classify_edges(mesh)
    best = l2_lambda_project(mesh, space, edges, 0.0, lambda x, y: case.u(t_final, x, y))
    floor, _, _ = l2_errors(mesh, edges, space, 10.0, best, case, t=t_final)

    err = transient_row("example1", 4, 1, 1e-5, t_final).l2_domain
    dev = abs(err - reference) / reference
    sigma_err = transient_row("example1", 4, 1, 1e-5, t_final, penalty_mode="fixed_sigma").l2_domain
    sigma_dev = abs(sigma_err - reference) / reference
    ok = dev <= 0.25 and floor <= err and floor <= reference
    assert report(
        3,
        ok,
        f"reference {reference:.4e} (direct solve); gamma_over_h: L2(domain) {err:.6e}, "
        f"deviation {dev * 100:.1f}%; best-approximation floor {floor:.6e}; "
        f"published {published:.6e} (deviation {abs(err - published) / published * 100:.1f}%, "
        f"{(floor - published) / floor * 100:.1f}% below the floor, not asserted); "
        f"fixed_sigma: L2(domain) {sigma_err:.6e}, deviation {sigma_dev * 100:.1f}% (not asserted)",
    )


def test_criterion_4_temporal_rates():
    case = get_case("example2")
    config = ProblemConfig(case="example2", level=7, p=1, dt=0.1, t_final=0.1).validate()
    ops = build_operators(config)
    errs = []
    for j in range(5):
        cfg = replace(config, dt=0.1 * 0.5**j)
        res = run_backward_euler(cfg, case.f, case.g, case.u0, ops=ops)
        dom, _, _ = l2_errors(ops.mesh, ops.edges, ops.space, cfg.lam, res.coeffs, case, t=cfg.t_final)
        errs.append(dom)
    rates = [rate(a, b) for a, b in zip(errs, errs[1:])]
    expected = (0.85, 0.92, 0.96, 1.00)
    ok = all(abs(r - e) <= 0.2 for r, e in zip(rates, expected)) and rates[-1] >= 0.9
    assert report(
        4,
        ok,
        "example2 level 7 dt-halving L2(domain) rates "
        + ", ".join(f"{r:.2f}" for r in rates)
        + f" (expected trend {expected}, final >= 0.9)",
    )


def test_criterion_5_dirichlet_variant_rates():
    rows1 = [transient_row("example3", lv, 1, 1e-3, 0.1) for lv in (2, 3, 4, 5)]
    r1 = last_pair_rates(rows1)
    rows2 = [transient_row("example3", lv, 2, 1e-3, 0.1) for lv in (2, 3, 4, 5)]
    r2 = last_pair_rates(rows2)
    ok1 = abs(r1[0] - 2.0) <= 0.15 and abs(r1[2] - 1.0) <= 0.1
    ok2 = abs(r2[0] - 3.0) <= 0.2 and abs(r2[2] - 2.0) <= 0.2
    assert report(
        5,
        ok1 and ok2,
        f"example3 last-pair rates p=1: L2 {r1[0]:.2f}, energy {r1[2]:.2f}; "
        f"p=2: L2 {r2[0]:.2f}, energy {r2[2]:.2f}",
    )


def test_criterion_6_constant_patch_test():
    c = 1.3
    const = lambda t, x, y: c * np.ones_like(x)
    mesh, edges, space, params = assembly_setup(2, 1)
    g = lambda t, x, y: params.alpha * c * np.ones_like(x)
    u_stat = solve_stationary(mesh, edges, space, params, None, g)
    _, _, err_stat = l2_errors(mesh, edges, space, params.lam, u_stat, const)

    config = ProblemConfig(level=2, p=1, dt=1e-4, t_final=1e-2).validate()  # 100 steps
    ops = build_operators(config)
    res = run_backward_euler(config, None, g, lambda x, y: c * np.ones_like(x), ops=ops)
    _, _, err_be = l2_errors(ops.mesh, ops.edges, ops.space, config.lam, res.coeffs, const)
    ok = err_stat <= 1e-10 and err_be <= 1e-10
    assert report(
        6,
        ok,
        f"constant solution: stationary L2_lambda error {err_stat:.2e}, "
        f"after 100 BE steps {err_be:.2e}",
    )


def test_criterion_7_stability_suite():
    case = get_case("example1")
    violations = 0
    details = []
    for alpha, beta, lam in ((2.0, 5.0, 10.0), (0.5, 1.0, 2.0), (4.0, 0.5, 1.0)):
        config = ProblemConfig(
            level=3, p=1, dt=1e-3, t_final=5e-2, alpha=alpha, beta=beta, lam=lam
        ).validate()
        res = run_backward_euler(config, None, None, case.u0)
        n = res.l2lambda_norms
        bad = int((np.diff(n) > 1e-12 * n[0]).sum())
        violations += bad
        details.append(f"(a={alpha},b={beta},l={lam}): {bad} violations")
    assert report(7, violations == 0, "zero-source decay " + "; ".join(details))


def test_criterion_8_algebraic_properties():
    checks = []

    mesh, edges, space, params = assembly_setup(2, 1)
    for name, A in (
        ("B", form("B", mesh, edges, space, params)),
        ("b", form("b", mesh, edges, space, params)),
        ("A", assemble_Ah(mesh, edges, space, params).tobsr()),
    ):
        asym = np.abs((A - A.T).toarray()).max() / np.abs(A.data).max()
        checks.append((f"{name} symmetric", asym <= 1e-12))
    ones = np.ones(space.n_dofs)
    B = form("B", mesh, edges, space, params)
    b = form("b", mesh, edges, space, params)
    checks.append(("constants in ker(B)", np.abs(B @ ones).max() <= 1e-12 * np.abs(B.data).max()))
    checks.append(("constants in ker(b)", np.abs(b @ ones).max() <= 1e-12 * np.abs(b.data).max()))

    for level in (1, 2):
        m2, e2, s2, p2 = assembly_setup(level, 1)
        S = assemble_mass(m2, e2, s2, p2.lam).tobsr() + 1e-3 * assemble_Ah(m2, e2, s2, p2).tobsr()
        eig_min = np.linalg.eigvalsh(S.toarray()).min()
        checks.append((f"M+dtA positive definite (level {level})", eig_min > 0))

    mesh0, edges0, space0, params0 = assembly_setup(0, 1)
    oracle = oracle_operators(gamma=10.0, alpha=2.0, beta=5.0)
    computed = {name: form(name, mesh0, edges0, space0, params0) for name in "BCbM"}
    computed["A"] = assemble_Ah(mesh0, edges0, space0, params0).tobsr()
    worst = max(np.abs(A.toarray() - oracle[n]).max() for n, A in computed.items())
    checks.append((f"level-0 brute-force oracle (max dev {worst:.1e})", worst < 1e-10))

    ok = all(flag for _, flag in checks)
    assert report(8, ok, "; ".join(f"{n}: {'ok' if f else 'BAD'}" for n, f in checks))


def test_criterion_9_interpolation_estimate():
    case = get_case("example1")
    results = []
    ok = True
    for p in (1, 2):
        norms = []
        for level in (2, 3, 4, 5):
            mesh = build_structured_mesh(level)
            edges = classify_edges(mesh)
            space = DGSpace(mesh, p)
            params = FormParams.for_mesh(mesh, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0)
            u_h = nodal(mesh, space, case.u, t=0.0)
            norms.append(energy_norm(mesh, edges, space, params, u_h=u_h, exact=case, t=0.0))
        r = rate(norms[-2], norms[-1])
        results.append(f"p={p}: last-pair rate {r:.2f}")
        ok &= abs(r - p) <= 0.15
    assert report(9, ok, "interpolant energy error over levels 2-5: " + "; ".join(results))
