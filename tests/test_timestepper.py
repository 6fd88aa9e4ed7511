import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import dgdyn.timestepper
from dgdyn.assembly import FormParams, assemble_load, assemble_mass
from dgdyn.config import ProblemConfig
from dgdyn.errors import energy_norm, l2_errors, rate
from dgdyn.manufactured import get_case
from dgdyn.mesh import DIRICHLET_LATERAL, PERIODIC, build_structured_mesh, classify_edges, p1_prolongations
from dgdyn.solver import SolverError, block_jacobi_preconditioner, cg_solve, two_level_preconditioner
from dgdyn.space import DGSpace, conforming_p1_embedding
from dgdyn.timestepper import (
    _start,
    build_operators,
    l2_lambda_project,
    run_backward_euler,
    solve_stationary,
)

from test_assembly import nodal, point_sets

TWO_PI = 2.0 * np.pi


def setup(level, p, bc=PERIODIC, alpha=2.0, beta=5.0, lam=10.0, gamma=10.0):
    mesh = build_structured_mesh(level)
    edges = classify_edges(mesh, bc)
    space = DGSpace(mesh, p)
    params = FormParams.for_mesh(mesh, alpha=alpha, beta=beta, lam=lam, gamma=gamma)
    return mesh, edges, space, params


# --- L2 projection ---------------------------------------------------------


def test_l2_project_constant():
    mesh, edges, space, _ = setup(2, 1)
    coeffs = l2_lambda_project(mesh, space, edges, 0.0, lambda x, y: 3.0 * np.ones_like(x))
    assert np.allclose(coeffs, 3.0, rtol=1e-13)


def test_l2_project_reproduces_space_members():
    mesh, edges, space, _ = setup(2, 1)
    field = lambda t, x, y: x
    coeffs = l2_lambda_project(mesh, space, edges, 0.0, lambda x, y: x)
    dom, g1, _ = l2_errors(mesh, edges, space, 1.0, coeffs, field)
    assert dom <= 1e-13 and g1 <= 1e-13


def best_approximation_error(mesh, u0, p):
    """Independent per-element least-squares oracle in the monomial basis."""
    pts, wts = np.polynomial.legendre.leggauss(10)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts
    total = 0.0
    exps = [(i, j) for i in range(p + 1) for j in range(p + 1 - i)]
    for tri in mesh.vertices[mesh.triangles]:
        p0, p1, p2 = tri
        e1, e2 = p1 - p0, p2 - p0
        jac2 = abs(e1[0] * e2[1] - e1[1] * e2[0])
        X, W = [], []
        for u, wu in zip(pts, wts):
            for v, wv in zip(pts, wts):
                r, s = u, v * (1.0 - u)
                X.append(p0 + r * e1 + s * e2)
                W.append(wu * wv * jac2 * (1.0 - u))
        X = np.array(X)
        W = np.array(W)
        V = np.column_stack([X[:, 0] ** a * X[:, 1] ** b for a, b in exps])
        target = u0(X[:, 0], X[:, 1])
        sqw = np.sqrt(W)
        coef, *_ = np.linalg.lstsq(sqw[:, None] * V, sqw * target, rcond=None)
        resid = target - V @ coef
        total += float(W @ resid**2)
    return np.sqrt(total)


def test_l2_project_is_best_approximation():
    mesh, edges, space, _ = setup(2, 1)
    u0 = lambda x, y: np.sin(TWO_PI * x)
    coeffs = l2_lambda_project(mesh, space, edges, 0.0, u0)
    dom, _, _ = l2_errors(mesh, edges, space, 1.0, coeffs, lambda t, x, y: u0(x, y))
    oracle = best_approximation_error(mesh, u0, p=1)
    # the two error values integrate a non-polynomial with different rules
    # (degree 6 vs 19), so they agree to measurement quadrature, not eps
    assert np.isclose(dom, oracle, rtol=1e-4)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
@pytest.mark.parametrize("p", [1, 2])
def test_l2_lambda_project_solves_weighted_mass_system(p, bc):
    # the projection's blocks must be those of assemble_mass: M u equals the
    # load (u0, v)_Omega + lam (u0, v)_gamma1 at level 3
    lam = 10.0
    mesh, edges, space, _ = setup(3, p, bc=bc)
    u0 = lambda x, y: np.cos(TWO_PI * x) * np.exp(y)
    u = l2_lambda_project(mesh, space, edges, lam, u0)
    load = assemble_load(mesh, edges, space, lambda t, x, y: u0(x, y), lambda t, x, y: lam * u0(x, y))
    residual = assemble_mass(mesh, edges, space, lam).tobsr() @ u - load
    assert np.abs(residual).max() <= 1e-13 * np.abs(load).max()


def test_l2_lambda_project_kept_per_field_and_lambda():
    # a second projection of the same u0 and lam on a space evaluates u0 no
    # more, returns bitwise the first result and never the kept array, so
    # writing a result changes no later one; another lam is its own
    mesh, edges, space, _ = setup(3, 2, bc=DIRICHLET_LATERAL)
    calls = Counter()

    def u0(x, y):
        calls["u0"] += 1
        return np.cos(TWO_PI * x) * np.exp(y)

    first = l2_lambda_project(mesh, space, edges, 10.0, u0)
    expected = first.copy()
    first[:] = 0.0
    again = l2_lambda_project(mesh, space, edges, 10.0, u0)
    assert calls["u0"] == 2  # the cells and gamma1, once
    assert again.tobytes() == expected.tobytes()
    assert l2_lambda_project(mesh, space, edges, 10.0, u0) is not again
    fresh = DGSpace(mesh, 2)
    assert l2_lambda_project(mesh, fresh, edges, 10.0, u0).tobytes() == expected.tobytes()
    assert l2_lambda_project(mesh, space, edges, 0.0, u0).tobytes() != expected.tobytes()
    assert calls["u0"] == 6


# --- stationary solve ------------------------------------------------------


def test_stationary_constant_solution():
    mesh, edges, space, params = setup(2, 1)
    c = 1.7
    g = lambda t, x, y: params.alpha * c * np.ones_like(x)
    u = solve_stationary(mesh, edges, space, params, None, g)
    dom, g1, lamn = l2_errors(mesh, edges, space, params.lam, u, lambda t, x, y: c * np.ones_like(x))
    assert lamn <= 1e-10


def test_stationary_singular_when_alpha_zero():
    mesh, edges, space, _ = setup(1, 1)
    params = FormParams.for_mesh(mesh, alpha=0.0, beta=0.0, lam=0.0, gamma=10.0)
    with pytest.raises(SolverError):
        solve_stationary(mesh, edges, space, params, None, None)


def stationary_case(alpha, beta):
    u = lambda t, x, y: (1.0 - np.cos(TWO_PI * x)) * np.cos(2.0 * TWO_PI * y)
    grad_u = lambda t, x, y: (
        TWO_PI * np.sin(TWO_PI * x) * np.cos(2.0 * TWO_PI * y),
        -2.0 * TWO_PI * (1.0 - np.cos(TWO_PI * x)) * np.sin(2.0 * TWO_PI * y),
    )

    def f(t, x, y):
        c = np.cos(TWO_PI * x)
        return -np.cos(2.0 * TWO_PI * y) * (TWO_PI**2 * c - 4.0 * TWO_PI**2 * (1.0 - c))

    def g(t, x, y):
        c = np.cos(TWO_PI * x)
        return np.cos(2.0 * TWO_PI * y) * (alpha * (1.0 - c) - beta * TWO_PI**2 * c)

    return u, grad_u, f, g


def test_stationary_manufactured_rate_p1():
    # the oscillatory solution needs a couple of refinements before the
    # second-order regime: rates run 0.78, 1.76, 1.93 over levels 2..5
    u, grad_u, f, g = stationary_case(alpha=2.0, beta=5.0)
    errs = []
    interp_errs = []
    for level in (4, 5):
        mesh, edges, space, params = setup(level, 1)
        uh = solve_stationary(mesh, edges, space, params, f, g)
        dom, _, _ = l2_errors(mesh, edges, space, params.lam, uh, u)
        errs.append(dom)
        ih = nodal(mesh, space, u)
        idom, _, _ = l2_errors(mesh, edges, space, params.lam, ih, u)
        interp_errs.append(idom)
    assert abs(rate(errs[0], errs[1]) - 2.0) <= 0.15
    # magnitude cross-check: the discrete solution is no worse than a few
    # interpolants
    assert errs[1] <= 10.0 * interp_errs[1]


# --- backward Euler --------------------------------------------------------


def test_nonintegral_step_count_rejected():
    config = ProblemConfig(level=1, dt=3e-4, t_final=1e-3)
    with pytest.raises(ValueError):
        run_backward_euler(config, None, None, lambda x, y: np.ones_like(x))


def test_zero_sources_decay_monotone():
    config = ProblemConfig(level=2, p=1, dt=1e-3, t_final=2e-2)
    u0 = lambda x, y: (1.0 - np.cos(TWO_PI * x)) * np.cos(2.0 * TWO_PI * y)
    res = run_backward_euler(config, None, None, u0)
    norms = res.l2lambda_norms
    assert (np.diff(norms) <= 1e-12 * norms[0]).all()
    assert norms[-1] < norms[0]


def test_zero_sources_constant_state_preserved():
    # with alpha = beta = 0 the operator annihilates constants, so a
    # constant initial state is a steady state of the homogeneous problem
    config = ProblemConfig(level=2, p=1, dt=1e-2, t_final=1e-1, alpha=0.0, beta=0.0)
    res = run_backward_euler(config, None, None, lambda x, y: 2.0 * np.ones_like(x))
    norms = res.l2lambda_norms
    assert np.allclose(norms, norms[0], rtol=1e-12)
    assert np.allclose(res.coeffs, 2.0, atol=1e-10)


def test_constant_steady_state():
    c = 2.5
    config = ProblemConfig(level=2, p=1, dt=1e-3, t_final=1e-2)
    g = lambda t, x, y: config.alpha * c * np.ones_like(x)
    ops = build_operators(config)
    res = run_backward_euler(config, None, g, lambda x, y: c * np.ones_like(x), ops=ops)
    _, _, lamn = l2_errors(
        ops.mesh, ops.edges, ops.space, config.lam, res.coeffs, lambda t, x, y: c * np.ones_like(x)
    )
    assert lamn <= 1e-10


def test_one_step_map_is_linear():
    config = ProblemConfig(level=2, p=1, dt=1e-3, t_final=1e-3)
    ops = build_operators(config)
    a, b = 0.7, -1.3
    u0 = lambda x, y: np.sin(TWO_PI * x)
    v0 = lambda x, y: np.cos(2.0 * TWO_PI * y) * x * (1 - x)
    combined = lambda x, y: a * u0(x, y) + b * v0(x, y)
    ru = run_backward_euler(config, None, None, u0, ops=ops)
    rv = run_backward_euler(config, None, None, v0, ops=ops)
    rc = run_backward_euler(config, None, None, combined, ops=ops)
    lin = a * ru.coeffs + b * rv.coeffs
    scale = max(np.abs(rc.coeffs).max(), 1.0)
    assert np.abs(rc.coeffs - lin).max() <= 1e-10 * scale


def test_trajectory_matches_final_state():
    # the trajectory is gathered through on_step; its last state is the result
    config = ProblemConfig(level=1, p=1, dt=1e-3, t_final=5e-3)
    u0 = lambda x, y: np.sin(TWO_PI * x)
    trajectory = []
    res = run_backward_euler(config, None, None, u0, on_step=lambda k, t, u: trajectory.append(u.copy()))
    assert len(trajectory) == config.num_steps() + 1
    assert np.array_equal(trajectory[-1], res.coeffs)


def test_on_step_callback_sees_all_states():
    config = ProblemConfig(level=1, p=1, dt=1e-3, t_final=4e-3)
    seen = []
    run_backward_euler(config, None, None, lambda x, y: np.ones_like(x), on_step=lambda k, t, u: seen.append((k, t)))
    assert [k for k, _ in seen] == [0, 1, 2, 3, 4]
    assert seen[-1][1] == pytest.approx(4e-3)


def test_states_given_to_on_step_are_never_written():
    # the solver keeps the last states, CG's own solutions, and forms each
    # start in arrays of its own: no state handed to on_step changes after
    # the call, and none aliases another
    case = get_case("example1")
    config = ProblemConfig(case="example1", level=2, p=1, dt=1e-3, t_final=5e-3)
    seen = []
    run_backward_euler(config, case.f, case.g, case.u0, on_step=lambda k, t, u: seen.append((u, u.copy())))
    assert len(seen) == config.num_steps() + 1
    for u, at_call in seen:
        assert np.array_equal(u, at_call)
    assert len({id(u) for u, _ in seen}) == len(seen)


def test_replaced_sources_stay_separable():
    # call counters put in place of f and g by replace(), as a tracer does,
    # stay separable: a run calls each once per time node of the case's
    # declaration, not once a step, and its state is bitwise that of the case
    case = get_case("example1")
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    config = ProblemConfig(case="example1", level=3, p=1, dt=1e-3, t_final=5e-3)
    traced = replace(case, f=counted("f", case.f), g=counted("g", case.g))
    got = run_backward_euler(config, traced.f, traced.g, traced.u0).coeffs
    assert calls == {"f": len(case.f.nodes), "g": len(case.g.nodes)}
    assert np.array_equal(got, run_backward_euler(config, case.f, case.g, case.u0).coeffs)


def test_warm_start_takes_no_more_iterations_than_zero_start(monkeypatch):
    # each step's solve from the mix of the last three states against the
    # same system and right-hand side from zero: measured 7/6/5/5/5
    # iterations against 9 each (7/6/6/6/6 from 2 u^k - u^(k-1))
    solves = []

    def recording_cg_solve(system, rhs, **kwargs):
        x, report = cg_solve(system, rhs, **kwargs)
        zero_start = cg_solve(system, rhs, preconditioner=kwargs["preconditioner"])[1]
        solves.append((report.iterations, zero_start.iterations))
        return x, report

    monkeypatch.setattr(dgdyn.timestepper, "cg_solve", recording_cg_solve)
    case = get_case("example1")
    config = ProblemConfig(case="example1", level=4, p=1, dt=1e-5, t_final=5e-5)
    run_backward_euler(config, case.f, case.g, case.u0)
    assert len(solves) == 5
    assert all(warm <= zero for warm, zero in solves)
    assert sum(warm for warm, _ in solves) < sum(zero for _, zero in solves)


def test_start_residual_is_the_residual_of_the_start(monkeypatch):
    # every solve of a level-4 example1 run is given the residual of its
    # start, made from the kept images S u^j with no product: it is
    # rhs - S x0 to 1e-13 ||rhs|| (measured 2-3e-15), and the first solve
    # starts from u^0
    case = get_case("example1")
    config = ProblemConfig(case="example1", level=4, p=1, dt=1e-5, t_final=1e-4)
    ops = build_operators(config)
    u0 = l2_lambda_project(ops.mesh, ops.space, ops.edges, config.lam, case.u0)
    starts, gaps = [], []

    def recording_cg_solve(system, rhs, **kwargs):
        x0, r0 = kwargs["x0"], kwargs["r0"]
        starts.append(x0.copy())
        gaps.append(np.linalg.norm(r0 - (rhs - system @ x0)) / np.linalg.norm(rhs))
        return cg_solve(system, rhs, **kwargs)

    monkeypatch.setattr(dgdyn.timestepper, "cg_solve", recording_cg_solve)
    run_backward_euler(config, case.f, case.g, case.u0, ops=ops)
    assert len(gaps) == config.num_steps() and max(gaps) <= 1e-13
    assert np.array_equal(starts[0], u0)


def test_table_h_takes_at_most_1600_iterations(monkeypatch):
    # the benchmark's table-h runs: example1, p = 1, levels 2..6, 100 steps
    # of dt 1e-5 each.  Measured 1466 CG iterations from the mix of the
    # last three states, 2428 from 2 u^k - u^(k-1) and 5451 from zero
    iterations = []

    def recording_cg_solve(system, rhs, **kwargs):
        x, report = cg_solve(system, rhs, **kwargs)
        iterations.append(report.iterations)
        return x, report

    monkeypatch.setattr(dgdyn.timestepper, "cg_solve", recording_cg_solve)
    case = get_case("example1")
    for level in range(2, 7):
        config = ProblemConfig(case="example1", level=level, p=1, dt=1e-5, t_final=1e-3)
        run_backward_euler(config, case.f, case.g, case.u0)
    assert len(iterations) == 500 and sum(iterations) <= 1600


def test_start_drops_vanishing_and_parallel_differences():
    # a history of equal states (a constant solution) has zero differences,
    # and one of states 0, v, 3 v a second difference parallel to the first:
    # each such term is dropped, without a division by zero or a warning
    # (warnings are errors here), and the start's residual stays exact
    config = ProblemConfig(level=2, p=1, dt=1e-3, t_final=1e-3)
    ops = build_operators(config)
    S = ops.M_blocks.plus(config.dt, ops.A_blocks).tocsr()
    rng = np.random.default_rng(2)
    rhs, x = rng.standard_normal((2, S.shape[0]))
    v = rng.integers(-4, 5, S.shape[0]).astype(float)
    for states in ([x, x.copy(), x.copy()], [3.0 * v, v, 0.0 * v], [x, x.copy()]):
        history = [(s, S @ s) for s in states]
        x0, r0 = _start(history, rhs)
        assert np.abs(r0 - (rhs - S @ x0)).max() <= 1e-13 * np.abs(rhs).max()
        if states[1] is not v:
            assert x0 is states[0]  # nothing to mix: the newest state itself
    # with 0, v, 3 v the start is the best multiple of v along the first difference
    x0, r0 = _start([(3.0 * v, S @ (3.0 * v)), (v, S @ v), (0.0 * v, 0.0 * v)], rhs)
    a = (S @ v) @ (rhs - S @ (3.0 * v)) / np.linalg.norm(S @ v) ** 2
    assert np.allclose(x0, (3.0 + a) * v, rtol=1e-10, atol=1e-12)


def test_dirichlet_mode_runs():
    # example-3 style configuration with homogeneous lateral data
    config = ProblemConfig(case="example3", bc_mode="dirichlet_lateral", level=2, p=1, dt=1e-2, t_final=5e-2)
    u0 = lambda x, y: np.zeros_like(x)
    res = run_backward_euler(config, None, None, u0)
    assert np.allclose(res.coeffs, 0.0, atol=1e-12)


def test_wall_data_patch_test():
    # u = (1+t)(a x + b y) is in the p = 2 space and linear in t, so backward
    # Euler with the wall datum u_D = u reproduces it to rounding; so does
    # the stationary solve for u = a x + b y.  On gamma1 du/dn = (1+t) b (2y-1).
    a, b = 0.7, -1.3
    config = ProblemConfig(case="example3", bc_mode=DIRICHLET_LATERAL, level=2, p=2, dt=0.1, t_final=0.5)
    alpha, lam = config.alpha, config.lam
    u = lambda t, x, y: (1.0 + t) * (a * x + b * y)
    f = lambda t, x, y: a * x + b * y
    g = lambda t, x, y: lam * (a * x + b * y) + (1.0 + t) * b * (2.0 * y - 1.0) + alpha * u(t, x, y)
    ops = build_operators(config, u_D=u)
    res = run_backward_euler(config, f, g, lambda x, y: u(0.0, x, y), ops=ops)
    dom, _, _ = l2_errors(ops.mesh, ops.edges, ops.space, lam, res.coeffs, u, t=config.t_final)
    assert dom <= 1e-10
    # the per-step wall data reads the degree-2p + 4 tables only
    assert not [name for name in point_sets(ops.space) if name[-1] == 2 * config.p]

    mesh, edges, space, params = setup(2, 2, DIRICHLET_LATERAL, alpha=alpha, lam=lam)
    steady = lambda t, x, y: a * x + b * y
    g0 = lambda t, x, y: b * (2.0 * y - 1.0) + alpha * steady(t, x, y)
    uh = solve_stationary(mesh, edges, space, params, None, g0, u_D=steady)
    dom, _, _ = l2_errors(mesh, edges, space, lam, uh, steady)
    assert dom <= 1e-10


def test_wall_data_rejected_before_set_up(monkeypatch):
    # wall data on periodic walls is refused before anything is assembled
    config = ProblemConfig(case="example3", bc_mode=PERIODIC, level=2, p=1, dt=1e-2, t_final=2e-2)

    def no_assembly(*args):
        raise AssertionError("assembled before the wall data was checked")

    monkeypatch.setattr(dgdyn.timestepper, "assemble_Ah", no_assembly)
    with pytest.raises(ValueError, match="u_D requires bc_mode='dirichlet_lateral'"):
        build_operators(config, u_D=lambda t, x, y: t * x * (1.0 - x))


def test_stationary_wall_data_rejected_before_assembly(monkeypatch):
    mesh, edges, space, params = setup(2, 1, PERIODIC)

    def no_assembly(*args):
        raise AssertionError("assembled before the wall data was checked")

    monkeypatch.setattr(dgdyn.timestepper, "assemble_Ah", no_assembly)
    with pytest.raises(ValueError, match="u_D requires bc_mode='dirichlet_lateral'"):
        solve_stationary(mesh, edges, space, params, None, None, u_D=lambda t, x, y: 0.0 * x)


@pytest.mark.parametrize("dt, t_final, two_level", [(1e-5, 5e-5, False), (0.1, 0.2, True)])
def test_preconditioner_selected_by_stiffness(monkeypatch, dt, t_final, two_level):
    # rho = dt * max_e 1'A_e 1 / 1'M_e 1 is 0.12 at dt = 1e-5 and 1.2e3 at
    # dt = 0.1 on level 4: every step, re-solved from its own start and
    # start residual, must make the iteration count of block Jacobi alone
    # in the first case, of the two-level one in the second (the two counts
    # differ in both: 7/6/5/5/5 against 10/8/7/7/7, and 28/27 against
    # 123/126)
    solves = []

    def recording_cg_solve(system, rhs, **kwargs):
        start = kwargs["x0"].copy(), kwargs["r0"].copy()  # CG works on r0 in place
        x, report = cg_solve(system, rhs, **kwargs)
        solves.append((system, rhs, *start, report.iterations))
        return x, report

    monkeypatch.setattr(dgdyn.timestepper, "cg_solve", recording_cg_solve)
    case = get_case("example1")
    config = ProblemConfig(case="example1", level=4, p=1, dt=dt, t_final=t_final)
    ops = build_operators(config)
    run_backward_euler(config, case.f, case.g, case.u0, ops=ops)
    assert len(solves) == config.num_steps()

    own = ops.M_blocks.plus(config.dt, ops.A_blocks).own()
    P = conforming_p1_embedding(ops.space, ops.edges)
    prolongations = p1_prolongations(ops.mesh, ops.edges.bc_mode)
    for system, rhs, x0, r0, iterations in solves:
        block = block_jacobi_preconditioner(system, own)
        preconditioners = {False: block, True: two_level_preconditioner(block, system, P, prolongations)}
        counts = {
            k: cg_solve(system, rhs, preconditioner=B, x0=x0, r0=r0.copy())[1].iterations for k, B in preconditioners.items()
        }
        assert iterations == counts[two_level] != counts[not two_level]


def test_dt_table_builds_the_coarse_space_once(monkeypatch):
    # the P1 embedding and its prolongations depend on the space and the
    # bc mode alone: three two-level runs on shared operators build them
    # once, and each run ends bitwise where one on operators of its own does
    calls = Counter()

    def counted(function):
        def count(*args):
            calls[function.__name__] += 1
            return function(*args)

        return count

    for name in ("conforming_p1_embedding", "p1_prolongations"):
        monkeypatch.setattr(dgdyn.timestepper, name, counted(getattr(dgdyn.timestepper, name)))
    case = get_case("example1")
    configs = [ProblemConfig(case="example1", level=4, p=1, dt=dt, t_final=0.1) for dt in (0.1, 0.05, 0.025)]
    ops = build_operators(configs[0])
    shared = [run_backward_euler(config, case.f, case.g, case.u0, ops=ops).coeffs for config in configs]
    assert all(config.dt * ops.stiffness_per_dt > dgdyn.timestepper.TWO_LEVEL_STIFFNESS for config in configs)
    assert calls == {"conforming_p1_embedding": 1, "p1_prolongations": 1}
    for config, coeffs in zip(configs, shared):
        assert coeffs.tobytes() == run_backward_euler(config, case.f, case.g, case.u0).coeffs.tobytes()


def test_step_memory_proportional_to_operator(monkeypatch):
    # operators stay tables of distinct blocks, neither A nor M is expanded,
    # the CSR system is built from its table without a block per pair, the
    # degree-2p tables are released after assembly and the coarse
    # correction is a V-cycle: building the operators and taking one
    # two-level backward Euler step (rho = 49) peaks at 2.80 times the CSR
    # bytes of the system CG multiplies (3.21 while M and block Jacobi were
    # block matrices of a block per element and the system was expanded
    # through one; 3.89 while the run held A as a block matrix; 3.93 while
    # the point sets kept a pattern and an inverse Jacobian per entry and
    # mapped every point back to its reference triangle; 3.94 while A_h's
    # forms were added pairwise; 5.0 with CSR operators, kept tables and an
    # LU-factored coarse solve).  The system is CSR without the blocks'
    # stored zeros.
    case = get_case("example3")
    config = ProblemConfig(case="example3", level=5, p=2, bc_mode=DIRICHLET_LATERAL, dt=1e-3, t_final=1e-3)
    systems = []

    def recording_cg_solve(system, rhs, **kwargs):
        systems.append(system)
        return cg_solve(system, rhs, **kwargs)

    run_backward_euler(replace(config, level=1), case.f, case.g, case.u0)  # module-level caches
    monkeypatch.setattr(dgdyn.timestepper, "cg_solve", recording_cg_solve)
    tracemalloc.start()
    try:
        ops = build_operators(config)
        run_backward_euler(config, case.f, case.g, case.u0, ops=ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.dt * ops.stiffness_per_dt > dgdyn.timestepper.TWO_LEVEL_STIFFNESS
    assert "A" not in vars(ops) and "M" not in vars(ops)
    (system,) = systems
    assert system.format == "csr" and system.nnz == np.count_nonzero(system.data)
    assert peak <= 3.24 * (system.data.nbytes + system.indices.nbytes + system.indptr.nbytes)
