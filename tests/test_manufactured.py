"""Anti-derivation-error checks for the manufactured sources.

The hand-derived f and g are compared against numerical differentiation of
an independent reimplementation of u: mpmath at 40 digits for the tight
pointwise checks, float64 Richardson differences for the larger sweeps.
"""

import dataclasses
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from dgdyn.config import CASES
from dgdyn.manufactured import (
    BLOCK_VALUES,
    TWO_PI,
    ManufacturedCase,
    SeparableField,
    _lean_form,
    example1,
    example3,
    get_case,
    time_nodes,
)

mp.mp.dps = 40


def mp_u(case_name):
    if case_name == "example1":
        return lambda t, x, y: mp.e ** (-10 * t) * (1 - mp.cos(2 * mp.pi * x)) * mp.cos(4 * mp.pi * y)
    return lambda t, x, y: t * (1 - mp.cos(2 * mp.pi * x)) * mp.cos(mp.pi * y)


def mp_residuals(case: ManufacturedCase, t, x, y, boundary=False):
    """Residuals of the defining identities at one point, via mpmath."""
    U = mp_u(case.name)
    du_dt = mp.diff(lambda s: U(s, x, y), t)
    ux = mp.diff(lambda s: U(t, s, y), x)
    uy = mp.diff(lambda s: U(t, x, s), y)
    uxx = mp.diff(lambda s: U(t, s, y), x, 2)
    uyy = mp.diff(lambda s: U(t, x, s), y, 2)
    res = {}
    res["f"] = float(du_dt - (uxx + uyy) - mp.mpf(case.f(t, float(x), float(y))))
    gx, gy = case.grad_u(t, float(x), float(y))
    res["grad"] = float(max(abs(ux - mp.mpf(gx)), abs(uy - mp.mpf(gy))))
    if boundary:
        normal = -1.0 if y == 0 else 1.0
        g_val = case.lam * du_dt + normal * uy + case.alpha * U(t, x, y) - case.beta * uxx
        res["g"] = float(g_val - mp.mpf(case.g(t, float(x), float(y))))
    return res


@pytest.mark.parametrize("case_fn", [example1, example3])
def test_sources_match_high_precision_oracle(case_fn):
    case = case_fn()
    rng = np.random.default_rng(42)
    for _ in range(50):
        t, x, y = rng.random(3)
        res = mp_residuals(case, t, x, y)
        assert abs(res["f"]) <= 1e-10
        assert abs(res["grad"]) <= 1e-10
    for _ in range(50):
        t, x = rng.random(2)
        y = float(rng.integers(0, 2))
        res = mp_residuals(case, t, x, y, boundary=True)
        assert abs(res["g"]) <= 1e-10


def fd_laplacian(u, t, x, y, h=1e-3):
    """Richardson-extrapolated second differences, vectorized."""

    def second(f, z):
        d1 = (f(z + h) - 2.0 * f(z) + f(z - h)) / h**2
        d2 = (f(z + h / 2) - 2.0 * f(z) + f(z - h / 2)) / (h / 2) ** 2
        return (4.0 * d2 - d1) / 3.0

    uxx = second(lambda s: u(t, s, y), x)
    uyy = second(lambda s: u(t, x, s), y)
    return uxx + uyy


def fd_dt(u, t, x, y, h=1e-4):
    d1 = (u(t + h, x, y) - u(t - h, x, y)) / (2 * h)
    d2 = (u(t + h / 2, x, y) - u(t - h / 2, x, y)) / h
    return (4.0 * d2 - d1) / 3.0


@pytest.mark.parametrize("case_fn", [example1, example3])
def test_invariants_at_quasi_random_sample(case_fn):
    case = case_fn()
    pts = qmc.Halton(d=3, seed=0).random(1000)
    t, x, y = pts[:, 0], 0.98 * pts[:, 1] + 0.01, 0.98 * pts[:, 2] + 0.01
    res_f = fd_dt(case.u, t, x, y) - fd_laplacian(case.u, t, x, y) - case.f(t, x, y)
    assert np.abs(res_f).max() <= 1e-6

    for y0, normal in ((np.zeros_like(x), -1.0), (np.ones_like(x), 1.0)):
        h = 1e-4
        # one-sided y-derivative is not needed: u extends smoothly past gamma1
        uy = (case.u(t, x, y0 + h) - case.u(t, x, y0 - h)) / (2 * h)
        uy2 = (case.u(t, x, y0 + h / 2) - case.u(t, x, y0 - h / 2)) / h
        uy = (4.0 * uy2 - uy) / 3.0
        res_g = (
            case.lam * fd_dt(case.u, t, x, y0)
            + normal * uy
            + case.alpha * case.u(t, x, y0)
            - case.beta * fd_second_x(case.u, t, x, y0)
            - case.g(t, x, y0)
        )
        assert np.abs(res_g).max() <= 1e-6


def fd_second_x(u, t, x, y, h=1e-3):
    d1 = (u(t, x + h, y) - 2.0 * u(t, x, y) + u(t, x - h, y)) / h**2
    d2 = (u(t, x + h / 2, y) - 2.0 * u(t, x, y) + u(t, x - h / 2, y)) / (h / 2) ** 2
    return (4.0 * d2 - d1) / 3.0


def test_example1_point_values():
    case = example1()
    assert case.u(0.0, 0.0, 0.0) == 0.0
    assert np.isclose(case.u(0.0, 0.5, 0.0), 2.0, rtol=1e-14)


def test_example1_periodicity():
    case = example1()
    rng = np.random.default_rng(1)
    t, y = rng.random(200), rng.random(200)
    assert np.allclose(case.u(t, 0.0, y), case.u(t, 1.0, y), atol=1e-14)
    gx0, _ = case.grad_u(t, 0.0, y)
    gx1, _ = case.grad_u(t, 1.0, y)
    assert np.allclose(gx0, gx1, atol=1e-13)


def test_example3_point_values():
    case = example3()
    rng = np.random.default_rng(2)
    t, y = rng.random(100), rng.random(100)
    assert np.allclose(case.u(t, 0.0, y), 0.0, atol=1e-14)
    assert np.allclose(case.u(t, 1.0, y), 0.0, atol=1e-13)
    assert np.isclose(case.u(1.0, 0.5, 0.0), 2.0, rtol=1e-14)


def test_case_lookup():
    assert get_case("example1").name == "example1"
    assert get_case("example2").name == "example1"  # shared fields
    assert get_case("example3").bc_mode == "dirichlet_lateral"
    with pytest.raises(ValueError):
        get_case("example9")


DECLARED = [(name, field) for name in CASES for field in get_case(name).time_factors]


@pytest.mark.parametrize("name, field", DECLARED, ids=[f"{n}-{f}" for n, f in DECLARED])
@settings(max_examples=60, deadline=None, database=None)
@given(t=st.floats(0.0, 1.0), x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_declared_time_factors_reproduce_the_field(name, field, t, x, y):
    # a declared field at t is the weighted sum of its values at the time
    # nodes, to rounding relative to the field's largest value
    case = get_case(name)
    declared = getattr(case, field)
    value = np.atleast_1d(getattr(case, field)(t, x, y))
    weighted = sum(w * np.atleast_1d(declared.fn(s, x, y)) for s, w in zip(declared.nodes, declared.weights(t)))
    grid = np.linspace(0.0, 1.0, 41)
    X, Y = np.meshgrid(grid, grid)
    scale = max(np.abs(getattr(case, field)(s, X, Y)).max() for s in (0.0, 0.5, 1.0))
    assert np.allclose(weighted, value, rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize("name", CASES)
def test_declared_fields_are_separable_also_when_replaced(name):
    # each declared field is a SeparableField called as its plain value,
    # bitwise; a plain callable replace() puts in its place is wrapped with
    # the same nodes and weights, and a separable one is kept as it is
    case = get_case(name)
    x, y = np.random.default_rng(0).random((2, 50))
    for field, (nodes, weights) in case.time_factors.items():
        fn = getattr(case, field)
        assert isinstance(fn, SeparableField) and (fn.nodes, fn.weights) == (nodes, weights)
        for t in (0.0, 0.37, 1.0):
            assert np.array_equal(fn(t, x, y), fn.fn(t, x, y))

        def plain(t, x, y):
            return fn(t, x, y)

        replaced = getattr(dataclasses.replace(case, **{field: plain}), field)
        assert isinstance(replaced, SeparableField) and (replaced.fn, replaced.nodes, replaced.weights) == (plain, nodes, weights)
        assert getattr(dataclasses.replace(case), field) is fn


@pytest.mark.parametrize("name", CASES)
def test_time_nodes_of_a_field(name):
    # a separable field, or a value and gradient of the same nodes and
    # weights, is its own set of nodes, whose weighted sum is the field at
    # t; a plain callable, or a pair of other weights, is one node at t of
    # weight 1 and not separable
    case = get_case(name)
    x, y = np.random.default_rng(1).random((2, 20))
    t = 0.37
    for fields in [(case.f,), (case.u, case.grad_u)]:
        got, weights, separable = time_nodes(t, *fields)
        assert separable and got == fields and len(fields[0].nodes) == len(weights)
        assert list(weights) == list(fields[0].weights(t))
        for field in fields:
            summed = sum(w * np.asarray(field.fn(s, x, y)) for w, s in zip(weights, field.nodes))
            assert np.allclose(summed, field(t, x, y), rtol=0.0, atol=1e-13 * np.abs(field(t, x, y)).max())
    decay = SeparableField(case.grad_u.fn, (0.0,), lambda t: (np.exp(-t),))
    for fields in [(case.f.fn,), (case.u, decay), (case.u.fn, case.grad_u)]:
        got, weights, separable = time_nodes(t, *fields)
        assert not separable and weights == (1.0,) and all(field.nodes == (t,) for field in got)
        for field, plain in zip(got, fields):
            assert np.array_equal(np.asarray(field.fn(t, x, y)), np.asarray(plain(t, x, y)))


def first_sources(case):
    """f and g of ``case`` as first written: du/dt from u, laplace(u) and g
    from cos(2 pi x) and the y factor, one temporary per operation."""
    alpha, beta, lam, tp = case.alpha, case.beta, case.lam, 2.0 * np.pi
    if case.name == "example1":

        def f(t, x, y):
            e, c = np.exp(-10.0 * t), np.cos(tp * x)
            lap = e * np.cos(2.0 * tp * y) * (tp**2 * c - 4.0 * tp**2 * (1.0 - c))
            return -10.0 * case.u(t, x, y) - lap

        def g(t, x, y):
            e, c = np.exp(-10.0 * t), np.cos(tp * x)
            return np.cos(2.0 * tp * y) * e * ((alpha - 10.0 * lam) * (1.0 - c) - beta * tp**2 * c)

        return f, g

    def f(t, x, y):
        c = np.cos(tp * x)
        lap = t * np.cos(np.pi * y) * (tp**2 * c - np.pi**2 * (1.0 - c))
        return (1.0 - np.cos(tp * x)) * np.cos(np.pi * y) - lap

    def g(t, x, y):
        c = np.cos(tp * x)
        return np.cos(np.pi * y) * (lam * (1.0 - c) + alpha * t * (1.0 - c) - beta * tp**2 * t * c)

    return f, g


@pytest.mark.parametrize("coefficients", [{}, {"alpha": 0.5, "beta": 3.0, "lam": 0.25}])
@pytest.mark.parametrize("case_fn", [example1, example3])
def test_lean_sources_are_the_first_closed_forms(case_fn, coefficients):
    # the sources take each cosine in place of its argument and run their
    # arithmetic in place: to 1e-14 relative to each field's largest value
    # they are the forms first written, on arrays, which they leave as they
    # were, and on Python floats, as the high-precision checks pass them
    case = case_fn(**coefficients)
    rng = np.random.default_rng(3)
    x, y = rng.random((2, 40, 7))
    points = [(float(a), float(b)) for a, b in rng.random((50, 2))]
    for new, old in zip((case.f, case.g), first_sources(case)):
        for t in (0.0, 0.3, 1.0):
            given = x.copy(), y.copy()
            want = old(t, x, y)
            assert np.abs(new(t, x, y) - want).max() <= 1e-14 * np.abs(want).max()
            assert np.array_equal(x, given[0]) and np.array_equal(y, given[1])
            values = [(new(t, a, b), old(t, a, b)) for a, b in points]
            assert all(isinstance(v, float) for v, _ in values)
            got, want = np.array(values).T
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def two_array_form(a, b, x, ky):
    """(a - b cos(2 pi x)) cos(ky) with a work array for each cosine, the
    form the sources took before they kept one."""
    out, cos_ky = (np.cos(v, out=v) if isinstance(v, np.ndarray) else np.cos(v) for v in (TWO_PI * x, ky))
    out *= -b
    out += a
    out *= cos_ky
    return out


@pytest.mark.parametrize("k", [2.0 * TWO_PI, np.pi])
def test_lean_form_is_the_two_array_form_in_one_work_array(k):
    # bitwise the two-array form on a point set's strided x and y views (of
    # one (m, 2, nq) array, as ``_on_simplices`` makes them), with a
    # partial last block, on time weights given per point, and on Python
    # floats; x and y are left as they were, and beyond the result the
    # form holds one block of cos(k y), where the two-array form held a
    # second array of the result's size
    rng = np.random.default_rng(5)
    points = rng.random((3 * BLOCK_VALUES // 25 + 7, 2, 25))
    x, y = points[:, 0], points[:, 1]
    given = points.copy()
    for a, b in ((1.5, -2.25), (rng.random(x.shape), rng.random(x.shape))):
        assert _lean_form(a, b, x, k, y).tobytes() == two_array_form(a, b, x, k * y).tobytes()
    assert points.tobytes() == given.tobytes()
    for xs, ys in rng.random((20, 2)).tolist():
        got = _lean_form(0.75, 3.5, xs, k, ys)
        assert isinstance(got, float) and got == two_array_form(0.75, 3.5, xs, k * ys)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _lean_form(1.5, -2.25, x, k, y)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * BLOCK_VALUES + 8 * np.getbufsize() + 4096  # and a ufunc's buffer for strided y
