"""Closed-form test cases with sources derived from the exact solution.

Each case provides u, its gradient, the bulk source
f = du/dt - laplace(u), and the boundary source

    g = lam * du/dt + du/dn + alpha * u - beta * d2u/dx2   on gamma1,

with du/dn = -du/dy on the bottom component and +du/dy on the top.  The
sources are hand-derived closed forms; the test suite validates them
against high-precision numerical differentiation of u.

Every field of the shipped cases separates in time: it is a short sum of
time weights times its own values at a few time nodes.  A case declares
these nodes and weights per field, which is then a ``SeparableField``.
``time_nodes`` gives a field's nodes: a separable field's own, so each
spatial part (a source's load vectors, an exact field's part of the
energy error) is made once and kept on the space under the field and
every later time is a weighted sum; any other field is one node at the
call's time, and nothing is kept.

A kept source node is evaluated on all the points of a set at once, so
its temporaries add to the run's peak: the shipped sources, each one form
cos(k y) (a - b cos(2 pi x)), keep one work array beyond the points
(``_lean_form``), 6.5 MB at level 7, p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import DIRICHLET_LATERAL, PERIODIC

TWO_PI = 2.0 * np.pi
BLOCK_VALUES = 2**14  # the values of cos(k y) a source holds at once


def _lean_form(a, b, x, k, y):
    """(a - b cos(2 pi x)) cos(k y), bitwise as the plain form takes it, in
    one work array beyond x and y: cos(2 pi x) is taken in place of its
    argument and the rest of the arithmetic in place, with cos(k y) made
    BLOCK_VALUES at a time.  A point set's x and y are strided views of
    one array, which a reshape would copy, so the blocks are rows of y.
    On Python floats, as the high-precision tests pass them, and on
    arrays of other shapes, the plain way."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        return (a - b * np.cos(TWO_PI * x)) * np.cos(k * y)
    out = np.multiply(TWO_PI, x)
    np.cos(out, out=out)
    out *= -b
    out += a
    if not isinstance(y, np.ndarray) or y.shape != out.shape:
        out *= np.cos(k * y)
        return out
    rows = max(1, BLOCK_VALUES // out[0].size)
    block = np.empty_like(out[:rows])
    for i in range(0, len(out), rows):
        cos_ky = block[: len(out) - i]
        out[i : i + rows] *= np.cos(np.multiply(k, y[i : i + rows], out=cos_ky), out=cos_ky)
    return out


@dataclass(frozen=True)
class SeparableField:
    """A field whose value at time t is sum_k weights(t)[k] * fn(nodes[k], x, y).

    Each ``fn(nodes[k], x, y)`` is an exact value of the field, so no
    differencing is involved; what is computed from it once per space is
    kept, never its values on the points.
    """

    fn: callable  # (t, x, y) -> values, or a (d/dx, d/dy) pair for a gradient
    nodes: tuple[float, ...]
    weights: callable  # t -> one weight per node

    def __call__(self, t, x, y):
        return self.fn(t, x, y)


def time_nodes(t: float, *fields) -> tuple:
    """(fields, weights, separable): the ``fields`` as ``SeparableField``s of
    one set of nodes, each at time t the sum of weights[k] times its value
    at node k.  SeparableFields of the same nodes and weights are their
    own and ``separable``: what their nodes make is kept on a space under
    them.  Anything else is one node at t, weight 1, made afresh."""
    first = fields[0]
    if all(isinstance(f, SeparableField) and (f.nodes, f.weights) == (first.nodes, first.weights) for f in fields):
        return fields, first.weights(t), True
    return tuple(SeparableField(f, (t,), lambda s: (1.0,)) for f in fields), (1.0,), False


@dataclass(frozen=True)
class ManufacturedCase:
    name: str
    bc_mode: str
    alpha: float
    beta: float
    lam: float
    u: callable  # u(t, x, y)
    grad_u: callable  # (t, x, y) -> (du/dx, du/dy)
    f: callable
    g: callable  # valid on gamma1 only (y = 0 or y = 1)
    # (time nodes, weights(t)) of the fields that separate in time, by field name
    time_factors: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        # a declared field given as a plain callable, also by replace(), is wrapped
        for name, (nodes, weights) in self.time_factors.items():
            if not isinstance(fn := getattr(self, name), SeparableField):
                object.__setattr__(self, name, SeparableField(fn, nodes, weights))

    def u0(self, x, y):
        return self.u(0.0, x, y)


def example1(alpha: float = 2.0, beta: float = 5.0, lam: float = 10.0) -> ManufacturedCase:
    """u = exp(-10 t) (1 - cos(2 pi x)) cos(4 pi y), periodic in x."""

    def u(t, x, y):
        return np.exp(-10.0 * t) * (1.0 - np.cos(TWO_PI * x)) * np.cos(2.0 * TWO_PI * y)

    def grad_u(t, x, y):
        e = np.exp(-10.0 * t)
        gx = e * TWO_PI * np.sin(TWO_PI * x) * np.cos(2.0 * TWO_PI * y)
        gy = -e * 2.0 * TWO_PI * (1.0 - np.cos(TWO_PI * x)) * np.sin(2.0 * TWO_PI * y)
        return gx, gy

    def f(t, x, y):
        # du/dt - laplace(u), du/dt = -10 u and laplace(u) = e cos(4 pi y)
        #   (20 pi^2 cos(2 pi x) - 16 pi^2)
        e = np.exp(-10.0 * t)
        return _lean_form(e * (4.0 * TWO_PI**2 - 10.0), e * (5.0 * TWO_PI**2 - 10.0), x, 2.0 * TWO_PI, y)

    def g(t, x, y):
        # normal derivative vanishes on both components (sin(4 pi y) = 0)
        e = np.exp(-10.0 * t)
        return _lean_form(e * (alpha - 10.0 * lam), e * (alpha - 10.0 * lam + beta * TWO_PI**2), x, 2.0 * TWO_PI, y)

    decay = ((0.0,), lambda t: (np.exp(-10.0 * t),))  # every field is exp(-10 t) times its value at 0
    return ManufacturedCase(
        name="example1", bc_mode=PERIODIC, alpha=alpha, beta=beta, lam=lam,
        u=u, grad_u=grad_u, f=f, g=g,
        time_factors={name: decay for name in ("u", "grad_u", "f", "g")},
    )


def example3(alpha: float = 2.0, beta: float = 5.0, lam: float = 10.0) -> ManufacturedCase:
    """u = t (1 - cos(2 pi x)) cos(pi y); vanishes on the lateral boundary,
    so homogeneous Dirichlet data there is consistent."""

    def u(t, x, y):
        return t * (1.0 - np.cos(TWO_PI * x)) * np.cos(np.pi * y)

    def grad_u(t, x, y):
        gx = t * TWO_PI * np.sin(TWO_PI * x) * np.cos(np.pi * y)
        gy = -t * np.pi * (1.0 - np.cos(TWO_PI * x)) * np.sin(np.pi * y)
        return gx, gy

    def f(t, x, y):
        # du/dt = (1 - cos(2 pi x)) cos(pi y), laplace(u) = t cos(pi y)
        #   (5 pi^2 cos(2 pi x) - pi^2)
        return _lean_form(1.0 + np.pi**2 * t, 1.0 + 5.0 * np.pi**2 * t, x, np.pi, y)

    def g(t, x, y):
        # du/dy = 0 on y in {0, 1} (sin(pi y) = 0); cos(pi y) = +/-1 selects
        # the component
        a = lam + alpha * t
        return _lean_form(a, a + beta * TWO_PI**2 * t, x, np.pi, y)

    linear = ((1.0,), lambda t: (t,))  # t times the value at 1
    affine = ((0.0, 1.0), lambda t: (1.0 - t, t))  # interpolates the values at 0 and 1
    return ManufacturedCase(
        name="example3", bc_mode=DIRICHLET_LATERAL, alpha=alpha, beta=beta, lam=lam,
        u=u, grad_u=grad_u, f=f, g=g,
        time_factors={"u": linear, "grad_u": linear, "f": affine, "g": affine},
    )


def get_case(name: str) -> ManufacturedCase:
    """Case lookup; example2 reuses example1's fields (it differs only in
    the run configuration)."""
    if name in ("example1", "example2"):
        return example1()
    if name == "example3":
        return example3()
    raise ValueError(f"unknown case {name!r}")
