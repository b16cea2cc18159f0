import math

import numpy as np
import pytest

from modfield.jets import (
    Jet,
    dd_components,
    directional_derivative,
    jacobian,
    stack,
)
from modfield.modified_field import truncated_field
from modfield.systems import get_system


def test_jet_requires_constant_term():
    with pytest.raises(ValueError):
        Jet([])


def test_jet_product():
    # (1 + t)(2 + 3t) = 2 + 5t + O(t^2)
    a = Jet([1.0, 1.0])
    b = Jet([2.0, 3.0])
    assert (a * b).coeffs == [2.0, 5.0]


def test_jet_scalar_mix():
    a = Jet([1.0, 2.0])
    assert (a + 1.0).coeffs == [2.0, 2.0]
    assert (3.0 * a).coeffs == [3.0, 6.0]
    assert (1.0 - a).coeffs == [0.0, -2.0]


def test_jet_division_by_scalar_only():
    # a jet scales by a reciprocal; it has no division
    a = Jet([1.0, 2.0])
    back = (a * (1.0 / 4.0)) * 4.0
    assert np.allclose(back.coeffs, a.coeffs)
    with pytest.raises(TypeError):
        a / 4.0


def test_sin_cos_taylor_coefficients():
    # jet of t -> sin(x + t): the value and the derivative
    x = 0.7
    j = Jet([x, 1.0]).sin()
    assert np.allclose(j.coeffs, [math.sin(x), math.cos(x)], atol=1e-15)
    j = Jet([x, 1.0]).cos()
    assert np.allclose(j.coeffs, [math.cos(x), -math.sin(x)], atol=1e-15)


def test_sin_chain_rule():
    # t -> sin(x + 2t): d/dt sin(u(t)) = cos(u) u'
    x, b = 0.3, 2.0
    j = Jet([x, b]).sin()
    assert j.coeffs[1] == pytest.approx(math.cos(x) * b, abs=1e-15)


def test_array_valued_jets():
    x = np.array([0.1, 0.5, 2.0])
    j = Jet([x, np.ones_like(x)]).sin()
    assert np.allclose(j.coeffs[0], np.sin(x))
    assert np.allclose(j.coeffs[1], np.cos(x))


def test_stack_broadcasts_constant_components():
    out = stack((np.array([1.0, 2.0, 3.0]), 0.5, np.float64(-1.0)))
    assert out.shape == (3, 3)
    assert np.array_equal(out, [[1.0, 0.5, -1.0], [2.0, 0.5, -1.0],
                                [3.0, 0.5, -1.0]])
    assert np.array_equal(stack((2.0, 3.0)), [2.0, 3.0])


def test_directional_derivative_matches_fd(rng):
    for name in ("pendulum", "rigid_body"):
        field = get_system(name)
        y = rng.uniform(-2, 2, size=(30, field.dim))
        v = rng.standard_normal((30, field.dim))
        dd = directional_derivative(field, y, v)
        eps = 1e-5 * (1.0 + np.abs(y).max())
        fd = (field(y + eps * v) - field(y - eps * v)) / (2 * eps)
        denom = 1.0 + np.abs(fd)
        assert np.max(np.abs(dd - fd) / denom) < 1e-7


@pytest.mark.parametrize("name", ["pendulum", "rigid_body"])
@pytest.mark.parametrize("shape", [(), (9,)])
def test_jacobian_in_one_pass_is_the_directional_columns(rng, name, shape):
    base = get_system(name)
    y = rng.uniform(-1.5, 1.5, size=shape + (base.dim,))
    # a scalar step, and one step per row
    for g, h in ((base, None), (truncated_field(base, "rk2", 3), 0.3),
                 (truncated_field(base, "euler", 3),
                  rng.uniform(0.1, 0.5, size=shape))):
        cols = [directional_derivative(g, y, np.broadcast_to(e, y.shape), h)
                for e in np.eye(base.dim)]
        assert np.array_equal(jacobian(g, y, h), np.stack(cols, axis=-1))


@pytest.mark.parametrize("name", ["pendulum", "rigid_body"])
@pytest.mark.parametrize("scheme", ["euler", "rk2", "midpoint"])
def test_truncated_field_derivatives_at_per_row_steps(rng, name, scheme):
    # one step per row: the powers of h are arrays that meet jets
    base = get_system(name)
    g = truncated_field(base, scheme, 3)
    y = rng.uniform(-1.5, 1.5, size=(6, base.dim))
    v = rng.standard_normal((6, base.dim))
    h = rng.uniform(0.1, 0.5, size=6)
    eps = 1e-5
    fd = (g(y + eps * v, h) - g(y - eps * v, h)) / (2 * eps)
    assert np.max(np.abs(directional_derivative(g, y, v, h) - fd)) < 1e-8
    jac = jacobian(g, y, h)
    for j, e in enumerate(np.eye(base.dim)):
        fd = (g(y + eps * e, h) - g(y - eps * e, h)) / (2 * eps)
        assert np.max(np.abs(jac[..., j] - fd)) < 1e-8


def test_directional_derivative_shape_mismatch(pendulum):
    with pytest.raises(ValueError):
        directional_derivative(pendulum, np.zeros(2), np.zeros((2, 2)))


def test_nested_directional_derivative(pendulum):
    """Depth-2 nesting against a hand-derived formula.

    For f = (-sin y2, y1), g := df.f has Jacobian rows
    (-cos y2, y1 sin y2) and (0, -cos y2), so dg.f is
    (sin y2 cos y2 + y1^2 sin y2, -y1 cos y2).
    """
    y = np.array([1.0, 0.7])

    def g(comps):
        return dd_components(pendulum, comps, pendulum.components(comps))

    got = directional_derivative(g, y[None, :], pendulum(y)[None, :])[0]
    y1, y2 = y
    expect = np.array([
        math.sin(y2) * math.cos(y2) + y1 * y1 * math.sin(y2),
        -y1 * math.cos(y2),
    ])
    assert np.max(np.abs(got - expect)) < 1e-13
