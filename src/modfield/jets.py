"""First-order jets: forward-mode directional derivatives.

A :class:`Jet` holds the value ``u`` and the slope ``u'`` of a curve
``u(t)`` at ``t = 0``, its first two Taylor coefficients ``(u, u')``.

Both live in any commutative ring with the required elementary functions:
floats, numpy arrays (vectorised jets), or other jets.  The latter is what
makes nested directional derivatives work: an inner derivative built while
an outer one is in progress simply produces jets whose coefficients are
jets.  A jet does not know its variable, and ``Jet * Jet`` multiplies any
two jets: a jet of an enclosing level enters an inner one only as a
coefficient.  The modified-field terms nest to depth four (the field's
fourth derivative) under the jets of an enclosing derivative.
"""

import numpy as np

from . import _mathops as _m


class Jet:
    """Value and slope ``(u, u')`` of a scalar curve."""

    __slots__ = ("coeffs",)
    # numpy hands ``array * jet`` to ``Jet.__rmul__`` instead of building
    # an object array of jets
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        if len(self.coeffs) != 2:
            raise ValueError("a jet is a value and one slope")

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        u, du = self.coeffs
        if isinstance(other, Jet):
            v, dv = other.coeffs
            return _jet(u + v, du + dv)
        return _jet(u + other, du)

    __radd__ = __add__

    def __neg__(self):
        u, du = self.coeffs
        return _jet(-u, -du)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1.0 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        u, du = self.coeffs
        if isinstance(other, Jet):
            v, dv = other.coeffs
            return _jet(u * v, du * v + u * dv)
        return _jet(u * other, du * other)

    __rmul__ = __mul__

    # -- elementary functions (chain rule) -------------------------------

    def sin(self):
        u, du = self.coeffs
        return _jet(_m.sin(u), du * _m.cos(u))

    def cos(self):
        u, du = self.coeffs
        return _jet(_m.cos(u), -(du * _m.sin(u)))

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


def _jet(u, du):
    """The jet ``(u, du)``, unchecked: jet arithmetic makes it well formed."""
    jet = object.__new__(Jet)
    jet.coeffs = [u, du]
    return jet


def dd_components(g, comps, v_comps, h=None):
    """Directional derivative at the component level (nestable form).

    ``g`` either exposes ``components(comps, h)`` (base fields, truncated
    modified fields) or is a plain callable on component tuples; learned
    models have neither and give their Jacobian in closed form
    (``ModifiedFieldModel.jacobian``).  Components may be floats, arrays,
    or jets; the result is a tuple in the same ring.
    ``dg(y) . v`` is read off as the order-1 Taylor coefficient of
    ``t -> g(y + t v)``.
    """
    seeds = tuple([_jet(c, v) for c, v in zip(comps, v_comps)])
    out = g.components(seeds, h) if hasattr(g, "components") else g(seeds)
    # a component that is no jet did not depend on the input
    return tuple(o.coeffs[1] if isinstance(o, Jet) else 0.0 * o for o in out)


def directional_derivative(g, y, v, h=None):
    """Jacobian-vector product ``dg(y) . v`` for a field-like map ``g``.

    ``y`` and ``v`` are arrays shaped ``(..., d)``; leading axes are
    vectorised through array-valued jet coefficients.
    """
    if np.shape(y) != np.shape(v):
        raise ValueError("y and v must have identical shapes")
    return stack(dd_components(g, split(y), split(v), h))


def jacobian(g, y, h=None):
    """Jacobian ``dg(y)`` shaped ``(..., d, d)``, column ``j`` the
    directional derivative along coordinate ``j``.

    One jet pass: the ``d`` directions lie along a last axis of the
    order-1 coefficients (and of a per-row ``h``), and each element sees
    the arithmetic of its own directional derivative.
    """
    y = np.asarray(y, dtype=float)
    if np.ndim(h):
        h = np.asarray(h, dtype=float)[..., None]
    eye = np.eye(y.shape[-1])
    rows = dd_components(g, tuple(c[..., None] for c in split(y)),
                         tuple(eye), h)
    out = np.empty(y.shape[:-1] + (len(rows), y.shape[-1]))
    for i, r in enumerate(rows):
        out[..., i, :] = r
    return out


def split(y):
    """The components ``y[..., i]`` of states shaped ``(..., d)``."""
    y = np.asarray(y, dtype=float)
    return tuple(y[..., i] for i in range(y.shape[-1]))


def stack(comps):
    """States shaped ``(..., d)`` from ``d`` broadcastable components."""
    out = np.empty(np.broadcast(*comps).shape + (len(comps),))
    for i, c in enumerate(comps):
        out[..., i] = c
    return out
