"""Truncated Taylor-jet arithmetic (forward-mode derivatives of curves).

A :class:`Jet` stores the coefficients ``(u_0, ..., u_m)`` of a truncated
Taylor expansion ``u(t) = sum_k u_k t^k + O(t^{m+1})`` of one scalar curve.
Arithmetic truncates consistently at the smaller operand order.

Coefficients live in any commutative ring with the required elementary
functions: floats, numpy arrays (vectorised jets), or other jets.  The
latter is what makes nested directional derivatives work: an inner
derivative built while an outer one is in progress simply produces jets
whose coefficients are jets.  A jet does not know its variable, and
``Jet * Jet`` convolves any two jets: a jet of an enclosing level enters
an inner one only as a coefficient.  The modified-field terms nest to
depth four (``phi_5``) under jets in the step size ``h``.
"""

import numpy as np

from . import _mathops as _m


class Jet:
    """Truncated Taylor coefficients of a scalar curve."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        return self.coeffs[k]

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            m = min(self.order, other.order)
            return Jet([self.coeffs[k] + other.coeffs[k] for k in range(m + 1)])
        c = list(self.coeffs)
        c[0] = c[0] + other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1.0 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            m = min(self.order, other.order)
            a, b = self.coeffs, other.coeffs
            return Jet(
                [
                    sum(a[i] * b[k - i] for i in range(1, k + 1)) + a[0] * b[k]
                    for k in range(m + 1)
                ]
            )
        return Jet([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            raise TypeError("jet division is only supported by scalars")
        return self * (1.0 / other)

    # -- elementary functions (standard convolution recurrences) ---------

    def sin(self):
        return self._sincos()[0]

    def cos(self):
        return self._sincos()[1]

    def _sincos(self):
        u = self.coeffs
        m = self.order
        s = [_m.sin(u[0])]
        c = [_m.cos(u[0])]
        for k in range(1, m + 1):
            sk = sum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
            ck = -sum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
            s.append(sk)
            c.append(ck)
        return Jet(s), Jet(c)

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


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
    seeds = tuple(Jet([c, v]) for c, v in zip(comps, v_comps))
    out = g.components(seeds, h) if hasattr(g, "components") else g(seeds)
    res = []
    for o in out:
        if isinstance(o, Jet):
            res.append(o.coeff(1))
        else:
            res.append(0.0 * o)  # component did not depend on the input
    return tuple(res)


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
