"""Truncated modified vector fields.

A one-step method of order p applied to the modified field

    f_h(y) = f(y) + h^p (f^[1](y) + h f^[2](y) + ...)

reproduces the exact flow of ``f`` to higher order the more correction
terms are kept.  The terms come from one order-matching routine for every
Runge-Kutta tableau, explicit or implicit (Hairer-Lubich-Wanner,
*Geometric Numerical Integration*, ch. IX): ``f^[j]`` is the ``h^{p+j}``
Taylor coefficient of the exact flow minus that of the scheme's step on
the field truncated after ``f^[j-1]``.  The flow coefficients follow the
Lie recursion ``phi_m = d phi_{m-1} . f / m``; the step is run with ``h``
as a power series.  All derivatives are taken with nested Taylor jets.
"""

import numpy as np

from . import jets
from .errors import UnsupportedTruncationError
from .integrators import get_tableau

# Deepest flow Taylor order the terms may use: f^[k-1] needs phi_{p+k-1},
# and each order nests one more jet, so the cost grows exponentially.
MAX_TAYLOR_ORDER = 5


def max_truncation(scheme):
    """Deepest truncation ``k``, where ``p + k - 1 = MAX_TAYLOR_ORDER``."""
    return MAX_TAYLOR_ORDER + 1 - get_tableau(scheme).order


def _flow_coeff(field, cs, f, m):
    """Taylor coefficient ``phi_m`` of the exact flow of ``field`` at
    ``cs``, where the field's value is ``f = phi_1``."""
    if m == 1:
        return f
    d = jets.dd_components(
        lambda z: _flow_coeff(field, z, field.components(z), m - 1), cs, f)
    return tuple((1.0 / m) * x for x in d)


def _series(v, m):
    """A field or term value at an ``h``-series point as a series of order
    ``m``: it is one already, or a plain number or array where it does
    not depend on the point."""
    return v if isinstance(v, jets.Jet) else jets.Jet([v] + [0.0] * m)


def _at_point(f, terms, p, top):
    """The field ``f + sum_n h^{p+n} f^[n+1]`` at ``cs`` itself, where its
    values are known, as ``h``-series of order ``top``."""
    return tuple(jets.Jet(([fc] + [0.0] * (p - 1) + [t[c] for t in terms]
                           + [0.0] * top)[:top + 1])
                 for c, fc in enumerate(f))


def _on_series(field, tab, ys, terms, top):
    """The field ``f + sum_n h^{p+n} f^[n+1]`` at the ``h``-series point
    ``ys``, to order ``top``; the terms are derived again on the series."""
    ks = [_series(v, top) for v in field.components(ys)]
    # f^[n+1] enters at h^{p+n}, so it is needed to order top - p - n only
    lo = top - tab.order
    n_used = min(len(terms), lo + 1)
    if n_used > 0:
        low = tuple(jets.Jet(y.coeffs[:lo + 1]) for y in ys)
        for e, t in enumerate(_terms(field, tab, low, field.components(low),
                                     n_used), start=tab.order):
            # times h^e: a shift of the coefficients, not a jet product
            ks = [k + jets.Jet([0.0] * e + _series(tc, lo).coeffs[:top + 1 - e])
                  for k, tc in zip(ks, t)]
    return tuple(ks)


def _step_coeff(field, tab, cs, f, terms, m):
    """The ``h^m`` coefficient of one step of ``tab`` from ``cs`` on the
    field ``f + sum_n h^{p+n} f^[n+1]`` with the given ``terms``.

    The stages ``k_i`` are ``h``-series of order ``m - 1``; a stage that
    no other stage feeds sits at ``cs``.  Explicit tableaus take one sweep
    in stage order.  Implicit ones iterate from the stages at ``cs``: the
    sweep to order ``o`` needs the previous sweep to order ``o - 1`` only,
    so the orders run up to ``m - 1`` one per sweep.
    """
    ks = [None] * tab.stages
    for top in [m - 1] if tab.is_explicit else range(m):
        for i, row in enumerate(tab.a):
            feed = [(a, k) for a, k in zip(row, ks)
                    if a != 0.0 and k is not None]
            if not feed:
                ks[i] = _at_point(f, terms, tab.order, top)
                continue
            # y + h sum_j a_ij k_j: the point's values only ever lead the
            # series, they never meet it in a jet product
            ys = tuple(jets.Jet([y] + sum(a * k[c] for a, k in feed)
                                .coeffs[:top])
                       for c, y in enumerate(cs))
            ks[i] = _on_series(field, tab, ys, terms, top)
    # the step is y + h sum_i b_i k_i(h)
    return tuple(sum(b * k[c].coeffs[m - 1] for b, k in zip(tab.b, ks)
                     if b != 0.0)
                 for c in range(len(cs)))


def _terms(field, tab, cs, f, n):
    """Correction terms ``f^[1..n]`` of ``tab``'s modified field at ``cs``,
    where the field's value is ``f``."""
    terms = []
    for j in range(1, n + 1):
        m = tab.order + j
        flow = _flow_coeff(field, cs, f, m)
        step = _step_coeff(field, tab, cs, f, terms, m)
        terms.append(tuple(a - b for a, b in zip(flow, step)))
    return terms


class TruncatedModifiedField:
    """Evaluator of ``f(y) + h^p sum_{j<k} h^{j-1} f^[j](y)``.

    Behaves like a vector field with a step argument: ``field(y, h)``
    with scalar or per-record ``h``.  ``k = 1`` reduces to the base field.
    Any Runge-Kutta scheme is accepted up to ``k = max_truncation(scheme)``.
    """

    def __init__(self, base, scheme, k):
        tab = get_tableau(scheme)
        k_max = max_truncation(scheme)
        if not 1 <= k <= k_max:
            raise UnsupportedTruncationError(
                f"truncation k={k} unsupported for scheme {scheme!r} "
                f"(its terms reach k={k_max}: Taylor order p+k-1 <= "
                f"{MAX_TAYLOR_ORDER})"
            )
        self.base = base
        self.tableau = tab
        self.p = tab.order
        self.k = int(k)

    def terms(self, y):
        """The kept terms ``f^[1..k-1]``, stacked as ``(k-1, ..., d)``."""
        cs = jets.split(y)
        terms = _terms(self.base, self.tableau, cs, self.base.components(cs),
                       self.k - 1)
        out = np.empty((len(terms),) + np.shape(y))
        for j, t in enumerate(terms):
            out[j] = jets.stack(t)
        return out

    def __call__(self, y, h):
        return jets.stack(self.components(jets.split(y),
                                          np.asarray(h, dtype=float)))

    def components(self, cs, h=None):
        if h is None:
            raise ValueError("a truncated modified field needs a step h")
        out = f = self.base.components(cs)
        for j, t in enumerate(_terms(self.base, self.tableau, cs, f,
                                     self.k - 1), start=1):
            w = h ** (self.p + j - 1)
            out = tuple(o + w * x for o, x in zip(out, t))
        return out


def truncated_field(base, scheme, k):
    """Build the order-``k`` truncated modified field for a scheme."""
    return TruncatedModifiedField(base, scheme, k)

