"""Truncated modified vector fields and numerical extraction oracles.

A one-step method of order p applied to the modified field

    f_h(y) = f(y) + h^p (f1(y) + h f2(y) + ...)

reproduces the exact flow of ``f`` to higher order the more correction
terms are kept.  Closed-form terms are implemented for the explicit Euler
method (by the recursion ``f_j = d f_{j-1} . f / (j+1)``) and for the
explicit-midpoint RK2 method (two terms).  Heun's RK2 has different terms
from ``f^[1]`` on, and none are implemented for it.  All derivatives are
taken with nested Taylor jets.

For schemes without closed-form terms (implicit midpoint) the modified
field is probed numerically: the step equation is solved against the
exact flow so the probed values carry no coupling from higher-order
defect terms.
"""

import warnings

import numpy as np

from . import jets
from .errors import ConditioningWarning, FixedPointError, UnsupportedTruncationError
from .integrators import canonical_scheme, get_stepper, get_tableau

# schemes with closed-form terms: (order p, deepest truncation k).  Each
# Euler level nests one more jet, so its cost grows exponentially in k.
_TRUNCATIONS = {"euler": (1, 5), "rk2_midpoint": (2, 3), "rk2_heun": (2, 1)}


def max_truncation(scheme):
    """Deepest truncation ``k`` with closed-form terms; 0 if none exist."""
    return _TRUNCATIONS.get(canonical_scheme(scheme), (0, 0))[1]


def _scale(t, s):
    return tuple(s * x for x in t)


def _add(*tuples):
    out = tuples[0]
    for t in tuples[1:]:
        out = tuple(a + b for a, b in zip(out, t))
    return out


def _euler_comps(field, j, cs):
    f = field.components(cs)
    if j == 1:
        return _scale(jets.dd_components(field, cs, f), 0.5)

    def prev(z):
        return _euler_comps(field, j - 1, z)

    return _scale(jets.dd_components(prev, cs, f), 1.0 / (j + 1))


def _rk2_comps(field, j, cs):
    def F(z):
        return field.components(tuple(z))

    def G1(z):  # (df.f)(z)
        return jets.dd_components(F, z, F(z))

    f = F(cs)
    if j == 1:
        t1 = jets.dd_components(G1, cs, f)  # d(df.f).f
        t2 = jets.dd_components(F, cs, jets.dd_components(F, cs, f))  # df.df.f
        return _add(_scale(t1, 1.0 / 24.0), _scale(t2, 1.0 / 8.0))

    def G2(z):  # (d(df.f).f)(z)
        return jets.dd_components(G1, z, F(z))

    def f1map(z):
        return _rk2_comps(field, 1, z)

    t1 = jets.dd_components(G2, cs, f)  # depth-3 nesting
    f1 = f1map(cs)
    t2 = jets.dd_components(F, cs, f1)  # df.f1
    t3 = jets.dd_components(f1map, cs, f)  # d f1 . f
    return _add(_scale(t1, 1.0 / 24.0), _scale(t2, -0.5), _scale(t3, -0.5))


def _stack(y, comps):
    out = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in comps))
    return np.stack(out, axis=-1)


def _split(y):
    y = np.asarray(y, dtype=float)
    return y, tuple(y[..., i] for i in range(y.shape[-1]))


def euler_term(base, j, y):
    """Correction term ``f^[j]`` of the Euler modified field at ``y``.

    ``f^[1] = df.f / 2`` and ``f^[j] = d f^[j-1] . f / (j+1)``.  Accepts
    batches ``(..., d)``.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    y, cs = _split(y)
    return _stack(y, _euler_comps(base, int(j), cs))


def rk2_term(base, j, y):
    """Correction term ``f^[j]`` (j in {1, 2}) of the RK2 modified field."""
    if j not in (1, 2):
        raise UnsupportedTruncationError(
            f"RK2 correction terms are available for j in {{1, 2}}, got {j}"
        )
    y, cs = _split(y)
    return _stack(y, _rk2_comps(base, int(j), cs))


class TruncatedModifiedField:
    """Evaluator of ``f(y) + h^p sum_{j<k} h^{j-1} f^[j](y)``.

    Behaves like a vector field with a step argument: ``field(y, h)``
    with scalar or per-record ``h``.  ``k = 1`` reduces to the base field.
    """

    def __init__(self, base, scheme, k):
        key = canonical_scheme(scheme)
        if key not in _TRUNCATIONS:
            raise UnsupportedTruncationError(
                f"no closed-form modified-field terms for scheme {scheme!r}"
            )
        p, k_max = _TRUNCATIONS[key]
        if not 1 <= k <= k_max:
            raise UnsupportedTruncationError(
                f"truncation k={k} unsupported for scheme {scheme!r} "
                f"(closed-form terms reach k={k_max})"
            )
        self.base = base
        self.scheme = key
        self.family = "euler" if key == "euler" else "rk2"
        self.p = p
        self.k = int(k)
        self.name = f"{base.name}_{self.family}_k{k}"

    @property
    def dim(self):
        return self.base.dim

    def term(self, j, y):
        if self.family == "euler":
            return euler_term(self.base, j, y)
        return rk2_term(self.base, j, y)

    def terms(self, y):
        """All kept correction terms, stacked as ``(k-1, ..., d)``."""
        return np.stack([self.term(j, y) for j in range(1, self.k)], axis=0)

    def __call__(self, y, h):
        y = np.asarray(y, dtype=float)
        out = self.base(y)
        if self.k == 1:
            return out
        h = np.asarray(h, dtype=float)
        for j in range(1, self.k):
            w = h ** (self.p + j - 1)
            out = out + np.asarray(w)[..., None] * self.term(j, y)
        return out

    def components(self, cs, h=None):
        if h is None:
            raise ValueError("a truncated modified field needs a step h")
        out = self.base.components(cs)
        comps_fn = _euler_comps if self.family == "euler" else _rk2_comps
        for j in range(1, self.k):
            out = _add(out, _scale(comps_fn(self.base, j, cs), h ** (self.p + j - 1)))
        return out


def truncated_field(base, scheme, k):
    """Build the order-``k`` truncated modified field for a scheme."""
    return TruncatedModifiedField(base, scheme, k)


def extract_first_correction(scheme, base, y, hs, tol=1e-13, degree=2):
    """Numerically extract ``f^[1](y)`` from flow-versus-step defects.

    Fits ``(phi_h(y) - Phi_h(y)) / h^{p+1}`` by ordinary least squares to
    a polynomial in ``h`` of the given degree and returns the constant
    coefficient.  ``hs`` should be small and decreasing; the reference
    flow runs at tolerance ``tol``.  Attaches a
    :class:`ConditioningWarning` when the design matrix is severely
    ill-conditioned.
    """
    from .systems import reference_flow

    hs = np.asarray(hs, dtype=float)
    if hs.ndim != 1 or hs.size < 3:
        raise ValueError("need at least 3 step sizes")
    if np.any(hs <= 0) or np.any(np.diff(hs) >= 0):
        raise ValueError("hs must be positive and strictly decreasing")
    y = np.asarray(y, dtype=float)
    stepper = get_stepper(scheme)
    p = get_tableau(scheme).order

    ratios = np.empty((hs.size, y.size))
    for i, h in enumerate(hs):
        phi = reference_flow(base, y, float(h), tol)
        step = stepper(base, y, float(h))
        ratios[i] = (phi - step) / h ** (p + 1)

    # columns 1, h, ..., h^degree; scale columns for a meaningful condition
    vand = np.vander(hs, degree + 1, increasing=True)
    cond = np.linalg.cond(vand / np.abs(vand).max(axis=0))
    coef, *_ = np.linalg.lstsq(vand, ratios, rcond=None)
    if cond > 1e8:
        warnings.warn(
            f"extraction fit condition number {cond:.2e}; "
            "widen or rescale the step list",
            ConditioningWarning,
            stacklevel=2,
        )
    return coef[0]


def midpoint_field_probe(field, x, h, tol=1e-12, max_iter=50):
    """Value of the implicit-midpoint modified field at ``x`` for step ``h``.

    Solves ``(y + phi_h(y))/2 = x`` for ``y`` (Newton with the first-order
    Jacobian ``I + (h/2) df``), then returns ``(phi_h(y) - y)/h``, which
    is the field the midpoint rule would have to see at its stage point to
    reproduce the exact step.  Its expansion in ``h`` is the midpoint
    modified field, free of defect-coupling terms, so odd/even structure
    can be read off directly.  Negative ``h`` probes the reversed flow.

    ``x`` may be a single state or a batch ``(n, d)``.
    """
    from .integrators import adaptive_flow_batch

    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    n, d = X.shape
    if h == 0:
        raise ValueError("h must be nonzero")
    flow_field = field if h > 0 else field.negated()
    t = np.full(n, abs(float(h)))

    def flow(Y):
        out, ok, reached = adaptive_flow_batch(flow_field, Y, t, tol, tol)
        if not np.all(ok):
            bad = int(np.flatnonzero(~ok)[0])
            raise FixedPointError(
                f"reference flow failed while probing point {bad}",
                residual=float("inf"),
            )
        return out

    Y = X - 0.5 * h * field(X)
    scale = 1.0 + np.max(np.abs(X))
    for _ in range(max_iter):
        res = 0.5 * (Y + flow(Y)) - X
        if np.max(np.abs(res)) <= 10.0 * tol * scale:
            break
        jac = np.empty((n, d, d))
        for j in range(d):
            e = np.zeros_like(Y)
            e[:, j] = 1.0
            jac[:, :, j] = jets.directional_derivative(field, Y, e)
        jac = np.eye(d)[None] + (0.5 * h) * jac
        Y = Y - np.linalg.solve(jac, res[..., None])[..., 0]
    else:
        raise FixedPointError(
            "midpoint field probe did not converge",
            residual=float(np.max(np.abs(res))),
            iterations=max_iter,
        )
    g = (flow(Y) - Y) / h
    return g[0] if single else g


def midpoint_odd_coefficients(field, x, hs, tol=1e-12):
    """Fitted coefficients of odd powers of ``h`` in the midpoint field.

    Probes the modified field at ``+h`` and ``-h``; the odd part
    ``(g_h - g_{-h})/2 = h^3 f^[2] + h^5 f^[4] + ...`` is fitted against
    ``(h^3, h^5)`` and the coefficient vectors are returned, shaped
    ``(2, d)``.  For the midpoint rule these vanish (even expansion).
    """
    hs = np.asarray(hs, dtype=float)
    if hs.ndim != 1 or hs.size < 3 or np.any(hs <= 0):
        raise ValueError("need at least 3 positive step sizes")
    x = np.asarray(x, dtype=float)
    odd = np.empty((hs.size, x.size))
    for i, h in enumerate(hs):
        gp = midpoint_field_probe(field, x, float(h), tol)
        gm = midpoint_field_probe(field, x, -float(h), tol)
        odd[i] = 0.5 * (gp - gm)
    design = np.stack([hs**3, hs**5], axis=1)
    coef, *_ = np.linalg.lstsq(design, odd, rcond=None)
    return coef
