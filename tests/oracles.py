"""Numerical oracles for the modified-field terms and the stepping.

These solve against the exact flow instead of using B-series tables, so
they are independent references for the closed-form terms of
:mod:`modfield.modified_field`: a least-squares extraction of ``f^[1]``
and a probe of the implicit-midpoint modified field.  A textbook
Runge-Kutta stage loop is the reference for the step code the package
generates from a tableau.
"""

import warnings

import numpy as np

from modfield import jets
from modfield.errors import FixedPointError, StageOverflowError
from modfield.integrators import adaptive_flow_batch, get_stepper, get_tableau
from modfield.systems import VectorFieldSpec, reference_trajectory


class ConditioningWarning(UserWarning):
    """A fitted result came from an ill-conditioned least-squares system."""


def negated(field):
    """The time-reversed field ``y' = -f(y)``."""
    fn = field.component_fn
    return VectorFieldSpec(
        name=field.name + "_reversed",
        dim=field.dim,
        component_fn=lambda c: tuple(-z for z in fn(c)),
        invariants=field.invariants,
    )


def extract_first_correction(scheme, base, y, hs, tol=1e-13, degree=2):
    """Numerically extract ``f^[1](y)`` from flow-versus-step defects.

    Fits ``(phi_h(y) - Phi_h(y)) / h^{p+1}`` by ordinary least squares to
    a polynomial in ``h`` of the given degree and returns the constant
    coefficient.  ``hs`` should be small and decreasing; the reference
    flow runs at tolerance ``tol``.  Attaches a
    :class:`ConditioningWarning` when the design matrix is severely
    ill-conditioned.
    """
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
        phi = reference_trajectory(base, y, [float(h)], tol)[-1]
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
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    n, d = X.shape
    if h == 0:
        raise ValueError("h must be nonzero")
    flow_field = field if h > 0 else negated(field)
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


def textbook_rk_step(tab, field, y, h):
    """One explicit Runge-Kutta step, written stage by stage on arrays.

    Stage ``i`` evaluates ``k_i = field(y_i, h)`` at
    ``y_i = y + sum_{j<i} (h a_ij) k_j``, and the step is
    ``y + sum_i (h b_i) k_i``; both sums run left to right and skip zero
    coefficients.  A non-finite stage raises :class:`StageOverflowError`
    naming it.
    """
    ks = []
    for i in range(tab.stages):
        yi = y
        for j in range(i):
            if tab.a[i, j] != 0.0:
                yi = yi + (h * tab.a[i, j]) * ks[j]
        k = np.asarray(field(yi, h), dtype=float)
        if not np.isfinite(k).all():
            raise StageOverflowError(
                f"non-finite field value in stage {i} of {tab.name}", stage=i)
        ks.append(k)
    out = y
    for bi, k in zip(tab.b, ks):
        if bi != 0.0:
            out = out + (h * bi) * k
    return out
