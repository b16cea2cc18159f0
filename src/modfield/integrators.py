"""One-step integrators: explicit Runge-Kutta, implicit midpoint, DOPRI5.

Steppers call the field as ``field(y, h)``; plain vector fields ignore the
second argument, step-dependent fields (truncated or learned modified
fields) are evaluated at the step size actually taken.

Also provides order measurement from error sequences, the paper's global
error bound for learned fields (an estimate when fed grid estimates of its
inputs) and a grid-based Lipschitz estimator.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .errors import FixedPointError, IntegrationFailureError, StageOverflowError
from .systems import VectorFieldSpec, check_size


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Runge-Kutta coefficients ``(a, b, c)`` with declared order.

    ``b_emb``, when present, is the embedded lower-order weight vector used
    for error estimation (DOPRI5).
    """

    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int
    b_emb: np.ndarray = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        s = b.size
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("inconsistent tableau shapes")
        if abs(b.sum() - 1.0) > 1e-13:
            raise ValueError("weights b must sum to 1")
        if np.max(np.abs(a.sum(axis=1) - c)) > 1e-13:
            raise ValueError("row sums of a must equal c")
        if self.b_emb is not None:
            be = np.asarray(self.b_emb, dtype=float)
            object.__setattr__(self, "b_emb", be)
            if be.shape != (s,) or abs(be.sum() - 1.0) > 1e-13:
                raise ValueError("invalid embedded weights")

    @property
    def stages(self):
        return self.b.size

    @cached_property
    def is_explicit(self):
        return bool(np.all(np.triu(self.a) == 0.0))


def _dopri5_tableau():
    a = np.zeros((7, 7))
    a[1, 0] = 1 / 5
    a[2, :2] = [3 / 40, 9 / 40]
    a[3, :3] = [44 / 45, -56 / 15, 32 / 9]
    a[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
    a[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
    a[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
    b = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
    b_emb = np.array(
        [
            5179 / 57600,
            0.0,
            7571 / 16695,
            393 / 640,
            -92097 / 339200,
            187 / 2100,
            1 / 40,
        ]
    )
    c = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
    return ButcherTableau("dopri5", a, b, c, order=5, b_emb=b_emb)


_TABLEAUS = {
    "euler": ButcherTableau(
        "euler", np.zeros((1, 1)), np.array([1.0]), np.array([0.0]), order=1
    ),
    "rk2_midpoint": ButcherTableau(
        "rk2_midpoint",
        np.array([[0.0, 0.0], [0.5, 0.0]]),
        np.array([0.0, 1.0]),
        np.array([0.0, 0.5]),
        order=2,
    ),
    "rk2_heun": ButcherTableau(
        "rk2_heun",
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([0.5, 0.5]),
        np.array([0.0, 1.0]),
        order=2,
    ),
    "midpoint": ButcherTableau(
        "midpoint", np.array([[0.5]]), np.array([1.0]), np.array([0.5]), order=2
    ),
    "dopri5": _dopri5_tableau(),
}

# "rk2" resolves to the variant matching the modified-field expansion; see
# the extraction cross-check in the modified-field tests.
_ALIASES = {"rk2": "rk2_midpoint"}


def scheme_names():
    return sorted(_TABLEAUS) + sorted(_ALIASES)


def canonical_scheme(name):
    return _ALIASES.get(name, name)


def get_tableau(name):
    """Tableau by name; implicit midpoint is included for its coefficients."""
    key = canonical_scheme(name)
    try:
        return _TABLEAUS[key]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; available: {scheme_names()}"
        ) from None


def rk_stage_loop(tab, field, y, h, checked=False):
    """The explicit Runge-Kutta step ``y + sum_i (h b_i) k_i`` with stages
    ``k_i = field(y + sum_{j<i} (h a_ij) k_j, h)``.

    The one stage loop behind :func:`rk_step`, learned-field stepping and
    training, on arrays; ``h`` is a scalar or one step per leading row of
    ``y``.  Zero coefficients are skipped; training's reverse sweep
    (``_tape.backward``) skips the same ones.  With ``checked`` a
    non-finite stage raises :class:`StageOverflowError` naming the stage.
    """
    hc = h  # a float keeps the products h*a_ij and h*b_i floats
    if not isinstance(h, float):
        hc = np.asarray(h, dtype=float)
        if hc.ndim:
            hc = hc[..., None]
    a, b = tab.a.tolist(), tab.b.tolist()
    ks = []
    for i, row in enumerate(a):
        yi = y
        for aij, kj in zip(row, ks):
            if aij != 0.0:
                yi = yi + (hc * aij) * kj
        ki = field(yi, h)
        if checked:
            ki = np.asarray(ki, dtype=float)
            if not np.isfinite(ki).all():
                raise StageOverflowError(
                    f"non-finite field value in stage {i} of {tab.name}",
                    stage=i)
        ks.append(ki)
    out = y
    for bi, ki in zip(b, ks):
        if bi != 0.0:
            out = out + (hc * bi) * ki
    return out


def rk_step(tab, field, y, h):
    """One explicit Runge-Kutta step of size ``h`` from ``y``.

    Evaluates the field exactly ``tab.stages`` times.  Raises
    :class:`StageOverflowError` naming the stage if an evaluation goes
    non-finite.
    """
    if not tab.is_explicit:
        raise ValueError(f"tableau {tab.name!r} is not explicit")
    return rk_stage_loop(tab, field, np.asarray(y, dtype=float), h,
                         checked=True)


_FP_ITERS, _FP_TOL = 50, 1e-12  # midpoint fixed point: budget, tolerance


def implicit_midpoint_step(field, y, h):
    """One implicit-midpoint step ``y1 = y + h f((y + y1)/2)``.

    The stage equation is solved by fixed-point iteration from ``z = y``.
    Raises :class:`FixedPointError` (carrying the residual) if the change
    between iterates does not fall below ``_FP_TOL`` within ``_FP_ITERS``
    iterations.
    """
    y = np.asarray(y, dtype=float)
    z = y
    residual = np.inf
    for it in range(1, _FP_ITERS + 1):
        z_new = y + h * np.asarray(field(0.5 * (y + z), h), dtype=float)
        if not np.isfinite(z_new).all():
            raise FixedPointError(
                f"fixed point diverged after {it} iterations",
                residual=float("inf"),
                iterations=it,
            )
        residual = float(np.abs(z_new - z).max())
        z = z_new
        if residual <= _FP_TOL:
            return z
    raise FixedPointError(
        f"fixed point not converged after {_FP_ITERS} iterations "
        f"(residual {residual:.3e} > {_FP_TOL:.3e})",
        residual=residual,
        iterations=_FP_ITERS,
    )


def get_stepper(name):
    """Stepper ``(field, y, h) -> y_next`` by scheme name."""
    key = canonical_scheme(name)
    if key == "midpoint":
        return implicit_midpoint_step
    tab = get_tableau(key)

    def stepper(field, y, h):
        return rk_step(tab, field, y, h)

    stepper.__name__ = f"{key}_step"
    return stepper


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Discrete trajectory: ``states[n]`` is the state at ``times[n]``."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.size:
            raise ValueError("need times (n,) and states (n, d)")

    def __len__(self):
        return self.times.size


def integrate(stepper, field, y0, h, n_steps):
    """Fixed-step integration: ``n_steps`` steps of size ``h``.

    ``times[n] = n*h``.  Stepper errors are re-raised with the failing
    step index attached.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    y = np.asarray(y0, dtype=float)
    states = np.empty((n_steps + 1, y.size))
    states[0] = y
    for i in range(n_steps):
        try:
            y = stepper(field, y, h)
        except StageOverflowError as e:
            raise StageOverflowError(
                f"step {i}: {e}", stage=e.stage, step_index=i) from e
        except FixedPointError as e:
            raise FixedPointError(
                f"step {i}: {e}", residual=e.residual,
                iterations=e.iterations, step_index=i) from e
        states[i + 1] = y
    return Trajectory(np.arange(n_steps + 1) * float(h), states)


# ---------------------------------------------------------------------------
# Adaptive DOPRI5
# ---------------------------------------------------------------------------

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_BETA = 0.04  # PI stabilisation
_EXPO = 0.2 - 0.75 * _BETA
_MAX_STEPS = 200_000  # steps per call before unfinished records fail


def _dopri5_plan():
    """DOPRI5's nonzero ``a_ij`` as one list of floats, and for each stage
    ``i`` the ``(k, j)`` pairs that add ``a[k] * h * k_j`` to its input."""
    a = _TABLEAUS["dopri5"].a
    coeffs, rows = [], []
    for i in range(a.shape[0]):
        rows.append([])
        for j in range(i):
            if a[i, j] != 0.0:
                rows[i].append((len(coeffs), j))
                coeffs.append(float(a[i, j]))
    return coeffs, rows


_DP_A, _DP_ROWS = _dopri5_plan()
_DP_B = _TABLEAUS["dopri5"].b.tolist()
_DP_E = (_TABLEAUS["dopri5"].b - _TABLEAUS["dopri5"].b_emb).tolist()


def _mean_sq(x, sc):
    """Mean of ``(x / sc)**2`` over the components, the squares added left
    to right: floats for one row, or ``(n,)`` component rows for many."""
    s = 0.0
    for u, w in zip(x, sc):
        q = u / w
        s = s + q * q
    return s / len(x)


def adaptive_flow_batch(field, y0, t_end, atol, rtol, collect=False):
    """Integrate each row of ``y0`` to its own end time adaptively.

    Embedded Dormand-Prince 5(4) pair with a PI step-size controller
    (safety 0.9, step-ratio clamp [0.2, 5]).  Every record carries its own
    controller state, so results are bitwise identical to running records
    one at a time (one exception is named below).

    Returns ``(y, ok, t_reached)``.  Records whose step size underflows
    (or is not a number), or that are unfinished after ``_MAX_STEPS``
    steps, are flagged ``ok=False`` with the last reached time; no
    exception is raised here so that callers may resample.
    ``y0`` is one state or ``(n, d)`` states, tolerances must be finite
    with ``atol > 0`` and ``rtol >= 0``, and every end time finite
    (``ValueError`` otherwise).

    With ``collect=True`` (single record only) additionally returns the
    accepted ``(times, states)`` history.

    The contract is that each record's arithmetic is fixed: every output
    bit is pinned by the tests, so a rewrite may change how the operations
    are issued but not which floating-point operations a record sees.
    Two loops keep it, selected by row count.  A one-row call (every
    reference-trajectory segment) runs :func:`_flow_one` on Python floats,
    its seven stages written out for the fixed tableau; a wider call
    (dataset generation, per-term targets) runs :func:`_flow_rows` on
    arrays held component-major: the states are ``d`` contiguous rows of
    ``n`` records and the stage stack is ``(7, d, n)``.  Both loops
    evaluate a :class:`~modfield.systems.VectorFieldSpec` through its
    ``components``, on floats or on the component rows, after checking the
    state's size as the array call does (also when no record steps); the
    one-row loop does so from its start-step probe on, and the wide loop's
    probe is the array call.
    Any other field is called on C-contiguous ``(n, d)`` states with one
    step per row.  Both follow these rules: powers go through ``np.power``
    (float ``**`` and ``math.pow`` round differently from numpy's array
    power); stage sums start from ``0.0`` and add the weighted stages in
    stage order, zero weights included, as ``einsum`` does; norms add the
    squared components left to right; and minima and maxima propagate NaN
    as ``np.minimum`` and ``np.maximum`` do.  The one exception: once a
    wide call of a one-component system narrows to one row, its
    ``(7, 1, 1)`` stage stack sends ``einsum`` down its dot-product path,
    which adds the stages in SIMD lanes, so that row's last bits differ
    from its one-row run.

    The field is called on arrays it must not modify.  Two known speed-ups
    are left out on purpose: reusing the last stage as the next step's
    first (FSAL) rounds differently from ``y_new``, so it would move every
    output bit; and a controller that lands on each output time instead of
    restarting costs accuracy (``|ref(1e-12) - ref(1e-13)|`` grew from
    8.8e-14 to about 2.5e-13 when tried).
    """
    if not (math.isfinite(atol) and math.isfinite(rtol)
            and atol > 0 and rtol >= 0):
        raise ValueError(f"need finite atol > 0 and rtol >= 0, got "
                         f"atol={atol!r}, rtol={rtol!r}")
    y0 = np.atleast_2d(np.asarray(y0, dtype=float))
    if y0.ndim != 2:
        raise ValueError(
            f"y0 must be one state or (n, d) states, got shape {y0.shape}")
    t_end = np.asarray(t_end, dtype=float)
    n = y0.shape[0]
    if t_end.shape != (n,):
        raise ValueError("t_end must have one entry per record")
    bad = t_end[~np.isfinite(t_end)]
    if bad.size:
        raise ValueError(f"t_end must be finite, got {bad[0]}")
    if collect and n != 1:
        raise ValueError("collect requires a single record")
    if n == 1:
        return _flow_one(field, y0, t_end, atol, rtol, collect)
    return _flow_rows(field, y0, t_end, atol, rtol)


def _flow_rows(field, y0, t_end, atol, rtol):
    """The array loop of :func:`adaptive_flow_batch`: all rows at once,
    held component-major as ``(d, n)`` contiguous rows."""
    tab = _TABLEAUS["dopri5"]
    B, E = tab.b, tab.b - tab.b_emb
    n, d = y0.shape

    out_y = y0.copy()
    out_ok = np.ones(n, dtype=bool)
    out_reached = np.where(t_end > 0, 0.0, t_end)

    if isinstance(field, VectorFieldSpec):
        check_size(d, field.dim)
    idx = np.flatnonzero(t_end > 0)
    if idx.size == 0:
        return out_y, out_ok, out_reached

    # f(y, h, out) writes the field at the component rows y into out
    if isinstance(field, VectorFieldSpec):
        comps = field.components

        def f(y, h, out):
            for row, c in zip(out, comps(y)):
                row[...] = c
    else:
        def f(y, h, out):
            out[...] = np.asarray(field(np.ascontiguousarray(y.T), h)).T

    y_start = y0[idx]
    y = np.ascontiguousarray(y_start.T)
    tend = t_end[idx]
    t = np.zeros(idx.size)
    h_floor = 1e-13 * np.maximum(1.0, tend)

    # starting step heuristic (one Euler probe); the first evaluation is the
    # array call, so a state of the wrong size raises with its message
    sc = atol + rtol * np.abs(y)
    f0 = np.asarray(field(y_start, np.zeros(idx.size)), dtype=float).T
    d0 = np.sqrt(_mean_sq(y, sc))
    d1 = np.sqrt(_mean_sq(f0, sc))
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6,
                  0.01 * d0 / np.maximum(d1, 1e-300))
    h0 = np.minimum(h0, tend)
    f1 = np.empty_like(y)
    f(y + h0 * f0, h0, f1)
    d2 = np.sqrt(_mean_sq(f1 - f0, sc)) / h0
    dmax = np.maximum(d1, d2)
    h1 = np.where(dmax <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / dmax) ** 0.2)
    h = np.minimum(np.minimum(100.0 * h0, h1), tend)

    facold = np.full(idx.size, 1e-4)

    step = 0
    while True:
        step += 1
        rem = tend - t
        final = h >= rem
        h_try = np.where(final, rem, h)

        # a_ij h is formed at each use: a (20, n) table of them costs more
        ks = np.empty((tab.stages, d, idx.size))
        f(y, h_try, ks[0])
        for i in range(1, tab.stages):
            (k, j), *rest = _DP_ROWS[i]
            yi = y + (_DP_A[k] * h_try) * ks[j]
            for k, j in rest:
                yi += (_DP_A[k] * h_try) * ks[j]
            f(yi, h_try, ks[i])
        y_new = y + h_try * np.einsum("s,sdn->dn", B, ks)
        err_vec = h_try * np.einsum("s,sdn->dn", E, ks)

        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            err = np.sqrt(_mean_sq(err_vec, sc))
            good = np.isfinite(err) & np.isfinite(y_new).all(axis=0)
            err = np.where(good, np.maximum(err, 1e-300), np.inf)
            accept = err <= 1.0
            fac = _SAFETY * err ** (-_EXPO)
            grow = np.minimum(np.maximum(fac * facold**_BETA, _FAC_MIN),
                              _FAC_MAX)
            shrink = np.minimum(np.maximum(fac, _FAC_MIN), 1.0)

        t = np.where(accept, t + h_try, t)
        y = np.where(accept, y_new, y)
        facold = np.where(accept, np.maximum(err, 1e-4), facold)
        h = h_try * np.where(accept, grow, shrink)

        done = accept & final
        t = np.where(done, tend, t)
        # a NaN step fails too
        failed = ~(done | (h >= h_floor))
        if step >= _MAX_STEPS:
            failed = ~done
        out = done | failed
        if out.any():
            out_y[idx] = y.T
            out_reached[idx] = t
            out_ok[idx[failed]] = False
            keep = ~out
            if not keep.any():
                return out_y, out_ok, out_reached
            y = y[:, keep]
            idx, t, tend, h, facold, h_floor = (
                idx[keep], t[keep], tend[keep], h[keep], facold[keep],
                h_floor[keep],
            )


def _fmax(a, b):
    """``np.maximum`` on two floats: NaN if either is NaN."""
    return a if a >= b or a != a else b


def _fmin(a, b):
    """``np.minimum`` on two floats: NaN if either is NaN."""
    return a if a <= b or a != a else b


def _flow_one(field, y0, t_end, atol, rtol, collect):
    """The float loop of :func:`adaptive_flow_batch`: one row, the same
    arithmetic on Python floats.

    The seven stages are written out for the fixed tableau, as in Hairer's
    ``dopri5.f``: each stage input is ``u + c0*x0 + c1*x1 + ...`` with
    ``c = a_ij h``, added left to right in stage order and skipping the
    zero ``a_61`` as :data:`_DP_ROWS` does; the solution and error sums are
    ``0.0 + b0*x0 + ... + b6*x6`` with the zero weights kept, so ``0*inf``
    stays NaN.  A :class:`~modfield.systems.VectorFieldSpec` is evaluated
    through its ``components`` on floats, the start-step probe included,
    after the dimension check its array call makes; its array call runs the
    same component code.  Any other field goes through its array call on a
    one-row array, since learned and truncated fields round their
    component form differently (their step powers are float ``**``).
    """
    if isinstance(field, VectorFieldSpec):
        comps = field.components

        def f(y, h):
            return [float(c) for c in comps(y)]
    else:
        def f(y, h):
            out = field(np.array([y]), np.array([h]))
            return np.asarray(out, dtype=float)[0].tolist()

    b0, b1, b2, b3, b4, b5, b6 = _DP_B
    e0, e1, e2, e3, e4, e5, e6 = _DP_E
    tend = float(t_end[0])
    y = y0[0].tolist()
    hist_t, hist_y = [0.0], [y]

    def result(y, ok, t):
        out = np.array([y]), np.array([ok]), np.array([t])
        if collect:
            return out + ((np.array(hist_t), np.array(hist_y)),)
        return out

    if isinstance(field, VectorFieldSpec):
        check_size(len(y), field.dim)
    if not tend > 0:
        return result(y, True, tend)
    t = 0.0
    h_floor = 1e-13 * max(1.0, tend)

    # starting step heuristic (one Euler probe)
    sc = [atol + rtol * abs(u) for u in y]
    f0 = f(y, 0.0)
    d0 = math.sqrt(_mean_sq(y, sc))
    d1 = math.sqrt(_mean_sq(f0, sc))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / _fmax(d1, 1e-300)
    h0 = _fmin(h0, tend)
    f1 = f([u + h0 * v for u, v in zip(y, f0)], h0)
    # an overflowing f0 makes h0 zero: divide as numpy does, not raise
    d2 = math.sqrt(_mean_sq([a - b for a, b in zip(f1, f0)], sc))
    d2 = float(np.float64(d2) / h0)
    dmax = _fmax(d1, d2)
    if dmax <= 1e-15:
        h1 = _fmax(1e-6, h0 * 1e-3)
    else:
        h1 = float(np.power(0.01 / dmax, 0.2))
    h = _fmin(_fmin(100.0 * h0, h1), tend)

    facold = 1e-4
    step = 0
    while True:
        step += 1
        rem = tend - t
        final = h >= rem
        h_try = rem if final else h
        (c10, c20, c21, c30, c31, c32, c40, c41, c42, c43, c50, c51, c52,
         c53, c54, c60, c62, c63, c64, c65) = [a * h_try for a in _DP_A]

        k0 = f(y, h_try)
        k1 = f([u + c10 * x0 for u, x0 in zip(y, k0)], h_try)
        k2 = f([u + c20 * x0 + c21 * x1
                for u, x0, x1 in zip(y, k0, k1)], h_try)
        k3 = f([u + c30 * x0 + c31 * x1 + c32 * x2
                for u, x0, x1, x2 in zip(y, k0, k1, k2)], h_try)
        k4 = f([u + c40 * x0 + c41 * x1 + c42 * x2 + c43 * x3
                for u, x0, x1, x2, x3 in zip(y, k0, k1, k2, k3)], h_try)
        k5 = f([u + c50 * x0 + c51 * x1 + c52 * x2 + c53 * x3 + c54 * x4
                for u, x0, x1, x2, x3, x4 in zip(y, k0, k1, k2, k3, k4)],
               h_try)
        k6 = f([u + c60 * x0 + c62 * x2 + c63 * x3 + c64 * x4 + c65 * x5
                for u, x0, x2, x3, x4, x5 in zip(y, k0, k2, k3, k4, k5)],
               h_try)
        y_new, err_vec = [], []
        for u, x0, x1, x2, x3, x4, x5, x6 in zip(y, k0, k1, k2, k3, k4, k5,
                                                 k6):
            y_new.append(u + h_try * (0.0 + b0 * x0 + b1 * x1 + b2 * x2
                                      + b3 * x3 + b4 * x4 + b5 * x5
                                      + b6 * x6))
            err_vec.append(h_try * (0.0 + e0 * x0 + e1 * x1 + e2 * x2
                                    + e3 * x3 + e4 * x4 + e5 * x5
                                    + e6 * x6))

        sc = [atol + rtol * _fmax(abs(u), abs(v)) for u, v in zip(y, y_new)]
        err = math.sqrt(_mean_sq(err_vec, sc))
        if math.isfinite(err) and all(map(math.isfinite, y_new)):
            err = _fmax(err, 1e-300)
        else:
            err = math.inf
        fac = _SAFETY * float(np.power(err, -_EXPO))
        if err <= 1.0:
            t = t + h_try
            y = y_new
            grow = fac * float(np.power(facold, _BETA))
            h = h_try * _fmin(_fmax(grow, _FAC_MIN), _FAC_MAX)
            facold = _fmax(err, 1e-4)
            if collect:
                hist_t.append(t)
                hist_y.append(y)
            if final:
                return result(y, True, tend)
        else:
            h = h_try * _fmin(_fmax(fac, _FAC_MIN), 1.0)
        # a NaN step fails too
        if not h >= h_floor or step >= _MAX_STEPS:
            return result(y, False, t)


def dopri5_integrate(field, y0, t_end, atol, rtol):
    """Adaptive DOPRI5 trajectory from 0 to ``t_end`` (accepted steps).

    Raises :class:`IntegrationFailureError` carrying the last reached time
    on step-size underflow.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError(
            f"y0 must be a 1-D state vector, got shape {y0.shape}")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    _, ok, reached, (ts, ys) = adaptive_flow_batch(
        field, y0[None, :], np.array([float(t_end)]), atol, rtol, collect=True
    )
    if not ok[0]:
        raise IntegrationFailureError(
            f"step size underflow at t={reached[0]:.6g} (target {t_end:.6g})",
            t_reached=float(reached[0]),
        )
    return Trajectory(ts, ys)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def order_estimate(errors, hs):
    """Least-squares slope of log error against log step size."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.ndim != 1 or errors.size < 2:
        raise ValueError("need matching 1-D arrays with at least 2 entries")
    if np.any(hs <= 0) or np.any(np.diff(hs) >= 0):
        raise ValueError("hs must be positive and strictly decreasing")
    if np.any(errors <= 0) or not np.all(np.isfinite(errors)):
        raise ValueError("errors must be positive and finite")
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)


@dataclass(frozen=True)
class ErrorBoundInputs:
    """Inputs of the theorem's global error bound for a learned field.

    ``delta`` is the learning error (sup of |f_tilde - f_app|/h^p), ``lam``
    the Lipschitz constant of the learned field on the domain, ``h_plus``
    the top of the training step range, ``T`` the integration horizon and
    ``tableau`` the scheme the bound is evaluated for.  The package
    measures ``delta`` and ``lam`` on grids, which gives lower estimates.
    """

    delta: float
    lam: float
    h_plus: float
    T: float
    tableau: ButcherTableau

    def __post_init__(self):
        if self.delta < 0 or self.lam < 0 or self.h_plus <= 0 or self.T <= 0:
            raise ValueError("need delta, lam >= 0 and h_plus, T > 0")


def _expm1_over(x):
    """(e^x - 1)/x, continuous at 0."""
    if x == 0.0:
        return 1.0
    return math.expm1(x) / x


def theorem_bound(inputs, h):
    """The theorem's bound on ``max_n |e_n|`` at step size ``h``.

    It holds for the true suprema ``delta`` and ``lam``; at grid lower
    estimates of them it is an estimate, not a guarantee.  General form
    ``(C delta h^p / L)(e^{LT} - 1)`` with ``C = alpha``,
    ``L = alpha * lam`` and
    ``alpha = |b|_1 (1 + lam h_+ |A|_inf e^{lam h_+ |A|_inf})``, which is
    1 for Euler.  The explicit RK2 tableaus use their sharper constant; the
    ``lam -> 0`` limit is taken continuously.
    """
    if not (0 < h <= inputs.h_plus):
        raise ValueError("need 0 < h <= h_plus")
    tab = inputs.tableau
    delta, lam, T = inputs.delta, inputs.lam, inputs.T
    p = tab.order
    if tab.name in ("rk2_midpoint", "rk2_heun"):
        # (delta h^2 / lam)(e^{lam(1 + lam h_+/2)T} - 1), written through
        # expm1(x)/x so the lam -> 0 limit is delta h^2 T
        stretch = 1.0 + lam * inputs.h_plus / 2.0
        return delta * h**2 * T * stretch * _expm1_over(lam * stretch * T)
    b_norm = float(np.sum(np.abs(tab.b)))
    a_norm = float(np.max(np.sum(np.abs(tab.a), axis=1)))
    z = lam * inputs.h_plus * a_norm
    alpha = b_norm * (1.0 + z * math.exp(z))
    return alpha * delta * h**p * T * _expm1_over(alpha * lam * T)


def box_grid(box, grid_n):
    """Uniform grid over a box, endpoints included: ``(grid_n^d, d)``."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    axes = [np.linspace(lo, up, grid_n) for lo, up in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def estimate_lipschitz(g, box, grid_n, h=None):
    """Grid estimate of ``max_y ||dg(y)||_inf`` over the box.

    Jacobians come from ``g.jacobian(y, h)`` where ``g`` has one (learned
    models, in closed form), else from jet directional derivatives along
    the coordinate directions; the operator infinity norm is the maximum
    absolute row sum.  A lower estimate of the Lipschitz constant, not an
    enclosure.
    """
    pts = box_grid(box, grid_n)
    jac = (g.jacobian(pts, h) if hasattr(g, "jacobian")
           else jets.jacobian(g, pts, h))
    return float(np.max(np.sum(np.abs(jac), axis=-1)))
