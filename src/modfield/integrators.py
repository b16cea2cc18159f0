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
from functools import cache, cached_property
from operator import sub

import numpy as np

from . import jets
from ._recorder import define
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

    The stage loop on arrays (one state: :func:`_stage_source`), for
    batches and training; ``h`` is a scalar or one step per leading row of
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
    non-finite.  One 1-D state with a float ``h`` runs on floats
    (:func:`_stage_source`), anything else :func:`rk_stage_loop`.
    """
    if not tab.is_explicit:
        raise ValueError(f"tableau {tab.name!r} is not explicit")
    y = np.asarray(y, dtype=float)
    if y.ndim == 1 and y.size and isinstance(h, float):
        step, F = _stages(tab, y.size), _float_field(field, y.size)
        return np.array(step(F, h, *y.tolist()))
    return rk_stage_loop(tab, field, y, h, checked=True)


def _float_field(field, d):
    """``field`` as ``F(h, z0, ..., z_{d-1})`` on ``d`` floats: a spec's
    ``float_program`` after its size check, else the field's own call on a
    1-D array with the caller's ``h``, refusing a value of another size."""
    if isinstance(field, VectorFieldSpec):
        check_size(d, field.dim)
        return field.float_program

    def F(h, *z):
        k = np.asarray(field(np.array(z), h), dtype=float)
        if k.shape != (d,):
            raise ValueError(f"field value has shape {k.shape} for a state "
                             f"of shape ({d},)")
        return k.tolist()
    return F


_FP_ITERS, _FP_TOL = 50, 1e-12  # midpoint fixed point: budget, tolerance


def implicit_midpoint_step(field, y, h):
    """One implicit-midpoint step ``y1 = y + h f((y + y1)/2)``.

    The stage equation is solved by fixed-point iteration from ``z = y``.
    Raises :class:`FixedPointError` (carrying the residual) if the change
    between iterates does not fall below ``_FP_TOL`` within ``_FP_ITERS``
    iterations.  One 1-D state with a float ``h`` is solved on floats.
    """
    y = np.asarray(y, dtype=float)
    floats = y.ndim == 1 and y.size > 0 and isinstance(h, float)
    if floats:
        F, y = _float_field(field, y.size), y.tolist()
    z = y
    residual = np.inf
    for it in range(1, _FP_ITERS + 1):
        if floats:
            k = F(h, *[0.5 * (a + b) for a, b in zip(y, z)])
            z_new = [a + h * b for a, b in zip(y, k)]
            finite = all(map(math.isfinite, z_new))
        else:
            z_new = y + h * np.asarray(field(0.5 * (y + z), h), dtype=float)
            finite = np.isfinite(z_new).all()
        if not finite:
            raise FixedPointError(
                f"fixed point diverged after {it} iterations",
                residual=float("inf"),
                iterations=it,
            )
        residual = (max(map(abs, map(sub, z_new, z))) if floats
                    else float(np.abs(z_new - z).max()))
        z = z_new
        if residual <= _FP_TOL:
            return np.array(z) if floats else z
    raise FixedPointError(
        f"fixed point not converged after {_FP_ITERS} iterations "
        f"(residual {residual:.3e} > {_FP_TOL:.3e})",
        residual=residual,
        iterations=_FP_ITERS,
    )


def get_stepper(name):
    """Stepper ``(field, y, h) -> y_next`` by scheme name (with a
    ``tableau`` if explicit)."""
    key = canonical_scheme(name)
    if key == "midpoint":
        return implicit_midpoint_step
    tab = get_tableau(key)

    def stepper(field, y, h):
        return rk_step(tab, field, y, h)

    stepper.__name__ = f"{key}_step"
    stepper.tableau = tab
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
    step index attached.  One 1-D state and a stepper with a ``tableau``
    step in one loop on floats (:func:`_stage_source`); other steppers
    are called once per step.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    y = np.asarray(y0, dtype=float)
    tab = getattr(stepper, "tableau", None)
    floats = tab is not None and y.ndim == 1 and y.size > 0
    if floats:
        step, F = _stages(tab, y.size), _float_field(field, y.size)
        rows = [y.tolist()]
    else:
        states = np.empty((n_steps + 1, y.size))
        states[0] = y
    try:
        for i in range(n_steps):
            if floats:
                rows.append(step(F, h, *rows[-1]))
            else:
                states[i + 1] = y = stepper(field, y, h)
    except StageOverflowError as e:
        raise StageOverflowError(
            f"step {i}: {e}", stage=e.stage, step_index=i) from e
    except FixedPointError as e:
        raise FixedPointError(
            f"step {i}: {e}", residual=e.residual,
            iterations=e.iterations, step_index=i) from e
    return Trajectory(np.arange(n_steps + 1) * float(h),
                      np.array(rows) if floats else states)


# ---------------------------------------------------------------------------
# Adaptive DOPRI5
# ---------------------------------------------------------------------------

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_BETA = 0.04  # PI stabilisation
_EXPO = 0.2 - 0.75 * _BETA
_MAX_STEPS = 200_000  # steps per call before unfinished records fail


def _plan(tab):
    """The tableau's nonzero ``a_ij`` as one list of floats, and for each
    stage ``i`` the ``(k, j)`` pairs that add ``a[k] * h * k_j`` to it."""
    coeffs, rows = [], []
    for i, row in enumerate(tab.a.tolist()):
        rows.append([])
        for j, a in enumerate(row[:i]):
            if a != 0.0:
                rows[i].append((len(coeffs), j))
                coeffs.append(a)
    return coeffs, rows


_DP_A, _DP_ROWS = _plan(_TABLEAUS["dopri5"])


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
    reference-trajectory segment) runs :func:`_flow_one` on Python floats:
    its stages are code generated from the tableau once per state
    dimension, and a :class:`~modfield.systems.VectorFieldSpec` runs as
    its ``float_program``, the straight-line code recorded from its
    ``component_fn``, from the start-step probe on.  A wider call (dataset
    generation, per-term targets) runs :func:`_flow_rows` on arrays held
    component-major: the states are ``d`` contiguous rows of ``n`` records,
    the stage stack is ``(7, d, n)``, and a spec is evaluated through its
    ``components`` on the component rows, its probe being the array call.
    Both loops check a spec's state size as the array call does (also when
    no record steps).  Any other field is called on C-contiguous
    ``(n, d)`` states with one step per row.  Both follow these rules:
    a field program issues its spec's operations in their order, on floats
    as on arrays (its ``sin``/``cos`` are numpy's, returned as floats);
    powers go through ``np.power`` (float ``**`` and ``math.pow`` round
    differently from numpy's array power); stage inputs add ``a_ij h k_j``
    left to right over the nonzero ``a_ij``; stage sums start from ``0.0``
    and add the weighted stages in stage order, zero weights included, as
    ``einsum`` does; norms add the squared components left to right; and
    minima and maxima propagate NaN as ``np.minimum`` and ``np.maximum``
    do.  The one exception: once a
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
    if y0.ndim != 2 or not y0.shape[1]:
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


def _stage_source(tab, d, embedded=False):
    """Source of one step of the explicit tableau ``tab`` from the floats
    ``u0, ..., u_{d-1}``, calling the field as ``F(h, z0, ..., z_{d-1})``.

    Stage inputs are ``u + c0*x0 + ...`` with ``c = a_ij h``, left to right
    over the nonzero ``a_ij`` (:func:`_plan`).  ``step`` is
    :func:`rk_stage_loop` with ``checked``: it raises on a non-finite stage
    and returns ``u + e0*x0 + ...``, ``e = b_i h`` over the nonzero ``b_i``.
    With ``embedded``, ``stages`` is DOPRI5's pair for :func:`_flow_one`:
    new state and error estimate, each ``0.0 + b0*x0 + ... + b6*x6`` with
    the zero weights kept (``0*inf`` stays NaN).
    """
    coeffs, rows = _plan(tab)
    b = tab.b.tolist()
    us = [f"u{i}" for i in range(d)]
    name = "stages" if embedded else "step"
    lines = [f"def {name}(F, h, {', '.join(us)}):"]
    for s, row in enumerate(rows):
        ks = [f"k{s}_{i}" for i in range(d)]
        lines += [f"    c{s}{j} = {coeffs[k]!r} * h" for k, j in row]
        zs = [u + "".join(f" + c{s}{j} * k{j}_{i}" for _, j in row)
              for i, u in enumerate(us)]
        lines.append(f"    {''.join(k + ', ' for k in ks)}"
                     f"= F(h, {', '.join(zs)})")
        if not embedded:
            finite = " and ".join(f"isfinite({k})" for k in ks)
            msg = f"non-finite field value in stage {s} of {tab.name}"
            lines += [f"    if not ({finite}):",
                      f"        raise StageOverflowError({msg!r}, stage={s})"]
    if not embedded:
        nonzero = [s for s, w in enumerate(b) if w != 0.0]
        lines += [f"    e{s} = {b[s]!r} * h" for s in nonzero]
        lines.append("    return (" + "".join(
            u + "".join(f" + e{s} * k{s}_{i}" for s in nonzero) + ", "
            for i, u in enumerate(us)) + ")")
    else:
        def weighted(ws, i):
            return "0.0" + "".join(f" + {w!r} * k{s}_{i}"
                                   for s, w in enumerate(ws))
        e = (tab.b - tab.b_emb).tolist()
        lines.append(f"    return ("
                     + "".join(f"{u} + h * ({weighted(b, i)}), "
                               for i, u in enumerate(us))
                     + "), ("
                     + "".join(f"h * ({weighted(e, i)}), " for i in range(d))
                     + ")")
    return "\n".join(lines) + "\n"


@cache
def _stages(tab, d, embedded=False):
    """The compiled :func:`_stage_source`, once per tableau and ``d``."""
    name = "stages" if embedded else "step"
    namespace = {"isfinite": math.isfinite,
                 "StageOverflowError": StageOverflowError}
    return define(_stage_source(tab, d, embedded),
                  f"{tab.name} {name} d={d}", namespace, name)


def _flow_one(field, y0, t_end, atol, rtol, collect):
    """The float loop of :func:`adaptive_flow_batch`: one row, the same
    arithmetic on Python floats.

    Each step runs the stage code generated for the state's dimension
    (:func:`_stage_source`), which calls the field as ``F(h, z0, ...)``
    on floats.  A :class:`~modfield.systems.VectorFieldSpec` runs as its
    ``float_program`` (:func:`_float_field`), the start-step probe
    included.  Any other field goes through its array call on a one-row
    array, since learned and truncated fields round their component form
    differently (their step powers are float ``**``).  The controller
    issues the operations :func:`_flow_rows` does, on floats.
    """
    tend = float(t_end[0])
    y = y0[0].tolist()
    if isinstance(field, VectorFieldSpec):
        F = _float_field(field, len(y))
    else:
        def F(h, *z):
            out = field(np.array([z]), np.array([h]))
            return np.asarray(out, dtype=float)[0].tolist()
    hist_t, hist_y = [0.0], [y]

    def result(y, ok, t):
        out = np.array([y]), np.array([ok]), np.array([t])
        if collect:
            return out + ((np.array(hist_t), np.array(hist_y)),)
        return out

    if not tend > 0:
        return result(y, True, tend)
    stages = _stages(_TABLEAUS["dopri5"], len(y), True)
    t = 0.0
    h_floor = 1e-13 * max(1.0, tend)

    # starting step heuristic (one Euler probe)
    sc = [atol + rtol * abs(u) for u in y]
    f0 = F(0.0, *y)
    d0 = math.sqrt(_mean_sq(y, sc))
    d1 = math.sqrt(_mean_sq(f0, sc))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / _fmax(d1, 1e-300)
    h0 = _fmin(h0, tend)
    f1 = F(h0, *[u + h0 * v for u, v in zip(y, f0)])
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
        y_new, err_vec = stages(F, h_try, *y)

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
