"""Benchmark dynamical systems, sampling domains and exact reference flows.

States are 1-D float arrays of length ``dim``; every evaluation also accepts
batches shaped ``(n, dim)`` (more generally ``(..., dim)``).  Vector fields
are written component-wise against :mod:`modfield._mathops`, so the same
definition evaluates on floats, arrays and Taylor jets.
"""

from dataclasses import dataclass, field as _dcfield
from functools import cached_property

import numpy as np

from . import _mathops as _m
from . import jets
from ._recorder import compile_program, record
from .errors import IntegrationFailureError


def check_size(n, dim):
    """Refuse a state of ``n`` values where ``dim`` are expected."""
    if n != dim:
        raise ValueError(f"state has last dimension {n}, expected {dim}")


def check_state(y0):
    """``y0`` as one non-empty 1-D float state, or a ``ValueError``."""
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"y0 must be one 1-D state, got shape {y.shape}")
    return y


def check_states(y):
    """``y`` as float states ``(..., d)``, ``d >= 1``, or a ``ValueError``."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[-1] == 0:
        raise ValueError(f"a state needs one or more components, got shape "
                         f"{y.shape}")
    return y


@dataclass(frozen=True, eq=False)
class VectorFieldSpec:
    """An autonomous vector field ``y' = f(y)`` with named invariants.

    Parameters
    ----------
    name : str
        Registry name of the system.
    dim : int
        State dimension.
    component_fn : callable
        Maps a tuple of ``dim`` scalar-like components to a tuple of
        ``dim`` components, using only ``+``, ``-``, ``*`` and the helpers
        in :mod:`modfield._mathops`.  A ``component_fn`` that divides,
        raises to a power, compares or calls ``math`` or numpy on a
        component is refused with a ``ValueError`` when the spec is built.
    invariants : dict
        Maps invariant names to callables on state arrays ``(..., dim)``.

    ``component_fn`` is recorded once, when the spec is built; the record
    becomes :attr:`float_program` on first use.
    """

    name: str
    dim: int
    component_fn: callable
    invariants: dict = _dcfield(default_factory=dict)

    def __post_init__(self):
        # the contract, checked once on values that record what they meet
        try:
            ops, out = record(self.components, self.dim)
        except TypeError as e:
            raise ValueError(
                f"vector field {self.name!r}: component_fn may use only +, "
                f"-, * and modfield._mathops on components ({e})") from None
        if len(out) != self.dim:
            raise ValueError(f"vector field {self.name!r}: component_fn "
                             f"gives {len(out)} components for dim {self.dim}")
        object.__setattr__(self, "_recorded", (ops, out))

    @cached_property
    def float_program(self):
        """``float_program(h, y0, ..., y_{dim-1})``: the field's components
        on one state of Python floats (``h`` unused), compiled from the
        record of ``component_fn``.  It runs each distinct operation of
        ``component_fn`` once, in recorded order, and its ``sin``/``cos``
        return Python floats, so its bits are those of ``component_fn`` on
        floats.  Compiled on first use: a spec that never steps one state
        on floats does not pay for it."""
        ops, out = self._recorded
        return compile_program(ops, out, f"{self.name} float program",
                               floats=True)

    def __getstate__(self):
        # generated code does not pickle; a copy compiles its own
        return {k: v for k, v in vars(self).items() if k != "float_program"}

    def components(self, comps, h=None):
        """Evaluate the field on a tuple of scalar-like components."""
        return tuple(self.component_fn(tuple(comps)))

    def __call__(self, y, h=None):
        """The field at states ``(..., dim)``; one 1-D state is evaluated by
        :attr:`float_program`, as the one-row DOPRI5 loop does, with the
        same bits."""
        y = np.asarray(y, dtype=float)
        check_size(y.shape[-1], self.dim)
        if y.ndim == 1:
            return np.array(self.float_program(h, *y.tolist()), dtype=float)
        out = np.empty(y.shape)
        for i, c in enumerate(self.component_fn(jets.split(y))):
            out[..., i] = c
        return out


def _pendulum_components(c):
    q_dot, q = c[0], c[1]
    return (-_m.sin(q), q_dot)


def _pendulum_energy(y):
    y = np.asarray(y, dtype=float)
    return 0.5 * y[..., 0] ** 2 + (1.0 - np.cos(y[..., 1]))


def pendulum_field():
    """Planar pendulum: ``f(y) = (-sin y2, y1)`` with energy invariant."""
    return VectorFieldSpec(
        name="pendulum",
        dim=2,
        component_fn=_pendulum_components,
        invariants={"energy": _pendulum_energy},
    )


def rigid_body_field(i1=1.0, i2=2.0, i3=3.0):
    """Euler equations of the free rigid body with inertia ``(i1, i2, i3)``.

    Conserves the Casimir ``|y|^2 / 2`` and the kinetic energy
    ``(y1^2/i1 + y2^2/i2 + y3^2/i3) / 2``.
    """
    a1 = 1.0 / i3 - 1.0 / i2
    a2 = 1.0 / i1 - 1.0 / i3
    a3 = 1.0 / i2 - 1.0 / i1

    def components(c):
        y1, y2, y3 = c
        return (a1 * y2 * y3, a2 * y1 * y3, a3 * y1 * y2)

    def casimir(y):
        y = np.asarray(y, dtype=float)
        return 0.5 * np.sum(y * y, axis=-1)

    def energy(y):
        y = np.asarray(y, dtype=float)
        return 0.5 * (
            y[..., 0] ** 2 / i1 + y[..., 1] ** 2 / i2 + y[..., 2] ** 2 / i3
        )

    return VectorFieldSpec(
        name="rigid_body",
        dim=3,
        component_fn=components,
        invariants={"casimir": casimir, "energy": energy},
    )


_REGISTRY = {
    "pendulum": pendulum_field,
    "rigid_body": rigid_body_field,
}


def system_names():
    return sorted(_REGISTRY)


def get_system(name):
    """Look up a benchmark system by registry name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; available: {system_names()}"
        ) from None


@dataclass(frozen=True, eq=False)
class DomainBox:
    """Axis-aligned sampling box, optionally intersected with a norm shell.

    ``shell=(r_min, r_max)`` restricts samples to
    ``r_min <= |y| <= r_max`` (Euclidean norm).
    """

    lower: np.ndarray
    upper: np.ndarray
    shell: tuple = None

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D of equal length")
        if not np.all(lower < upper):
            raise ValueError("box must satisfy lower < upper componentwise")
        if self.shell is not None:
            r_min, r_max = self.shell
            if not (0.0 <= r_min < r_max):
                raise ValueError("shell requires 0 <= r_min < r_max")
            # exact range of |y| over the box: the norm is continuous on a
            # connected set, so it attains every value in [near, far]
            near = np.linalg.norm(np.clip(0.0, lower, upper))
            far = np.linalg.norm(np.maximum(np.abs(lower), np.abs(upper)))
            if r_max < near or r_min > far:
                raise ValueError(
                    f"shell [{r_min}, {r_max}] does not intersect the box "
                    f"(norm range [{near:.6g}, {far:.6g}])"
                )
            object.__setattr__(self, "shell", (float(r_min), float(r_max)))

    @property
    def dim(self):
        return self.lower.size


def reference_trajectory(field, y0, times, tol=1e-12):
    """Exact flow from ``y0`` at the given increasing times (``times[0] >=
    0``): one Dormand-Prince 5(4) call per segment at ``atol = rtol = tol``.

    Raises :class:`IntegrationFailureError` (carrying the last reached
    time) if the step size underflows.
    """
    from .integrators import adaptive_flow_batch

    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"times must be finite, got {bad[0]}")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing and start >= 0")
    y = check_state(y0)
    if isinstance(field, VectorFieldSpec):
        check_size(y.size, field.dim)
    out = np.empty((times.size, y.size))
    t_prev = 0.0
    for i, t in enumerate(times):
        dt = t - t_prev
        if dt > 0:
            res, ok, reached = adaptive_flow_batch(
                field, y[None, :], np.array([dt]), atol=tol, rtol=tol
            )
            if not ok[0]:
                raise IntegrationFailureError(
                    f"step size underflow at t={t_prev + reached[0]:.6g}",
                    t_reached=float(t_prev + reached[0]),
                )
            y = res[0]
        out[i] = y
        t_prev = t
    return out
