"""DOPRI5's output bits, pinned.

Every reference trajectory, generated dataset and checksummed CSV rests on
``adaptive_flow_batch``.  A change to how its step loop issues the
arithmetic must not change one bit of what it returns, so these tests
compare SHA-256 digests of its outputs on fixed inputs with values
recorded before the loop was last rewritten.  The inputs are exact
rationals (no random draws, no libm).  The rigid body's field is pure
``+``/``*`` arithmetic; the pendulum's goes through ``np.sin``, whose
last bit may differ between numpy builds and CPU dispatch targets, so its
cases first check that ``np.sin`` rounds as it did when they were recorded.
"""

import hashlib

import numpy as np
import pytest

from modfield.integrators import adaptive_flow_batch, dopri5_integrate
from modfield.modified_field import truncated_field
from modfield.systems import VectorFieldSpec, get_system


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sin_probe():
    x = np.arange(-400, 401) / 64.0
    return _digest(np.sin(x), np.cos(x))


_SIN_DIGEST = (
    "21881498554806f68b07c7891bc5a859164fe058ba53dfad18e9044c72353c7d")

needs_recorded_sin = pytest.mark.skipif(
    _sin_probe() != _SIN_DIGEST,
    reason="np.sin rounds differently from the build the digests come from")


def _states(system, n):
    """``n`` exact-rational initial states of the system's desk domain."""
    k = np.arange(n)
    if system == "pendulum":
        cols = [-2.0 + 4.0 * ((17 * k + 3) % 101) / 100.0,
                -2.0 + 4.0 * ((29 * k + 11) % 97) / 96.0]
    else:
        cols = [-1.0 + 2.0 * ((13 * k + 5) % 89) / 88.0,
                -1.0 + 2.0 * ((31 * k + 7) % 83) / 82.0,
                0.25 + 0.75 * ((7 * k + 1) % 79) / 78.0]
    return np.column_stack(cols)


def _end_times(n):
    k = np.arange(n)
    return 0.01 + 2.99 * ((7 * k) % 500) / 499.0


_BATCH = {
    ("pendulum", 1, 1e-10):
        "67ef86f39462b27b0bdfe4a239beb34570abbbadedf11254bdf0a61a7eb87407",
    ("pendulum", 1, 1e-12):
        "d28ab6b958e479789de97d83046e003320757dbc9e313dbaba9260143cfd2d8b",
    ("pendulum", 500, 1e-10):
        "c18de551b8dcf12eec92062e428d5c8ca554a165902b534c57da4ee2812c101e",
    ("pendulum", 500, 1e-12):
        "991d82aeb59e9cca5ef1428f59e5a0800b85f0222532ea5e7ae69407a275763d",
    ("rigid_body", 1, 1e-10):
        "9b45b9d8d30508339a34645f4a865dcc11b35a5160884fab6b4cccd49b3c0f1e",
    ("rigid_body", 1, 1e-12):
        "751e25e1e1358a1064cb2e1b616147aa9738264258e071b459ab27ef3711d0d4",
    ("rigid_body", 500, 1e-10):
        "90b95a3b06b8370446aba51088947b7134a1a2436047aed4aa9b3792fa20b8b9",
    ("rigid_body", 500, 1e-12):
        "3f77c9b187440e1e8efa68989a99f0948b285e30e90cc189c659a0365fed2d2e",
}


@pytest.mark.parametrize(
    "system, n, tol",
    [pytest.param(*key, marks=[needs_recorded_sin] if key[0] == "pendulum"
                  else []) for key in _BATCH])
def test_adaptive_flow_batch_bits_are_pinned(system, n, tol):
    y0 = _states(system, n)
    t_end = np.full(1, 1.5) if n == 1 else _end_times(n)
    y, ok, reached = adaptive_flow_batch(get_system(system), y0, t_end,
                                         tol, tol)
    assert ok.all()
    assert _digest(y, ok, reached) == _BATCH[(system, n, tol)]


def test_adaptive_flow_batch_failure_bits_are_pinned():
    # y' = y^2 blows up at t = 1/y0: the first record fails by step-size
    # underflow, the others finish at different steps (one at t = 0)
    blowup = VectorFieldSpec(name="blowup", dim=1,
                             component_fn=lambda c: (c[0] * c[0],))
    y0 = np.array([[2.0], [0.1], [0.5], [-1.0], [0.75]])
    t_end = np.array([1.0, 0.3, 1.0, 2.0, 0.0])
    y, ok, reached = adaptive_flow_batch(blowup, y0, t_end, 1e-10, 1e-10)
    assert ok.tolist() == [False, True, True, True, True]
    assert 0.49 < reached[0] < 0.5
    assert reached[1:].tolist() == [0.3, 1.0, 2.0, 0.0]
    assert _digest(y, ok, reached) == (
        "3f24cac21ae4c9a7de982ac3ea5073c0589532c20b9e194601988d8f7b0c54a6")
    # each row alone runs the one-row float loop and must give the same bits
    # as the wide call, except the failing row's tail: once the other rows
    # are out it runs alone on a (7, 1, 1) stage stack, for which numpy's
    # einsum takes its dot-product path and adds the weighted stages in
    # SIMD lanes instead of in stage order, so its last bits are the wide
    # call's own
    for i in range(5):
        y1, ok1, reached1 = adaptive_flow_batch(
            blowup, y0[i:i + 1], t_end[i:i + 1], 1e-10, 1e-10)
        assert ok1[0] == ok[i]
        if i == 0:
            assert abs(reached1[0] - reached[0]) < 1e-14
            assert abs(y1[0, 0] / y[0, 0] - 1.0) < 1e-8  # near the pole
        else:
            assert y1.tobytes() == y[i:i + 1].tobytes()
            assert reached1.tobytes() == reached[i:i + 1].tobytes()


_HISTORY = {
    "pendulum":
        "07b2bb8584894be9d5a3cdc63235cf582bf3f551f1520192d3a9506c08f6ff50",
    "rigid_body":
        "76dad39f1e07e4280124dfd1ae2dd313157f07a0a3be447fb745196c8382b05d",
}


@pytest.mark.parametrize("system", [
    pytest.param("pendulum", marks=needs_recorded_sin), "rigid_body"])
def test_dopri5_integrate_history_bits_are_pinned(system):
    y0 = _states(system, 1)[0]
    traj = dopri5_integrate(get_system(system), y0, 3.0, 1e-11, 1e-11)
    assert _digest(traj.times, traj.states) == _HISTORY[system]


def test_one_row_failure_bits_are_pinned():
    # the blowup's failing record alone (y' = y^2 from 2): the one-row loop
    # up to its step-size underflow near the pole at t = 0.5
    blowup = VectorFieldSpec(name="blowup", dim=1,
                             component_fn=lambda c: (c[0] * c[0],))
    y, ok, reached = adaptive_flow_batch(
        blowup, np.array([[2.0]]), np.array([1.0]), 1e-10, 1e-10)
    assert not ok[0] and 0.49 < reached[0] < 0.5
    assert _digest(y, ok, reached) == (
        "ffdde5d03afb7bf9e099c3602b4f31cfd8aa26d7383acba43c68ebf4fdcc351e")


def _array_field(system, kind):
    """A field the one-row loop evaluates through its array call."""
    base = get_system(system)
    if kind == "plain":
        return lambda y, h: base(y)
    return truncated_field(base, "euler", 2)


_ARRAY_CALL = {
    ("pendulum", "plain"):
        "a3f1114f82f8ca2264ff0c33c867e642933c0aaafb670daef9917f518bccc8d2",
    ("pendulum", "truncated"):
        "c420a77dcf24d336351b0e605531c82f533c0a7638ef8f7b99ca4eb8de9adaf2",
    ("rigid_body", "plain"):
        "3d66e6f247020dcd288641a0976c64ac822c4611f88e0a9b999ba660174f3278",
    ("rigid_body", "truncated"):
        "0ec95245f4037bd85c945bd2bf472e12ad045884c6a17b91340de6d4f202cf9b",
}


@pytest.mark.parametrize(
    "system, kind",
    [pytest.param(*key, marks=[needs_recorded_sin] if key[0] == "pendulum"
                  else []) for key in _ARRAY_CALL])
def test_one_row_array_call_bits_are_pinned(system, kind):
    # fields without a VectorFieldSpec's components: every stage goes
    # through the array call on a one-row array
    field = _array_field(system, kind)
    y0 = _states(system, 1)
    outs = []
    for tol in (1e-6, 1e-11):
        outs.extend(adaptive_flow_batch(field, y0, np.full(1, 1.5), tol, tol))
    traj = dopri5_integrate(field, y0[0], 1.0, 1e-9, 1e-9)
    assert _digest(*outs, traj.times, traj.states) == _ARRAY_CALL[
        (system, kind)]
