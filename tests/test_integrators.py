import hashlib
import math
import pickle
import re
import traceback

import numpy as np
import pytest

from modfield import _mathops as _m
from modfield import integrators, systems
from modfield.errors import (
    FixedPointError,
    IntegrationFailureError,
    ModfieldError,
    StageOverflowError,
)
from modfield.integrators import (
    ButcherTableau,
    ErrorBoundInputs,
    adaptive_flow_batch,
    box_grid,
    canonical_scheme,
    dopri5_integrate,
    estimate_lipschitz,
    get_stepper,
    get_tableau,
    implicit_midpoint_step,
    integrate,
    order_estimate,
    rk_step,
    scheme_names,
    theorem_bound,
)
from modfield.modified_field import max_truncation, truncated_field
from modfield.neural import init_model
from modfield.systems import (
    DomainBox,
    VectorFieldSpec,
    get_system,
    reference_trajectory,
)
from oracles import textbook_rk_step


def linear_field(a):
    """y' = A y for a 2x2 matrix, with closed-form steps for oracles."""
    a = np.asarray(a, dtype=float)
    return VectorFieldSpec(
        name="linear", dim=2,
        component_fn=lambda c: (a[0, 0] * c[0] + a[0, 1] * c[1],
                                a[1, 0] * c[0] + a[1, 1] * c[1]))


def test_scheme_registry():
    names = scheme_names()
    assert {"euler", "rk2_midpoint", "rk2_heun", "dopri5",
            "midpoint"} <= set(names)
    assert canonical_scheme("rk2") == "rk2_midpoint"
    with pytest.raises(ValueError, match="unknown scheme"):
        get_tableau("rk17")


def test_tableau_validation():
    with pytest.raises(ValueError):
        ButcherTableau(name="bad", a=np.zeros((1, 1)), b=[0.5], c=[0.0],
                       order=1)
    with pytest.raises(ValueError):
        ButcherTableau(name="bad", a=[[0.0, 0.0], [0.7, 0.0]], b=[0.5, 0.5],
                       c=[0.0, 0.5], order=2)
    tab = get_tableau("dopri5")
    assert tab.is_explicit and tab.stages == 7 and tab.b_emb is not None


def test_euler_step_is_exact_formula(pendulum, rng):
    step = get_stepper("euler")
    y = rng.uniform(-2, 2, size=(8, 2))
    h = 0.37
    assert np.array_equal(step(pendulum, y, h), y + h * pendulum(y))


def test_rk2_midpoint_step_frozen_value(pendulum):
    # two-stage hand computation from (1, 0) with h = 0.1
    step = get_stepper("rk2")
    got = step(pendulum, np.array([1.0, 0.0]), 0.1)
    assert got[0] == pytest.approx(1.0 - 0.1 * math.sin(0.05), abs=1e-15)
    assert got[1] == pytest.approx(0.1, abs=1e-16)


def test_rk2_linear_oracle():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    field = linear_field(a)
    y = np.array([0.3, -0.7])
    h = 0.25
    # for y' = Ay any RK2 step multiplies by the degree-2 Taylor of e^{hA}
    m = np.eye(2) + h * a + 0.5 * (h * a) @ (h * a)
    for name in ("rk2_midpoint", "rk2_heun"):
        step = rk_step(get_tableau(name), field, y, h)
        assert np.max(np.abs(step - m @ y)) < 1e-15


def test_stage_overflow_error():
    bad = VectorFieldSpec(name="nanfield", dim=1,
                          component_fn=lambda c: (c[0] * float("nan"),))
    with pytest.raises(StageOverflowError) as info:
        rk_step(get_tableau("rk2_midpoint"), bad, np.array([1.0]), 0.1)
    assert info.value.stage == 0


def test_implicit_midpoint_linear_oracle():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    field = linear_field(a)
    y = np.array([1.0, 0.5])
    h = 0.2
    # exact solve of y1 = y + hA(y + y1)/2
    lhs = np.eye(2) - 0.5 * h * a
    rhs = (np.eye(2) + 0.5 * h * a) @ y
    expect = np.linalg.solve(lhs, rhs)
    got = get_stepper("midpoint")(field, y, h)
    assert np.max(np.abs(got - expect)) < 1e-12


def test_implicit_midpoint_divergence(pendulum):
    with pytest.raises(FixedPointError) as info:
        get_stepper("midpoint")(pendulum, np.array([1.5, 0.0]), 50.0)
    assert info.value.residual is None or info.value.residual > 1e-12


def test_integrate_shapes(pendulum):
    traj = integrate(get_stepper("euler"), pendulum, np.array([1.0, 0.0]),
                     0.1, 25)
    assert len(traj) == 26
    assert np.allclose(traj.times, 0.1 * np.arange(26))
    assert np.array_equal(traj.states[0], [1.0, 0.0])


def test_integrate_annotates_failing_step():
    bad = VectorFieldSpec(name="blowup", dim=1,
                          component_fn=lambda c: (c[0] * c[0],))
    with pytest.raises(StageOverflowError) as info:
        with np.errstate(over="ignore"):
            integrate(get_stepper("euler"), bad, np.array([1e160]), 1.0, 5)
    assert info.value.step_index is not None


def test_adaptive_flow_batch_matches_scalar(pendulum, rigid_body, rng):
    # a wide call runs the array loop and a one-row call the float loop:
    # batching must not change a single record's arithmetic at all
    t = np.array([0.5, 0.0, 1.5, -1.0, 2.5])

    def plain(y, h):  # no ``components``: the float loop's array adapter
        return pendulum(y)

    for tol in (1e-4, 1e-10, 1e-13):
        for field in (pendulum, rigid_body, plain,
                      truncated_field(pendulum, "euler", 2)):
            dim = 3 if field is rigid_body else 2
            y0 = rng.uniform(-2, 2, size=(5, dim))
            batch, ok, reached = adaptive_flow_batch(field, y0, t, tol, tol)
            assert np.all(ok)
            for i in range(5):
                single, ok1, reached1 = adaptive_flow_batch(
                    field, y0[i:i + 1], t[i:i + 1], tol, tol)
                assert ok1[0]
                assert batch[i].tobytes() == single[0].tobytes()
                assert reached[i].tobytes() == reached1[0].tobytes()


@pytest.mark.parametrize("n", [2, 3, 17])
@pytest.mark.parametrize("kind", ["plain", "rigid_body", "truncated"])
def test_wide_flow_contract_for_array_fields(pendulum, rigid_body, kind, n):
    # the array loop keeps its states as component rows; a field without a
    # VectorFieldSpec's components must still see C-contiguous (n, d) float
    # states and one step per row, the caller's arrays stay as they were,
    # and every row keeps its one-row bits while the others finish on other
    # steps or fail (row 1 starts at NaN)
    calls = []

    def recorded(fn):
        def field(y, h):
            calls.append((y.dtype == np.float64, y.ndim, y.shape[-1],
                          y.flags.c_contiguous, np.shape(h) == y.shape[:1]))
            return fn(y, h)
        return field

    if kind == "rigid_body":
        field, d = rigid_body, 3
    elif kind == "plain":
        field, d = recorded(lambda y, h: pendulum(y)), 2
    else:
        field, d = recorded(truncated_field(pendulum, "euler", 2)), 2
    k = np.arange(n)
    y0 = np.column_stack([-1.0 + 2.0 * ((13 * k + 5 * i) % 89) / 88.0
                          for i in range(1, d + 1)])
    y0[1, 0] = np.nan
    t_end = 0.2 + 0.4 * k
    y0_bits, t_bits = y0.tobytes(), t_end.tobytes()
    with np.errstate(invalid="ignore"):
        y, ok, reached = adaptive_flow_batch(field, y0, t_end, 1e-10, 1e-10)
        assert y0.tobytes() == y0_bits and t_end.tobytes() == t_bits
        assert ok.tolist() == [i != 1 for i in range(n)]
        for i in range(n):
            y1, ok1, reached1 = adaptive_flow_batch(
                field, y0[i:i + 1], t_end[i:i + 1], 1e-10, 1e-10)
            assert ok1[0] == ok[i]
            assert y1.tobytes() == y[i:i + 1].tobytes()
            assert reached1.tobytes() == reached[i:i + 1].tobytes()
    if kind != "rigid_body":
        assert calls and set(calls) == {(True, 2, d, True, True)}


def test_adaptive_flow_reports_failure():
    bad = VectorFieldSpec(name="blowup", dim=1,
                          component_fn=lambda c: (c[0] * c[0],))
    out, ok, reached = adaptive_flow_batch(bad, np.array([[2.0]]),
                                           np.array([1.0]), 1e-10, 1e-10)
    assert not ok[0]
    assert reached[0] < 1.0


@pytest.mark.parametrize("atol, rtol", [
    (0.0, 1e-10), (-1e-10, 1e-10), (1e-10, -1e-10), (np.inf, 1e-10),
    (1e-10, np.nan)])
def test_adaptive_flow_rejects_bad_tolerances(pendulum, atol, rtol):
    with pytest.raises(ValueError, match="atol"):
        adaptive_flow_batch(pendulum, np.array([[1.0, 0.0]]),
                            np.array([1.0]), atol, rtol)


def test_adaptive_flow_fails_a_nan_step():
    # a NaN field makes the step size NaN; the record must fail at once
    # instead of running to max_steps
    calls = []

    def nan_field(y, h):
        calls.append(1)
        return np.full_like(y, np.nan)

    out, ok, reached = adaptive_flow_batch(nan_field, np.array([[1.0]]),
                                           np.array([1.0]), 1e-10, 1e-10)
    assert not ok[0] and reached[0] == 0.0
    assert len(calls) < 20


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_end_times_are_rejected(pendulum, bad):
    y0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="t_end"):
        adaptive_flow_batch(pendulum, np.array([y0, y0]),
                            np.array([1.0, bad]), 1e-10, 1e-10)
    with pytest.raises(ValueError, match="t_end"):
        adaptive_flow_batch(pendulum, y0[None, :], np.array([bad]),
                            1e-10, 1e-10)
    with pytest.raises(ValueError, match="t_end"):
        dopri5_integrate(pendulum, y0, bad, 1e-10, 1e-10)
    with pytest.raises(ValueError, match="times"):
        reference_trajectory(pendulum, y0, [bad])
    with pytest.raises(ValueError, match="times"):
        reference_trajectory(pendulum, y0, [0.5, bad])


def test_one_row_flow_rejects_a_state_of_the_wrong_size(pendulum):
    # the pendulum's components read two values and would ignore a third
    y0 = np.array([1.0, 0.0, 0.5])
    with pytest.raises(ValueError, match="last dimension 3, expected 2"):
        reference_trajectory(pendulum, y0, [0.5])
    with pytest.raises(ValueError, match="last dimension 3, expected 2"):
        dopri5_integrate(pendulum, y0, 0.5, 1e-10, 1e-10)
    # the wide loop's first evaluation is the array call
    with pytest.raises(ValueError, match="last dimension 3, expected 2"):
        adaptive_flow_batch(pendulum, np.array([y0, y0]),
                            np.array([0.5, 1.0]), 1e-10, 1e-10)


def test_wrong_size_is_rejected_without_a_positive_segment(pendulum):
    # a record that never steps still has its size checked
    y0 = np.array([1.0, 0.0, 0.5])
    with pytest.raises(ValueError, match="last dimension 3, expected 2"):
        reference_trajectory(pendulum, y0, [0.0])
    for t_end in (0.0, -1.0):
        with pytest.raises(ValueError, match="last dimension 3, expected 2"):
            adaptive_flow_batch(pendulum, y0[None], np.array([t_end]),
                                1e-10, 1e-10)
        with pytest.raises(ValueError, match="last dimension 3, expected 2"):
            adaptive_flow_batch(pendulum, np.array([y0, y0]),
                                np.array([t_end, 0.0]), 1e-10, 1e-10)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_integrate_refuses_a_non_finite_step(pendulum, h):
    for scheme in ("euler", "midpoint"):
        with pytest.raises(ValueError, match=f"h must be positive and "
                                             f"finite, got {h}"):
            integrate(get_stepper(scheme), pendulum, np.array([1.0, 0.0]),
                      h, 3)


def test_malformed_states_are_rejected(pendulum):
    # more than one row where one state is meant, or a third dimension
    with pytest.raises(ValueError, match=r"got shape \(1, 2\)"):
        reference_trajectory(pendulum, np.array([[1.5, 0.0]]), [0.1, 0.2])
    with pytest.raises(ValueError, match=r"got shape \(\)"):
        reference_trajectory(pendulum, 1.5, [0.1])
    with pytest.raises(ValueError, match=r"got shape \(1, 2\)"):
        dopri5_integrate(pendulum, np.array([[1.5, 0.0]]), 0.5, 1e-10, 1e-10)
    for shape in ((2, 1, 2), (1, 1, 2)):
        with pytest.raises(ValueError,
                           match=f"got shape {re.escape(str(shape))}"):
            adaptive_flow_batch(pendulum, np.zeros(shape),
                                np.full(shape[0], 0.5), 1e-10, 1e-10)
    # states without components, for a field that would take them
    for n in (1, 3):
        with pytest.raises(ValueError, match=rf"got shape \({n}, 0\)"):
            adaptive_flow_batch(lambda y, h: y, np.zeros((n, 0)),
                                np.full(n, 0.5), 1e-10, 1e-10)


def test_dopri5_integrate_accuracy(pendulum):
    y0 = np.array([1.5, 0.0])
    traj = dopri5_integrate(pendulum, y0, 5.0, 1e-10, 1e-10)
    ref = reference_trajectory(pendulum, y0, [5.0], tol=1e-13)[-1]
    assert np.max(np.abs(traj.states[-1] - ref)) < 1e-8
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(5.0)
    H = pendulum.invariants["energy"]
    assert np.max(np.abs(H(traj.states) - H(y0))) < 1e-8


def test_order_estimate_recovers_exact_power():
    hs = 0.1 * 2.0 ** -np.arange(5)
    for p in (1, 2, 3):
        errors = 0.7 * hs ** p
        assert order_estimate(errors, hs) == pytest.approx(p, abs=1e-12)


def test_order_estimate_validation():
    with pytest.raises(ValueError):
        order_estimate([1.0, 2.0], [0.1, 0.2])       # hs increasing
    with pytest.raises(ValueError):
        order_estimate([1.0, -1.0], [0.2, 0.1])      # negative error
    with pytest.raises(ValueError):
        order_estimate([1.0], [0.1])                 # too short


def test_theorem_bound_euler_formula():
    tab = get_tableau("euler")
    inp = ErrorBoundInputs(delta=0.3, lam=0.8, h_plus=0.5, T=4.0, tableau=tab)
    h = 0.25
    expect = 0.3 * h * (math.expm1(0.8 * 4.0) / 0.8)
    assert theorem_bound(inp, h) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("lam", [0.0, 1e-9, 0.8, 3.5])
def test_theorem_bound_euler_is_its_closed_form_bit_for_bit(lam):
    # the general formula at alpha = 1 is delta h T (e^{lam T} - 1)/(lam T)
    inp = ErrorBoundInputs(delta=0.3, lam=lam, h_plus=0.5, T=4.0,
                           tableau=get_tableau("euler"))
    expect = 0.3 * 0.25 * 4.0 * (math.expm1(lam * 4.0) / (lam * 4.0)
                                 if lam else 1.0)
    assert theorem_bound(inp, 0.25) == expect


def test_theorem_bound_zero_lipschitz_limits():
    # lam -> 0 must degrade continuously to delta h^p T
    eul = ErrorBoundInputs(delta=0.3, lam=0.0, h_plus=0.5, T=4.0,
                           tableau=get_tableau("euler"))
    assert theorem_bound(eul, 0.25) == pytest.approx(0.3 * 0.25 * 4.0)
    rk2 = ErrorBoundInputs(delta=0.3, lam=0.0, h_plus=0.5, T=4.0,
                           tableau=get_tableau("rk2_midpoint"))
    assert theorem_bound(rk2, 0.25) == pytest.approx(0.3 * 0.25 ** 2 * 4.0)


def test_theorem_bound_generic_tableau_dominates_sharp():
    # the generic constant is never below Euler's; at |b|_1 = 1, A = 0 it
    # is Euler's
    delta, lam = 0.1, 0.9
    sharp = ErrorBoundInputs(delta=delta, lam=lam, h_plus=0.4, T=5.0,
                             tableau=get_tableau("euler"))
    generic_tab = ButcherTableau(name="euler_generic", a=[[0.0]], b=[1.0],
                                 c=[0.0], order=1)
    coarse = ErrorBoundInputs(delta=delta, lam=lam, h_plus=0.4, T=5.0,
                              tableau=generic_tab)
    assert theorem_bound(coarse, 0.2) >= theorem_bound(sharp, 0.2)


def test_theorem_bound_validation():
    inp = ErrorBoundInputs(delta=0.1, lam=0.1, h_plus=0.5, T=1.0,
                           tableau=get_tableau("euler"))
    with pytest.raises(ValueError):
        theorem_bound(inp, 0.6)
    with pytest.raises(ValueError):
        ErrorBoundInputs(delta=-0.1, lam=0.1, h_plus=0.5, T=1.0,
                         tableau=get_tableau("euler"))


def test_box_grid():
    box = DomainBox(lower=[-1.0, 0.0], upper=[1.0, 2.0])
    g = box_grid(box, 3)
    assert g.shape == (9, 2)
    assert np.array_equal(g[0], [-1.0, 0.0]) and np.array_equal(g[-1], [1.0, 2.0])
    with pytest.raises(ValueError):
        box_grid(box, 1)


def test_estimate_lipschitz_linear_field():
    a = np.array([[0.0, -3.0], [0.5, 0.0]])
    field = linear_field(a)
    box = DomainBox(lower=[-2.0, -2.0], upper=[2.0, 2.0])
    # exact value: max absolute row sum of A
    assert estimate_lipschitz(field, box, 5) == pytest.approx(3.0, abs=1e-13)


def test_estimate_lipschitz_pendulum(pendulum):
    box = DomainBox(lower=[-2.0, -2.0], upper=[2.0, 2.0])
    # rows of df are (0, -cos q) and (1, 0); the grid contains q = 0
    assert estimate_lipschitz(pendulum, box, 5) == pytest.approx(1.0, abs=1e-13)
    assert estimate_lipschitz(pendulum, box, 9) >= \
        estimate_lipschitz(pendulum, box, 5) - 1e-15


def test_scheme_orders_on_pendulum(pendulum):
    """Measured convergence orders of the three base schemes."""
    y0 = np.array([1.5, 0.0])
    T = 5.0
    hs = 0.1 * 2.0 ** -np.arange(4)
    ref = reference_trajectory(pendulum, y0, [T], tol=1e-13)[-1]
    for scheme, expected in (("euler", 1.0), ("rk2", 2.0), ("midpoint", 2.0)):
        step = get_stepper(scheme)
        errs = []
        for h in hs:
            traj = integrate(step, pendulum, y0, h, round(T / h))
            errs.append(np.linalg.norm(traj.states[-1] - ref))
        assert order_estimate(np.array(errs), hs) == pytest.approx(
            expected, abs=0.15)


def _one_row_specs():
    """Specs the one-row loop runs through their float programs: with
    ``sin``, with ``cos``, with a constant component, one going NaN and
    one blowing up; each with a start state and end times."""
    return [
        (get_system("pendulum"), [1.5, 0.3], (1.5, 0.05, 0.0)),
        (get_system("rigid_body"), [0.6, -0.3, 0.74], (1.5, 0.05)),
        (VectorFieldSpec(
            name="cosine", dim=2,
            component_fn=lambda c: (_m.cos(c[1]) * c[0] - c[1],
                                    0.5 * c[0] + _m.cos(c[0] * c[1]))),
         [0.4, -1.1], (1.5, 0.3)),
        (VectorFieldSpec(name="drift", dim=2,
                         component_fn=lambda c: (0.25, c[0] * c[1] - c[1])),
         [0.3, 0.8], (1.0, -0.5)),
        (VectorFieldSpec(name="nanfield", dim=1,
                         component_fn=lambda c: (c[0] * float("nan"),)),
         [1.0], (1.0,)),
        (VectorFieldSpec(name="blowup", dim=1,
                         component_fn=lambda c: (c[0] * c[0],)),
         [2.0], (1.0, 0.3)),
    ]


def _bits(out):
    """The bytes of every array in a flow's result, its history included."""
    return [_bits(a) if isinstance(a, tuple) else a.tobytes() for a in out]


@pytest.mark.parametrize("i", range(6), ids=["pendulum", "rigid_body",
                                             "cosine", "drift", "nanfield",
                                             "blowup"])
def test_spec_float_program_flows_as_its_array_call(i):
    # a spec steps through its float program and the generated stage code;
    # as a plain callable it goes through its array call on one-row
    # arrays: every output, failing rows and reached times included, must
    # have the same bits
    spec, y0, ends = _one_row_specs()[i]
    plain = lambda y, h: spec(y)  # noqa: E731
    y0 = np.array([y0])
    for tol in (1e-6, 1e-12):
        for t_end in ends:
            t = np.array([t_end])
            for collect in (False, True):
                with np.errstate(invalid="ignore", over="ignore"):
                    got = adaptive_flow_batch(spec, y0, t, tol, tol, collect)
                    want = adaptive_flow_batch(plain, y0, t, tol, tol,
                                               collect)
                assert _bits(got) == _bits(want)
            if t_end <= 0:
                continue
            runs = []
            for field in (spec, plain):
                try:
                    with np.errstate(invalid="ignore", over="ignore"):
                        traj = dopri5_integrate(field, y0[0], t_end, tol, tol)
                    runs.append((traj.times.tobytes(), traj.states.tobytes()))
                except IntegrationFailureError as e:
                    runs.append(e.t_reached)
            assert runs[0] == runs[1]
    if spec.name in ("nanfield", "blowup"):
        _, ok, reached = adaptive_flow_batch(spec, y0, np.array([1.0]),
                                             1e-10, 1e-10)
        assert not ok[0] and reached[0] < 1.0


def test_spec_is_recorded_once(monkeypatch):
    # recorded when built, compiled on the first one-state use
    calls, compiled = [], []
    record, compile_program = systems.record, systems.compile_program
    monkeypatch.setattr(systems, "record",
                        lambda *a: calls.append(a) or record(*a))
    monkeypatch.setattr(systems, "compile_program",
                        lambda *a, **k: compiled.append(a)
                        or compile_program(*a, **k))
    spec = systems.pendulum_field()
    spec(np.ones((4, 2)))  # an array call needs no program
    assert len(calls) == 1 and not compiled
    program = spec.float_program
    y0 = np.array([[1.0, 0.5]])
    for _ in range(3):
        adaptive_flow_batch(spec, y0, np.array([0.4]), 1e-10, 1e-10)
        dopri5_integrate(spec, y0[0], 0.4, 1e-10, 1e-10)
        reference_trajectory(spec, y0[0], [0.1, 0.2])
        spec(y0[0])
    assert len(calls) == 1 and len(compiled) == 1
    assert spec.float_program is program
    # a copy, pickled after use, compiles its own program from the record
    copy = pickle.loads(pickle.dumps(spec))
    assert len(calls) == 1 and copy(y0[0]).tobytes() == spec(y0[0]).tobytes()


def test_rigid_bodies_get_their_own_float_programs():
    # both specs are named "rigid_body" and share their component code
    a, b = systems.rigid_body_field(1.0, 2.0, 3.0), systems.rigid_body_field(
        2.0, 3.0, 5.0)
    assert a.float_program is not b.float_program
    y0 = np.array([[0.6, -0.3, 0.74]])
    ya, _, _ = adaptive_flow_batch(a, y0, np.array([1.0]), 1e-10, 1e-10)
    yb, _, _ = adaptive_flow_batch(b, y0, np.array([1.0]), 1e-10, 1e-10)
    assert not np.array_equal(ya, yb)
    for spec, y in ((a, ya), (b, yb)):
        plain = lambda y, h, spec=spec: spec(y)  # noqa: E731
        assert adaptive_flow_batch(plain, y0, np.array([1.0]), 1e-10,
                                   1e-10)[0].tobytes() == y.tobytes()


def test_stage_code_is_built_once_per_dimension(monkeypatch):
    # once per tableau, dimension and kind: DOPRI5's embedded pair for the
    # one-row flow, each explicit tableau's fixed step on floats, and its
    # step on arrays (one variable), checked and unchecked
    built = []
    source = integrators._stage_source
    monkeypatch.setattr(integrators, "_stage_source",
                        lambda tab, d, kind="floats": built.append(
                            (tab.name, d, kind)) or source(tab, d, kind))
    integrators._stages.cache_clear()
    for _ in range(2):
        for spec, y0, _ in _one_row_specs():
            plain = lambda y, h, spec=spec: spec(y)  # noqa: E731
            for field in (spec, plain):
                with np.errstate(invalid="ignore", over="ignore"):
                    adaptive_flow_batch(field, np.array([y0]),
                                        np.array([0.2]), 1e-8, 1e-8)
                    for scheme in ("euler", "dopri5"):
                        try:
                            integrate(get_stepper(scheme), field,
                                      np.array(y0), 0.1, 3)
                        except StageOverflowError:
                            pass
                        for checked in (True, False):
                            try:
                                integrators.rk_stage_loop(
                                    get_tableau(scheme), field,
                                    np.array([y0, y0]), 0.1, checked)
                            except StageOverflowError:
                                pass
    assert sorted(built) == sorted(
        [(name, d, kind) for name, kind in (
            ("dopri5", "floats"), ("dopri5", "embedded"),
            ("euler", "floats")) for d in (1, 2, 3)]
        + [(name, 1, kind) for name in ("dopri5", "euler")
           for kind in ("arrays", "unchecked")])


def test_tracebacks_show_generated_lines(pendulum):
    # a field that raises while a step runs: the traceback passes through
    # the generated stage code and shows its line
    calls = []

    def failing(y, h):
        calls.append(1)
        if len(calls) == 4:  # probe, probe, stage 0, then stage 1
            raise RuntimeError("field failed")
        return pendulum(y)

    with pytest.raises(RuntimeError) as info:
        adaptive_flow_batch(failing, np.array([[1.0, 0.5]]), np.array([1.0]),
                            1e-10, 1e-10)
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<dopri5 stages d=2>"' in text
    assert "k1_0, k1_1, = F(h, u0 + c10 * k0_0, u1 + c10 * k0_1)" in text
    # a spec's float program and a truncated field's program alike
    truncated = truncated_field(pendulum, "euler", 2)
    for call, line in (
            (lambda: pendulum.float_program(None, 0.5, "x"),
             "v0 = float(sin(x1))"),
            (lambda: truncated._program(0.5, "x"), "v0 = sin(x1)")):
        with pytest.raises(TypeError) as info:
            call()
        assert line in "".join(traceback.format_exception(info.value))


# -- one state on floats against the array loops -------------------------

# the text of DOPRI5's one-row stage code for d = 1, 2, 3, before the
# emitter also wrote the fixed-step steps
_DOPRI5_STAGE_SOURCE_SHA256 = {
    1: "eda3fb8932dedc0d87567d6f1fa44d2f1e218527248ccf73174617d6e01b9506",
    2: "528d6291fc24ae0900c1c25a6ed213847de8597b22a9f7feb72b7f7aed980535",
    3: "03e2a62d635ee2ac96d9619c76d3f53b3f4d0a948bd21a84d2d98ebbd0537813",
}


def test_dopri5_stage_source_is_unchanged():
    tab = get_tableau("dopri5")
    for d, digest in _DOPRI5_STAGE_SOURCE_SHA256.items():
        src = integrators._stage_source(tab, d, "embedded")
        assert hashlib.sha256(src.encode()).hexdigest() == digest


def _outcome(fn):
    """The bytes of what ``fn`` returns, or what its error carries."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn())
        return out.dtype.str, out.shape, out.tobytes()
    except (ModfieldError, ValueError) as e:
        return (type(e), str(e), getattr(e, "stage", None),
                getattr(e, "step_index", None), getattr(e, "residual", None),
                getattr(e, "iterations", None))


_FLOAT_STATES = {
    "pendulum": [[1.5, 0.3], [-0.7, 2.9], [1e155, 0.5], [1e160, 1.0],
                 [math.inf, 0.0], [0.4, math.nan]],
    "rigid_body": [[0.6, -0.3, 0.74], [-1.9, 1.2, 2.5], [1e155, 1.0, 1.0],
                   [1e160, 1e160, 1.0], [0.1, -math.inf, 0.2],
                   [math.nan, 0.1, 0.3]],
}


def _float_fields(system, scheme):
    """Every kind of field one state is stepped with: the spec, truncated
    fields from k=2 up to the scheme's maximum, learned fields and a
    plain callable."""
    base = get_system(system)
    fields = [base, lambda y, h: base(y),
              init_model(base, "euler", 1, 2, (8,), seed=5),
              init_model(base, "rk2", 2, 1, (6, 5), seed=6)]
    return fields + [truncated_field(base, scheme, k)
                     for k in range(2, max_truncation(scheme) + 1)]


@pytest.mark.parametrize("system", ["pendulum", "rigid_body"])
@pytest.mark.parametrize("name", ["euler", "rk2_midpoint", "rk2_heun",
                                  "dopri5"])
def test_float_steps_match_the_stage_loop(system, name):
    # the step on arrays (rk_step) and the orbit on floats (integrate with
    # the scheme's stepper) against a textbook stage loop: the same bits,
    # or the same error with the same stage and step
    tab = get_tableau(name)

    def textbook(field, y, h):
        return textbook_rk_step(tab, field, y, h)

    def array_stepper(field, y, h):
        return rk_step(tab, field, y, h)

    kinds = set()
    for field in _float_fields(system, "euler" if name == "dopri5" else name):
        for y in map(np.array, _FLOAT_STATES[system]):
            for h in (0.1, 1.25):
                want = _outcome(lambda: textbook(field, y, h))
                assert _outcome(lambda: array_stepper(field, y, h)) == want
                want = _outcome(
                    lambda: integrate(textbook, field, y, h, 6).states)
                for stepper in (array_stepper, get_stepper(name)):
                    got = _outcome(
                        lambda: integrate(stepper, field, y, h, 6).states)
                    assert got == want
                kinds.add(want[0])
    assert kinds == {"<f8", StageOverflowError}


@pytest.mark.parametrize("system", ["pendulum", "rigid_body"])
def test_float_midpoint_matches_the_array_iteration(system):
    # a 0-d array step takes the array iteration
    def array_stepper(field, y, h):
        return implicit_midpoint_step(field, y, np.array(h))

    errors = set()
    for field in _float_fields(system, "midpoint"):
        for y in map(np.array, _FLOAT_STATES[system]):
            for h in (0.0625, 0.37, 1.25):
                want = _outcome(lambda: array_stepper(field, y, h))
                got = _outcome(lambda: implicit_midpoint_step(field, y, h))
                assert got == want
                want = _outcome(
                    lambda: integrate(array_stepper, field, y, h, 6).states)
                got = _outcome(lambda: integrate(get_stepper("midpoint"),
                                                 field, y, h, 6).states)
                assert got == want
                if want[0] is FixedPointError:
                    errors.add(want[5] == integrators._FP_ITERS)
    assert errors == {False, True}  # diverged, and not converged


@pytest.mark.parametrize("scheme", ["euler", "rk2_heun", "dopri5",
                                    "midpoint"])
@pytest.mark.parametrize("size", [1, 3])
def test_a_field_value_of_the_wrong_size_is_refused(scheme, size):
    # on one state the field's value is not broadcast to the state
    def field(y, h):
        return np.ones(size)

    msg = rf"shape \({size},\) for a state of shape \(2,\)"
    with pytest.raises(ValueError, match=msg):
        integrate(get_stepper(scheme), field, np.zeros(2), 0.1, 2)
    with pytest.raises(ValueError, match=msg):
        get_stepper(scheme)(field, np.zeros(2), 0.1)
    # nor broadcast to a batch of states
    with pytest.raises(ValueError, match=rf"shape \(3, {size}\) for a "
                       rf"state of shape \(3, 2\)"):
        get_stepper(scheme)(lambda y, h: np.ones((3, size)), np.zeros((3, 2)),
                            0.1)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("probe", [True, False])
def test_dopri5_refuses_a_field_value_of_the_wrong_size(rows, probe):
    # both loops, at the start probe's first call (h = 0) or after it
    def field(y, h):
        wrong = probe == (np.max(h) == 0.0)
        return np.ones(y.shape[:-1] + (1 if wrong else 2,))

    with pytest.raises(ValueError, match=rf"field value has shape "
                       rf"\({rows}, 1\) for a state of shape \({rows}, 2\)"):
        adaptive_flow_batch(field, np.ones((rows, 2)), np.ones(rows), 1e-8,
                            1e-8)
