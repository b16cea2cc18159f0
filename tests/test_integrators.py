import math

import numpy as np
import pytest

from modfield.errors import (
    FixedPointError,
    IntegrationFailureError,
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
    integrate,
    order_estimate,
    rk_step,
    scheme_names,
    theorem_bound,
)
from modfield.systems import (
    DomainBox,
    VectorFieldSpec,
    get_system,
    reference_trajectory,
)


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
    t = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    for field in (pendulum, rigid_body):
        y0 = rng.uniform(-2, 2, size=(5, field.dim))
        batch, ok, _ = adaptive_flow_batch(field, y0, t, 1e-10, 1e-10)
        assert np.all(ok)
        for i in range(5):
            single, ok1, _ = adaptive_flow_batch(field, y0[i:i + 1],
                                                 t[i:i + 1], 1e-10, 1e-10)
            assert ok1[0]
            # batching must not change a single record's arithmetic at all
            assert np.array_equal(batch[i], single[0])


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


def test_theorem_bound_zero_lipschitz_limits():
    # lam -> 0 must degrade continuously to delta h^p T
    eul = ErrorBoundInputs(delta=0.3, lam=0.0, h_plus=0.5, T=4.0,
                           tableau=get_tableau("euler"))
    assert theorem_bound(eul, 0.25) == pytest.approx(0.3 * 0.25 * 4.0)
    rk2 = ErrorBoundInputs(delta=0.3, lam=0.0, h_plus=0.5, T=4.0,
                           tableau=get_tableau("rk2_midpoint"))
    assert theorem_bound(rk2, 0.25) == pytest.approx(0.3 * 0.25 ** 2 * 4.0)


def test_theorem_bound_generic_tableau_dominates_sharp():
    # the generic constant is coarser than the Euler-specific one
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
