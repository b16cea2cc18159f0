import numpy as np
import pytest

from modfield.errors import (
    ConditioningWarning,
    FixedPointError,
    UnsupportedTruncationError,
)
from modfield.integrators import get_stepper, integrate, order_estimate
from modfield.modified_field import (
    euler_term,
    extract_first_correction,
    max_truncation,
    midpoint_field_probe,
    midpoint_odd_coefficients,
    rk2_term,
    truncated_field,
)
from modfield.systems import get_system, reference_flow


# hand-computed correction terms at the pendulum point (1, 0)
EULER_AT_10 = {1: (-0.5, 0.0), 2: (0.0, -1.0 / 6.0), 3: (1.0 / 12.0, 0.0)}
RK2_AT_10 = {1: (0.0, -1.0 / 6.0), 2: (-25.0 / 240.0, 0.0)}


def test_euler_terms_frozen_values(pendulum):
    y = np.array([1.0, 0.0])
    for j, expect in EULER_AT_10.items():
        assert np.allclose(euler_term(pendulum, j, y), expect, atol=1e-14)


def test_rk2_terms_frozen_values(pendulum):
    y = np.array([1.0, 0.0])
    for j, expect in RK2_AT_10.items():
        assert np.allclose(rk2_term(pendulum, j, y), expect, atol=1e-14)


def test_term_batching(pendulum, rng):
    y = rng.uniform(-2, 2, size=(12, 2))
    batched = euler_term(pendulum, 2, y)
    rows = np.stack([euler_term(pendulum, 2, v) for v in y])
    assert np.array_equal(batched, rows)


def test_term_argument_guards(pendulum):
    with pytest.raises(ValueError):
        euler_term(pendulum, 0, np.array([1.0, 0.0]))
    with pytest.raises(UnsupportedTruncationError):
        rk2_term(pendulum, 3, np.array([1.0, 0.0]))


def test_truncation_k1_is_base_field(pendulum, rng):
    f1 = truncated_field(pendulum, "euler", 1)
    y = rng.uniform(-2, 2, size=(6, 2))
    assert np.array_equal(f1(y, 0.3), pendulum(y))


def test_truncation_k2_formula(pendulum, rng):
    f2 = truncated_field(pendulum, "euler", 2)
    y = rng.uniform(-2, 2, size=(6, 2))
    h = 0.2
    expect = pendulum(y) + h * euler_term(pendulum, 1, y)
    assert np.allclose(f2(y, h), expect, atol=1e-15)
    # rk2 has p = 2: correction enters at h^2
    g2 = truncated_field(pendulum, "rk2", 2)
    expect = pendulum(y) + h * h * rk2_term(pendulum, 1, y)
    assert np.allclose(g2(y, h), expect, atol=1e-15)


def test_truncation_per_record_steps(pendulum, rng):
    f3 = truncated_field(pendulum, "euler", 3)
    y = rng.uniform(-2, 2, size=(5, 2))
    h = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    rows = np.stack([f3(v, hv) for v, hv in zip(y, h)])
    assert np.allclose(f3(y, h), rows, atol=1e-15)


def test_truncation_terms_shape(pendulum, rng):
    f4 = truncated_field(pendulum, "euler", 4)
    y = rng.uniform(-2, 2, size=(7, 2))
    assert f4.terms(y).shape == (3, 7, 2)


def test_truncation_unsupported(pendulum):
    with pytest.raises(UnsupportedTruncationError):
        truncated_field(pendulum, "rk2", 4)
    with pytest.raises(UnsupportedTruncationError):
        truncated_field(pendulum, "midpoint", 2)
    with pytest.raises(UnsupportedTruncationError):
        truncated_field(pendulum, "euler", 0)


def test_heun_has_no_closed_form_terms(pendulum, rng):
    # the implemented RK2 terms are explicit midpoint's; Heun's differ, so
    # only the base field (k = 1) is offered for it
    assert max_truncation("rk2_heun") == 1
    assert max_truncation("rk2") == max_truncation("rk2_midpoint") == 3
    assert max_truncation("euler") == 5 and max_truncation("midpoint") == 0
    for k in (2, 3):
        with pytest.raises(UnsupportedTruncationError, match="rk2_heun"):
            truncated_field(pendulum, "rk2_heun", k)
    y = rng.uniform(-2, 2, size=(4, 2))
    assert np.array_equal(truncated_field(pendulum, "rk2_heun", 1)(y, 0.3),
                          pendulum(y))


def test_truncated_field_raises_order(pendulum):
    """Stepping with the k-truncated field raises Euler's order to k."""
    y0 = np.array([1.5, 0.0])
    T = 5.0
    hs = 0.1 * 2.0 ** -np.arange(4)
    ref = reference_flow(pendulum, y0, T, tol=1e-13)
    step = get_stepper("euler")
    for k in (2, 3):
        fk = truncated_field(pendulum, "euler", k)
        errs = [np.linalg.norm(
            integrate(step, fk, y0, h, round(T / h)).states[-1] - ref)
            for h in hs]
        assert order_estimate(np.array(errs), hs) == pytest.approx(k, abs=0.2)


def test_extract_first_correction_euler(pendulum):
    y = np.array([1.0, 0.0])
    got = extract_first_correction(
        "euler", pendulum, y, hs=(0.01, 0.005, 0.0025, 0.00125, 0.000625))
    assert np.max(np.abs(got - euler_term(pendulum, 1, y))) < 1e-6


def test_extract_first_correction_rk2(rigid_body):
    y = np.array([0.6, -0.4, 1.1])
    got = extract_first_correction(
        "rk2", rigid_body, y, hs=(0.08, 0.06, 0.04, 0.03, 0.02), degree=3)
    assert np.max(np.abs(got - rk2_term(rigid_body, 1, y))) < 1e-5


def test_extract_first_correction_validation(pendulum):
    y = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        extract_first_correction("euler", pendulum, y, hs=(0.01, 0.02, 0.03))
    with pytest.raises(ValueError):
        extract_first_correction("euler", pendulum, y, hs=(0.01, 0.005))


def test_extract_first_correction_conditioning_warning(pendulum):
    y = np.array([1.0, 0.0])
    clustered = (0.010000002, 0.010000001, 0.01)
    with pytest.warns(ConditioningWarning):
        extract_first_correction("euler", pendulum, y, hs=clustered)


def test_midpoint_probe_consistency(pendulum):
    """probe returns g with flow(x - h g/2, h) = x + h g/2."""
    x = np.array([1.2, 0.3])
    h = 0.2
    g = midpoint_field_probe(pendulum, x, h, tol=1e-13)
    y = x - 0.5 * h * g
    assert np.max(np.abs(reference_flow(pendulum, y, h, tol=1e-13)
                         - (x + 0.5 * h * g))) < 1e-11


def test_midpoint_probe_batch(pendulum, rng):
    x = rng.uniform(-1.5, 1.5, size=(6, 2))
    g = midpoint_field_probe(pendulum, x, 0.15)
    rows = np.stack([midpoint_field_probe(pendulum, v, 0.15) for v in x])
    assert np.allclose(g, rows, atol=1e-13)


def test_midpoint_probe_small_h_tends_to_field(pendulum):
    x = np.array([0.8, -0.6])
    g = midpoint_field_probe(pendulum, x, 1e-4)
    assert np.max(np.abs(g - pendulum(x))) < 1e-7


def test_midpoint_probe_failure(pendulum):
    with pytest.raises(FixedPointError):
        midpoint_field_probe(pendulum, np.array([1.0, 0.0]), 80.0,
                             max_iter=5)


def test_midpoint_odd_coefficients_vanish(pendulum):
    x = np.array([1.0, 0.4])
    coeffs = midpoint_odd_coefficients(
        pendulum, x, hs=(0.2, 0.16, 0.12, 0.09, 0.07, 0.05))
    assert coeffs.shape == (2, 2)
    assert np.max(np.abs(coeffs)) < 1e-6


def test_euler_odd_coefficients_do_not_vanish(pendulum):
    """Contrast case: Euler's expansion has a genuine h^1 term, so probing

    its flow the same way must produce a clearly nonzero h^3 coefficient
    through the chain of corrections.
    """
    x = np.array([1.0, 0.4])
    # reuse the probe on a field whose modified expansion is not even:
    # compare the midpoint probe of the pendulum against the truncated
    # Euler field evaluated at the same states; the difference at first
    # order is euler_term(1), far above the 1e-6 scale of the real test
    g = midpoint_field_probe(pendulum, x, 0.2)
    f2 = truncated_field(pendulum, "euler", 2)
    assert np.max(np.abs(g - f2(x, 0.2))) > 1e-3
