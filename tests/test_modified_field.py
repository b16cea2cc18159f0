from fractions import Fraction

import numpy as np
import pytest

from modfield.errors import FixedPointError, UnsupportedTruncationError
from modfield.integrators import get_stepper, integrate, order_estimate
from modfield.jets import directional_derivative
from modfield.modified_field import (TREES, _b_series, _gamma, _order,
                                     _sigma, max_truncation, truncated_field)
from modfield.systems import get_system, reference_trajectory
from oracles import (
    ConditioningWarning,
    extract_first_correction,
    midpoint_field_probe,
    midpoint_odd_coefficients,
)


# frozen correction terms at the pendulum point (1, 0)
EULER_AT_10 = {1: (-0.5, 0.0), 2: (0.0, -1.0 / 6.0), 3: (1.0 / 12.0, 0.0)}
RK2_AT_10 = {1: (0.0, -1.0 / 6.0), 2: (-1.0 / 8.0, 0.0)}
HEUN_AT_10 = {1: (0.0, -1.0 / 6.0), 2: (-1.0 / 8.0, 0.0), 3: (0.0, 0.1)}
MIDPOINT_AT_10 = {1: (0.0, 1.0 / 12.0), 2: (0.0, 0.0),
                  3: (0.0, 1.0 / 160.0)}


def terms_at(base, scheme, y, n):
    """Correction terms ``f^[1..n]`` of ``scheme`` at ``y``."""
    return truncated_field(base, scheme, n + 1).terms(y)


def test_euler_terms_frozen_values(pendulum):
    got = terms_at(pendulum, "euler", np.array([1.0, 0.0]), 3)
    for j, expect in EULER_AT_10.items():
        assert np.allclose(got[j - 1], expect, atol=1e-14)


def test_rk2_terms_frozen_values(pendulum):
    got = terms_at(pendulum, "rk2", np.array([1.0, 0.0]), 2)
    for j, expect in RK2_AT_10.items():
        assert np.allclose(got[j - 1], expect, atol=1e-14)


@pytest.mark.parametrize("scheme, frozen", [("rk2_heun", HEUN_AT_10),
                                            ("midpoint", MIDPOINT_AT_10)])
def test_heun_and_midpoint_terms_frozen_values(pendulum, scheme, frozen):
    got = terms_at(pendulum, scheme, np.array([1.0, 0.0]), len(frozen))
    for j, expect in frozen.items():
        assert np.allclose(got[j - 1], expect, atol=1e-14)


def test_tree_counts():
    assert [len(trees) for trees in TREES] == [1, 1, 2, 4, 9]
    assert all(_order(t) == n for n, trees in enumerate(TREES, start=1)
               for t in trees)


def test_euler_table_is_the_exact_flow():
    # Euler's step has no term beyond h f, so the modified field carries
    # the whole flow: b = 1/gamma
    b = _b_series("euler")
    assert len(b) == 17
    assert all(b[t] == Fraction(1, _gamma(t)) for t in b)


def test_midpoint_table_vanishes_on_even_orders():
    b = _b_series("midpoint")
    assert all(b[t] == 0 for t in TREES[1] + TREES[3])
    assert any(b[t] != 0 for t in TREES[2] + TREES[4])


def test_order_three_tables_are_the_closed_forms():
    bushy, tall = TREES[2]  # [.,.] gives f''(f,f), [[.]] gives f'f'f
    assert (bushy, tall) == (((), ()), (((),),))

    def coeffs(scheme):
        b = _b_series(scheme)
        return b[bushy] / _sigma(bushy), b[tall] / _sigma(tall)

    assert coeffs("euler") == (Fraction(1, 6), Fraction(1, 6))
    assert coeffs("midpoint") == (Fraction(1, 24), Fraction(-1, 12))
    assert coeffs("rk2_heun") != coeffs("rk2_midpoint")


def test_term_batching(pendulum, rng):
    y = rng.uniform(-2, 2, size=(12, 2))
    for scheme in ("euler", "rk2", "rk2_heun", "midpoint"):
        batched = terms_at(pendulum, scheme, y, 2)
        rows = np.stack([terms_at(pendulum, scheme, v, 2) for v in y], axis=1)
        assert np.array_equal(batched, rows), scheme


def test_term_argument_guards(pendulum):
    # one cap for every scheme: the last term needs the trees of
    # p + k - 1 <= 5 vertices
    caps = {"euler": 5, "rk2": 4, "rk2_heun": 4, "midpoint": 4, "dopri5": 1}
    for scheme, k_max in caps.items():
        assert max_truncation(scheme) == k_max
        assert truncated_field(pendulum, scheme, k_max).k == k_max
        with pytest.raises(UnsupportedTruncationError, match=f"k={k_max + 1}"):
            truncated_field(pendulum, scheme, k_max + 1)
    with pytest.raises(ValueError, match="step h"):
        truncated_field(pendulum, "rk2", 2).components((1.0, 0.0))
    with pytest.raises(ValueError, match="step h"):
        truncated_field(pendulum, "euler", 3)(np.array([1.0, 0.0]), None)


def test_truncated_field_rejects_a_state_of_the_wrong_size(pendulum):
    # the pendulum's components read two values: a third would be ignored
    # and a missing one would fail by index
    for k in (1, 2, 3):
        field = truncated_field(pendulum, "euler", k)
        for y in (np.array([1.0, 0.0, 0.5]), np.array([[1.0, 0.0, 0.5]] * 4),
                  np.array([1.0]), np.array([[1.0]] * 4)):
            n = y.shape[-1]
            with pytest.raises(ValueError,
                               match=f"last dimension {n}, expected 2"):
                field(y, 0.1)


def test_truncation_k1_is_base_field(pendulum, rng):
    f1 = truncated_field(pendulum, "euler", 1)
    y = rng.uniform(-2, 2, size=(6, 2))
    assert np.array_equal(f1(y, 0.3), pendulum(y))


def test_truncation_k1_has_no_terms(pendulum, rng):
    y = rng.uniform(-2, 2, size=(6, 2))
    f1 = truncated_field(pendulum, "euler", 1)
    assert f1.terms(y).shape == (0, 6, 2)
    assert f1.terms(y[0]).shape == (0, 2)


def test_truncation_k2_formula(pendulum, rng):
    f2 = truncated_field(pendulum, "euler", 2)
    y = rng.uniform(-2, 2, size=(6, 2))
    h = 0.2
    expect = pendulum(y) + h * f2.terms(y)[0]
    assert np.allclose(f2(y, h), expect, atol=1e-15)
    # rk2 has p = 2: correction enters at h^2
    g2 = truncated_field(pendulum, "rk2", 2)
    expect = pendulum(y) + h * h * g2.terms(y)[0]
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
        truncated_field(pendulum, "rk2", 5)
    with pytest.raises(UnsupportedTruncationError):
        truncated_field(pendulum, "midpoint", 5)
    with pytest.raises(UnsupportedTruncationError):
        truncated_field(pendulum, "euler", 6)
    with pytest.raises(UnsupportedTruncationError):
        truncated_field(pendulum, "euler", 0)


def test_heun_terms_differ_from_explicit_midpoint(rigid_body):
    # both RK2 tableaus have order 2 but different error constants, so
    # their first terms differ; Heun's matches its own extracted term
    y = np.array([0.6, -0.4, 1.1])
    heun = terms_at(rigid_body, "rk2_heun", y, 1)[0]
    mid = terms_at(rigid_body, "rk2_midpoint", y, 1)[0]
    assert np.max(np.abs(heun - mid)) > 1e-3
    got = extract_first_correction(
        "rk2_heun", rigid_body, y, hs=(0.08, 0.06, 0.04, 0.03, 0.02), degree=3)
    assert np.max(np.abs(got - heun)) < 1e-5


def test_truncated_field_raises_order(pendulum):
    """Stepping with the k-truncated field raises Euler's order to k."""
    y0 = np.array([1.5, 0.0])
    T = 5.0
    hs = 0.1 * 2.0 ** -np.arange(4)
    ref = reference_trajectory(pendulum, y0, [T], tol=1e-13)[-1]
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
    assert np.max(np.abs(got - terms_at(pendulum, "euler", y, 1)[0])) < 1e-6


def test_extract_first_correction_rk2(rigid_body):
    y = np.array([0.6, -0.4, 1.1])
    got = extract_first_correction(
        "rk2", rigid_body, y, hs=(0.08, 0.06, 0.04, 0.03, 0.02), degree=3)
    assert np.max(np.abs(got - terms_at(rigid_body, "rk2", y, 1)[0])) < 1e-5


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
    flow = reference_trajectory(pendulum, y, [h], tol=1e-13)[-1]
    assert np.max(np.abs(flow - (x + 0.5 * h * g))) < 1e-11


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
    # order is the Euler f^[1], far above the 1e-6 scale of the real test
    g = midpoint_field_probe(pendulum, x, 0.2)
    f2 = truncated_field(pendulum, "euler", 2)
    assert np.max(np.abs(g - f2(x, 0.2))) > 1e-3


def test_midpoint_terms_match_probe(pendulum):
    """The closed-form midpoint field f + h^2 f^[1] + h^4 f^[3] meets the
    probed modified field up to O(h^6); the odd term f^[2] vanishes."""
    x = np.array([[1.0, 0.4], [0.3, -0.8]])
    f4 = truncated_field(pendulum, "midpoint", 4)
    assert np.max(np.abs(f4.terms(x)[1])) < 1e-15
    hs = (0.4, 0.2, 0.1)
    gaps = [np.max(np.abs(midpoint_field_probe(pendulum, x, h, tol=1e-14)
                          - f4(x, h))) for h in hs]
    assert order_estimate(np.array(gaps), np.array(hs)) == pytest.approx(
        6.0, abs=0.2)


def test_truncated_field_differentiates_through_jets(pendulum, rng):
    # the terms' nested jets run inside the jets of an enclosing
    # derivative; mixing the levels would break this Jacobian-vector product
    y = rng.uniform(-1, 1, size=(3, 2))
    v = rng.uniform(-1, 1, size=(3, 2))
    for scheme in ("rk2", "rk2_heun", "midpoint"):
        f3 = truncated_field(pendulum, scheme, 3)
        jvp = directional_derivative(f3, y, v, 0.3)
        fd = (f3(y + 1e-5 * v, 0.3) - f3(y - 1e-5 * v, 0.3)) / 2e-5
        assert np.max(np.abs(jvp - fd)) < 1e-8, scheme
