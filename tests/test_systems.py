import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from modfield.errors import IntegrationFailureError
from modfield.systems import (
    DomainBox,
    VectorFieldSpec,
    get_system,
    reference_flow,
    reference_trajectory,
    system_names,
)
from modfield.training import TrainConfig, generate_dataset


def blowup_field():
    """y' = y^2 blows up at t = 1/y0; handy for failure-path tests."""
    return VectorFieldSpec(name="blowup", dim=1,
                           component_fn=lambda c: (c[0] * c[0],))


def test_registry():
    assert set(system_names()) == {"pendulum", "rigid_body"}
    with pytest.raises(ValueError, match="unknown system"):
        get_system("drunken_sailor")


def test_pendulum_field_values(pendulum):
    # y' = (-sin(angle), velocity) with state (velocity, angle)
    assert np.allclose(pendulum(np.array([1.5, 0.0])), [0.0, 1.5])
    y = np.array([0.2, math.pi / 2])
    assert np.allclose(pendulum(y), [-1.0, 0.2])


def test_pendulum_energy(pendulum):
    H = pendulum.invariants["energy"]
    # H = v^2/2 + (1 - cos q), zero at rest hanging straight down
    assert H(np.array([0.0, 0.0])) == pytest.approx(0.0)
    assert H(np.array([2.0, math.pi])) == pytest.approx(4.0)


def test_rigid_body_field_antisymmetry(rigid_body):
    # Euler equations: f(y).y = 0 (energy orthogonality in these coords)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((40, 3))
    f = rigid_body(y)
    casimir_rate = np.sum(f * y, axis=1)
    assert np.max(np.abs(casimir_rate)) < 1e-14


def test_batched_call_matches_loop(pendulum, rng):
    y = rng.uniform(-2, 2, size=(17, 2))
    batched = pendulum(y)
    rows = np.stack([pendulum(v) for v in y])
    assert np.array_equal(batched, rows)


def test_dim_mismatch_raises(pendulum):
    with pytest.raises(ValueError):
        pendulum(np.zeros(3))


def test_negated_field(pendulum, rng):
    rev = pendulum.negated()
    y = rng.uniform(-2, 2, size=(9, 2))
    assert np.array_equal(rev(y), -pendulum(y))
    assert rev.name.endswith("_reversed")


def test_box_validation():
    with pytest.raises(ValueError):
        DomainBox(lower=[0.0, 0.0], upper=[1.0, 0.0])
    with pytest.raises(ValueError):
        DomainBox(lower=[0.0], upper=[1.0, 1.0])
    with pytest.raises(ValueError):
        DomainBox(lower=[-1.0, -1.0], upper=[1.0, 1.0], shell=(0.5, 0.2))
    # shell entirely outside the reachable norm range
    with pytest.raises(ValueError):
        DomainBox(lower=[-1.0, -1.0], upper=[1.0, 1.0], shell=(10.0, 11.0))


def sampled_states(**kw):
    """Start states of a dataset: the domain sampler that training uses.

    Short steps at a loose tolerance keep the exact flows cheap; they do
    not touch the per-record draws of the states.
    """
    cfg = TrainConfig(h_min=0.01, h_max=0.02, tol=1e-6, **kw)
    return cfg.domain(), generate_dataset(cfg).y0


def test_sample_domain_box_and_determinism():
    box, a = sampled_states(omega_lower=(-2.0, 0.0), omega_upper=(2.0, 1.0),
                            n_records=500, seed=42)
    _, b = sampled_states(omega_lower=(-2.0, 0.0), omega_upper=(2.0, 1.0),
                          n_records=500, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (500, 2)
    assert np.all(a >= box.lower) and np.all(a <= box.upper)
    assert sampled_states(n_records=0, seed=1)[1].shape == (0, 2)


def test_sample_domain_shell():
    box, pts = sampled_states(
        system="rigid_body", omega_lower=(-2.0,) * 3, omega_upper=(2.0,) * 3,
        omega_shell=(0.98, 1.02), n_records=300, seed=7)
    assert pts.shape == (300, 3)
    assert np.all(pts >= box.lower) and np.all(pts <= box.upper)
    r = np.linalg.norm(pts, axis=1)
    assert np.all((r >= 0.98) & (r <= 1.02))


def test_sample_domain_uniform_marginals():
    # componentwise Kolmogorov-Smirnov against uniform, 1% critical value
    K = 10_000
    box, pts = sampled_states(omega_lower=(-2.0, -2.0),
                              omega_upper=(2.0, 2.0), n_records=K, seed=11)
    crit = 1.628 / math.sqrt(K)
    for j in range(2):
        u = np.sort((pts[:, j] - box.lower[j]) / (box.upper[j] - box.lower[j]))
        grid = np.arange(1, K + 1) / K
        ks = max(np.max(np.abs(grid - u)), np.max(np.abs(u - (grid - 1 / K))))
        assert ks < crit


def test_reference_flow_against_scipy(pendulum):
    y0 = np.array([1.5, 0.0])
    t_end = 3.7
    mine = reference_flow(pendulum, y0, t_end, tol=1e-12)
    sol = solve_ivp(lambda t, y: pendulum(y), (0.0, t_end), y0,
                    method="DOP853", rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(mine - sol.y[:, -1])) < 1e-8


def test_reference_flow_zero_time(pendulum):
    y0 = np.array([0.3, -1.2])
    assert np.array_equal(reference_flow(pendulum, y0, 0.0), y0)


def test_reference_trajectory_consistency(pendulum):
    y0 = np.array([1.5, 0.0])
    times = np.array([0.5, 1.0, 2.5])
    traj = reference_trajectory(pendulum, y0, times, tol=1e-12)
    for t, row in zip(times, traj):
        assert np.max(np.abs(row - reference_flow(pendulum, y0, t))) < 1e-9


def test_reference_trajectory_validation(pendulum):
    y0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        reference_trajectory(pendulum, y0, [1.0, 1.0])
    with pytest.raises(ValueError):
        reference_trajectory(pendulum, y0, [-1.0, 1.0])


def test_reference_flow_failure_reports_time():
    # finite-time blowup at t = 0.5 for y0 = 2
    with pytest.raises(IntegrationFailureError) as info:
        reference_flow(blowup_field(), np.array([2.0]), 1.0)
    assert info.value.t_reached is not None
    assert 0.4 < info.value.t_reached <= 0.55


def test_rigid_body_invariants_along_flow(rigid_body):
    y0 = np.array([math.cos(1.1), 0.0, math.sin(1.1)])
    times = np.linspace(0.25, 10.0, 40)
    traj = reference_trajectory(rigid_body, y0, times, tol=1e-10)
    for fn in rigid_body.invariants.values():
        assert np.max(np.abs(fn(traj) - fn(y0))) < 1e-8
