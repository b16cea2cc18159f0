import json

import numpy as np
import pytest

from modfield.errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    TrainingDivergedError,
)
from modfield import _tape
from modfield.integrators import (box_grid, estimate_lipschitz, get_tableau,
                                  rk_step)
from modfield.neural import (
    AdamState,
    MIDPOINT_UNROLL,
    _layers,
    adam_update,
    init_model,
    load_model,
    mlp_forward,
    mlp_init,
    save_model,
    scheme_step,
    step_loss,
    step_loss_and_grad,
)
from modfield.systems import DomainBox, get_system
from modfield.training import Dataset


def tiny_model(base, scheme="euler", p=1, n_terms=1, hidden=(8, 8), seed=3):
    return init_model(base, scheme, p, n_terms, hidden, seed)


def test_mlp_init_glorot_bounds():
    net = mlp_init([2, 50, 50, 2], seed=0)
    assert list(net.layer_sizes) == [2, 50, 50, 2]
    for w, b in zip(net.weights, net.biases):
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.max(np.abs(w)) <= limit
        assert np.count_nonzero(b) == 0
    again = mlp_init([2, 50, 50, 2], seed=0)
    for w1, w2 in zip(net.weights, again.weights):
        assert np.array_equal(w1, w2)


@pytest.mark.parametrize("sizes", [[2, 0, 2], [2, 0, 0, 2], [2, 50, -1, 2],
                                   [2]])
def test_mlp_init_rejects_a_zero_width(sizes):
    # a zero width would divide by zero in the Glorot limit
    with pytest.raises(ValueError, match="positive layer sizes"):
        mlp_init(sizes, seed=0)


def test_mlp_parameter_count():
    # 2*200+200 + 200*200+200 + 200*2+2
    assert mlp_init([2, 200, 200, 2], seed=1).vector.size == 41_202


def test_mlp_forward_batch_and_input_guard():
    net = mlp_init([2, 8, 8, 2], seed=4)
    x = np.random.default_rng(0).standard_normal((11, 2))
    batched = mlp_forward(net, x)
    rows = np.stack([mlp_forward(net, v) for v in x])
    # batched matmul may differ from row-at-a-time in the last bits
    assert np.allclose(batched, rows, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        mlp_forward(net, np.zeros((3, 5)))


class _KeptCopies(list):
    """A ``keep`` list that also snapshots each array as it is kept."""

    def __init__(self):
        super().__init__()
        self.copies = []

    def append(self, a):
        super().append(a)
        self.copies.append(a.copy())


def _out_of_place_layers(net, x, keep):
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        keep.append(x)
        x = x @ w.T + b
        if i < last:
            x = np.tanh(x)
    return x


@pytest.mark.parametrize("rows", [1, 100, 800, 5000])
@pytest.mark.parametrize("sizes", [[2, 50, 50, 2], [3, 50, 50, 2]])
def test_layers_in_place_keep_every_bit(rows, sizes):
    """The in-place bias and tanh give the out-of-place pass's bits and
    write neither the input nor any kept layer input."""
    net = mlp_init(sizes, seed=[rows, sizes[0]])
    x = np.random.default_rng(rows).uniform(-2.0, 2.0, size=(rows, sizes[0]))
    x_before = x.copy()
    keep, ref_keep = _KeptCopies(), []
    out = _layers(net, x, keep)
    ref = _out_of_place_layers(net, x, ref_keep)
    assert np.array_equal(x, x_before)
    assert keep[0] is x and len(keep) == len(net.weights)
    for kept, snapshot, want in zip(keep, keep.copies, ref_keep):
        assert kept.tobytes() == snapshot.tobytes() == want.tobytes()
    assert out.tobytes() == ref.tobytes()
    assert _layers(net, x).tobytes() == ref.tobytes()


def test_mlp_output_layer_is_affine():
    # zeroing the hidden weights exposes the output bias directly
    net = mlp_init([2, 4, 2], seed=2)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = (0.3, -0.7)
    assert np.allclose(mlp_forward(net, np.zeros((5, 2))), [0.3, -0.7])


def test_zero_model_reduces_to_base(pendulum, rng):
    model = tiny_model(pendulum)
    for p_ in model.parameters():
        p_[:] = 0.0
    y = rng.uniform(-2, 2, size=(9, 2))
    assert np.array_equal(model(y, 0.4), pendulum(y))


def test_model_call_requires_step(pendulum):
    model = tiny_model(pendulum)
    with pytest.raises(ValueError):
        model(np.zeros(2))
    with pytest.raises(ValueError):
        model.eval(np.zeros(2), -0.1)
    # the Jacobian checks its step as the evaluation does
    box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="needs a step h"):
        estimate_lipschitz(model, box, 3)
    with pytest.raises(ValueError, match="step h must be >= 0"):
        model.jacobian(np.zeros(2), -0.1)


def test_model_refuses_a_nan_step(pendulum):
    model = tiny_model(pendulum, n_terms=2)
    y = np.array([[1.0, 0.0], [0.5, -0.5]])
    for h in (float("nan"), np.float64("nan"), np.array(np.nan),
              np.array([0.1, np.nan])):
        with pytest.raises(ValueError, match="step h must be >= 0, got nan"):
            model(y, h)
        with pytest.raises(ValueError, match="step h must be >= 0, got nan"):
            model.eval(y, h, [])
    with pytest.raises(ValueError, match="step h must be >= 0, got nan"):
        model(y[0], float("nan"))
    with pytest.raises(ValueError, match="step h must be >= 0, got -0.5"):
        model(y, np.array([0.1, -0.5]))
    with pytest.raises(ValueError, match="step h must be >= 0, got nan"):
        model.jacobian(y, float("nan"))


def test_model_step_weighting(pendulum, rng):
    """Term nets enter at h^p, h^{p+1}, ...; remainder at h^{n_t+p-1}."""
    model = init_model(pendulum, "euler", p=1, n_terms=3, hidden=(6,), seed=9)
    y = rng.uniform(-1, 1, size=(4, 2))
    h = 0.3
    from modfield.neural import mlp_forward as fwd

    hcol = np.full((4, 1), h)
    expect = (pendulum(y)
              + h * fwd(model.term_nets[0], y)
              + h ** 2 * fwd(model.term_nets[1], y)
              + h ** 3 * fwd(model.remainder_net,
                             np.concatenate([y, hcol], axis=1)))
    assert np.allclose(model(y, h), expect, atol=1e-15)


def test_model_parameters_round_trip(pendulum):
    model = tiny_model(pendulum)
    params = [p.copy() for p in model.parameters()]
    clone = model.copy()
    for p_ in clone.parameters():
        p_ += 1.0
    # copies must not alias the original storage
    for a, b in zip(model.parameters(), params):
        assert np.array_equal(a, b)
    for q, a in zip(clone.parameters(), params):
        q[...] = a
    for a, b in zip(clone.parameters(), model.parameters()):
        assert np.array_equal(a, b)


def test_parameters_are_views_of_theta(pendulum):
    model = tiny_model(pendulum, n_terms=3)
    params = model.parameters()
    assert model.theta.dtype == np.float64 and model.theta.ndim == 1
    assert model.theta.size == sum(q.size for q in params)
    assert np.array_equal(np.concatenate([q.ravel() for q in params]),
                          model.theta)
    model.theta[:] = 0.0
    assert all(np.count_nonzero(q) == 0 for q in params)


@pytest.mark.parametrize("h", [0.1, 0.7])
@pytest.mark.parametrize("n_terms", [1, 3])
def test_learned_field_jacobian_matches_central_differences(pendulum, n_terms,
                                                            h):
    model = tiny_model(pendulum, n_terms=n_terms, seed=41)
    # nonzero biases too: Glorot initialisation leaves them at zero
    model.theta += np.random.default_rng(41).normal(0.0, 0.3,
                                                    model.theta.size)
    box = DomainBox(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    y = box_grid(box, 5)
    jac = model.jacobian(y, h)
    assert jac.shape == (25, 2, 2)
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd = (model.eval(y + e, h) - model.eval(y - e, h)) / (2 * eps)
        assert np.allclose(jac[:, :, j], fd, rtol=1e-7, atol=1e-8)
    assert estimate_lipschitz(model, box, 5, h=h) == \
        np.max(np.sum(np.abs(jac), axis=-1))


def test_scheme_step_euler_formula(pendulum, rng):
    model = tiny_model(pendulum)
    y = rng.uniform(-1, 1, size=(6, 2))
    h = 0.21
    assert np.allclose(scheme_step(model, "euler", y, h),
                       y + h * model(y, h), atol=1e-15)


@pytest.mark.parametrize("scheme, p, atol", [
    ("euler", 1, 0.0), ("rk2_midpoint", 2, 0.0), ("rk2_heun", 2, 1e-15)])
def test_scheme_step_matches_rk_step(pendulum, rng, scheme, p, atol):
    model = tiny_model(pendulum, scheme, p=p, n_terms=2)
    y = rng.uniform(-1, 1, size=(6, 2))
    got = scheme_step(model, scheme, y, 0.3)
    want = rk_step(get_tableau(scheme), model, y, 0.3)
    if atol == 0.0:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=0, atol=atol)


def test_scheme_step_midpoint_unroll_converges(pendulum):
    model = tiny_model(pendulum)
    y = np.array([[1.0, 0.2]])
    h = 0.1
    got = scheme_step(model, "midpoint", y, h)
    # the fixed unroll should agree with a fully converged solve
    z = y
    for _ in range(400):
        z = y + h * model.eval(0.5 * (y + z), np.array([h]))
    assert np.max(np.abs(got - z)) < 1e-12
    assert MIDPOINT_UNROLL == 10


def test_scheme_step_per_record_steps(pendulum, rng):
    model = tiny_model(pendulum)
    y = rng.uniform(-1, 1, size=(5, 2))
    h = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    rows = np.stack([scheme_step(model, "rk2", y[i:i + 1], h[i])[0]
                     for i in range(5)])
    assert np.allclose(scheme_step(model, "rk2", y, h), rows, atol=1e-14)


def _synthetic_batch(base, model, n, seed, h_range=(0.1, 0.5)):
    rng = np.random.default_rng(seed)
    d = base.dim
    y0 = rng.uniform(-1.5, 1.5, size=(n, d))
    h = rng.uniform(*h_range, size=n)
    y1 = scheme_step(model, "euler", y0, h) + 1e-3 * rng.standard_normal((n, d))
    return Dataset(y0, h, y1)


def test_step_loss_known_value(pendulum):
    model = tiny_model(pendulum)
    for p_ in model.parameters():
        p_[:] = 0.0
    # with zero nets the Euler step is y0 + h f(y0); choose y1 to offset it
    y0 = np.array([1.0, 0.0])
    h = 0.5
    y1 = y0 + h * pendulum(y0) + np.array([0.1, -0.2])
    loss = step_loss(model, "euler", Dataset(y0, h, y1))
    expect = h ** -4 * (0.1 ** 2 + 0.2 ** 2)
    assert loss == pytest.approx(expect, rel=1e-14)


def test_step_loss_permutation_invariant(pendulum):
    model = tiny_model(pendulum)
    batch = _synthetic_batch(pendulum, model, 64, seed=5)
    a = step_loss(model, "euler", batch)
    b = step_loss(model, "euler", batch.subset(np.arange(64)[::-1]))
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("scheme", ["euler", "rk2", "rk2_heun", "midpoint"])
def test_gradients_match_finite_differences(scheme):
    p = 1 if scheme == "euler" else 2
    # on the rigid body (d = 3) the base field's vector-Jacobian product
    # multiplies state columns
    for system in ("pendulum", "rigid_body"):
        base = get_system(system)
        for n_terms in (1, 3):
            model = init_model(base, scheme, p, n_terms, (8, 8), seed=11)
            batch = _synthetic_batch(base, model, 16, seed=13)
            loss, grad = step_loss_and_grad(model, scheme, batch)
            assert loss == pytest.approx(step_loss(model, scheme, batch),
                                         rel=1e-12)
            assert grad.shape == model.theta.shape
            rng = np.random.default_rng(17)
            eps = 1e-6
            # entries of theta itself: the layer views the forward pass reads
            for i in rng.integers(model.theta.size, size=12):
                keep = model.theta[i]
                model.theta[i] = keep + eps
                up = step_loss(model, scheme, batch)
                model.theta[i] = keep - eps
                dn = step_loss(model, scheme, batch)
                model.theta[i] = keep
                fd = (up - dn) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)


@pytest.mark.parametrize("scheme, p, passes", [
    ("euler", 1, 1), ("rk2", 2, 2), ("midpoint", 2, MIDPOINT_UNROLL)])
def test_tape_has_one_leaf_per_net_and_one_node_per_pass(pendulum, scheme,
                                                         p, passes):
    # the step records one vector-Jacobian product per field evaluation,
    # and the reverse sweep over them is the training gradient
    model = init_model(pendulum, scheme, p, 3, (8, 8), seed=11)
    batch = _synthetic_batch(pendulum, model, 16, seed=13)
    y0, h, y1 = batch.y0, batch.h, batch.y1
    vjps = []
    pred = scheme_step(model, scheme, y0, h, vjps)
    assert np.array_equal(pred, scheme_step(model, scheme, y0, h))
    resid = pred - y1
    assert len(vjps) == passes
    w = h ** (-(2 * p + 2))
    g = (2.0 / len(batch)) * w[:, None] * resid
    if scheme == "midpoint":
        # Picard stages: evaluation m reads y0 + (h/2) k_{m-1}
        a = np.diag(np.full(passes - 1, 0.5), -1)
        b = np.eye(passes)[-1]
    else:
        tab = get_tableau(scheme)
        a, b = tab.a, tab.b
    got = _tape.backward(a, b, h[:, None], vjps, g)
    _, grad = step_loss_and_grad(model, scheme, batch)
    assert np.array_equal(got, grad)


@pytest.mark.parametrize("system", ["pendulum", "rigid_body"])
@pytest.mark.parametrize("n_terms", [1, 3])
def test_field_node_state_gradient_is_the_jacobian_product(system, n_terms):
    base = get_system(system)
    model = init_model(base, "euler", 1, n_terms, (8, 8), seed=29)
    rng = np.random.default_rng(29)
    model.theta += rng.normal(0.0, 0.3, model.theta.size)
    y = rng.uniform(-1.5, 1.5, size=(12, base.dim))
    g = rng.standard_normal((12, base.dim))
    vjps = []
    assert np.array_equal(model.eval(y, 0.3, vjps), model.eval(y, 0.3))
    [vjp] = vjps
    grad, gy = vjp(g, True)
    assert grad.shape == model.theta.shape
    theta_only, no_gy = vjp(g, False)
    assert np.array_equal(theta_only, grad) and no_gy is None
    want = np.einsum("bi,bij->bj", g, model.jacobian(y, 0.3))
    assert np.allclose(gy, want, rtol=0, atol=1e-13)


def test_gradient_divergence_names_record(pendulum):
    model = tiny_model(pendulum)
    batch = _synthetic_batch(pendulum, model, 4, seed=19)
    # blow up the output-layer bias *after* building the batch so the huge
    # term does not cancel in the residual (tanh would saturate a
    # first-layer blowup to something finite)
    model.parameters()[-1][:] = 1e200
    with pytest.raises(TrainingDivergedError) as info:
        with np.errstate(over="ignore", invalid="ignore"):
            step_loss_and_grad(model, "euler", batch)
    assert info.value.record is not None


def test_adam_first_step_is_lr():
    # with g = 1 the bias-corrected first step is exactly -lr
    p = np.zeros(3)
    g = np.ones(3)
    st = AdamState(lr=0.1)
    adam_update(p, g, st)
    assert np.allclose(p, -0.1, atol=1e-8)
    assert st.step == 1


def test_adam_weight_decay_is_decoupled():
    # zero gradient: only the decay term may move the parameter
    p = np.full(2, 4.0)
    g = np.zeros(2)
    st = AdamState(lr=0.1, weight_decay=0.5)
    adam_update(p, g, st)
    assert np.allclose(p, 4.0 - 0.1 * 0.5 * 4.0)


def test_adam_matches_reference_loop(rng):
    """Two Adam steps against a plain transcription of the update rule."""
    p0 = rng.standard_normal(5)
    g1, g2 = rng.standard_normal(5), rng.standard_normal(5)
    p = p0.copy()
    st = AdamState(lr=0.01, weight_decay=1e-2)
    adam_update(p, g1.copy(), st)
    adam_update(p, g2.copy(), st)

    theta = p0.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    for t, g in ((1, g1), (2, g2)):
        theta = theta - 0.01 * 1e-2 * theta
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        theta = theta - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(p, theta, atol=1e-15)


def test_checkpoint_round_trip(pendulum, tmp_path):
    model = init_model(pendulum, "rk2", 2, 2, (5, 7), seed=23)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.scheme == model.scheme
    assert back.p == model.p and back.n_terms == model.n_terms
    assert back.base.name == "pendulum"
    for a, b in zip(model.parameters(), back.parameters()):
        assert np.array_equal(a, b)  # bit-exact through the text format


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{this is not json")
    with pytest.raises(CheckpointFormatError):
        load_model(path)
    path.write_text(json.dumps({"nets": []}))
    with pytest.raises(CheckpointFormatError):
        load_model(path)


def test_checkpoint_rejects_future_version(pendulum, tmp_path):
    model = tiny_model(pendulum)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointVersionError):
        load_model(path)


def test_checkpoint_rejects_bad_shapes(pendulum, tmp_path):
    model = tiny_model(pendulum)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["nets"][0]["weights"][0] = [[1.0, 2.0]]  # wrong row count
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointShapeError):
        load_model(path)


def test_model_order_must_match_the_scheme(pendulum, tmp_path):
    # every term is weighted by a power of h that starts at the order p
    with pytest.raises(ValueError,
                       match="p must be the order of scheme 'euler', 1; "
                             "got 2"):
        init_model(pendulum, "euler", 2, 2, (4,), seed=0)
    path = tmp_path / "model.json"
    save_model(init_model(pendulum, "euler", 1, 2, (4,), seed=0), path)
    doc = json.loads(path.read_text())
    for key, value, message in (("p", 3, "got 3"),
                                ("scheme", "rk4", "unknown scheme 'rk4'")):
        edited = dict(doc, **{key: value})
        path.write_text(json.dumps(edited))
        with pytest.raises(CheckpointShapeError, match=message):
            load_model(path)
