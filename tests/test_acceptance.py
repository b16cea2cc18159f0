"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single ``criterion N (...): PASS/FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they appear
(they are also shown with ``-rA``).  The heaviest fixtures are the desk
training run (criterion 5, ~20 s) and the standard-versus-per-term
comparison pipeline (criterion 7, a few minutes single-threaded); the
tests over ~10 s carry the ``slow`` marker, so ``pytest -m "not slow"``
skips them.
"""

import numpy as np
import pytest

from modfield.bench_cli import main as bench_main
from modfield.integrators import (
    ErrorBoundInputs,
    estimate_lipschitz,
    get_stepper,
    get_tableau,
    integrate,
    order_estimate,
    theorem_bound,
)
from modfield.modified_field import truncated_field
from modfield.neural import init_model, step_loss, step_loss_and_grad
from modfield.systems import get_system, reference_trajectory
from modfield.training import (
    Dataset,
    TrainConfig,
    alt_extract_targets,
    generate_dataset,
    get_preset,
    learning_error_delta,
    save_config,
    split_dataset,
    train,
)
from oracles import extract_first_correction, midpoint_odd_coefficients

Y0 = np.array([1.5, 0.0])


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed {tail}"


def max_traj_error(states, ref):
    return float(np.max(np.linalg.norm(states - ref, axis=-1)))


def global_error(field, scheme, h, T, system=None):
    system = system if system is not None else field
    n = round(T / h)
    ref = reference_trajectory(system, Y0, h * np.arange(n + 1), tol=1e-12)
    states = integrate(get_stepper(scheme), field, Y0, h, n).states
    return max_traj_error(states, ref)


@pytest.fixture(scope="module")
def order_refs():
    # reference trajectories shared by the order measurements
    pend = get_system("pendulum")
    hs = 0.1 * 2.0 ** -np.arange(5)
    refs = {}
    for h in hs:
        n = round(10.0 / h)
        refs[h] = reference_trajectory(pend, Y0, h * np.arange(n + 1),
                                       tol=1e-12)
    return hs, refs


def measured_order(field, scheme, hs, refs):
    stepper = get_stepper(scheme)
    errs = [max_traj_error(integrate(stepper, field, Y0, h,
                                     round(10.0 / h)).states, refs[h])
            for h in hs]
    return order_estimate(errs, hs)


def test_criterion_1_base_scheme_orders(pendulum, order_refs):
    hs, refs = order_refs
    got = {s: measured_order(pendulum, s, hs, refs)
           for s in ("euler", "rk2", "midpoint")}
    want = {"euler": 1.0, "rk2": 2.0, "midpoint": 2.0}
    ok = all(abs(got[s] - want[s]) <= 0.15 for s in want)
    report(1, "base-scheme orders", ok,
           ", ".join(f"{s}={got[s]:.3f}" for s in got))


@pytest.mark.slow
def test_criterion_2_order_raising(pendulum, order_refs):
    hs, refs = order_refs
    # midpoint k=2 gains two orders: its odd term f^[2] vanishes
    cases = [("euler", 2, 2.0), ("euler", 3, 3.0), ("euler", 4, 4.0),
             ("rk2", 2, 3.0), ("rk2", 3, 4.0), ("rk2_heun", 2, 3.0),
             ("rk2_heun", 3, 4.0), ("midpoint", 2, 4.0)]
    got = {}
    for scheme, k, want in cases:
        est = measured_order(truncated_field(pendulum, scheme, k),
                             scheme, hs, refs)
        got[(scheme, k)] = (est, want)
    ok = all(abs(est - want) <= 0.2 for est, want in got.values())
    report(2, "order raising by truncated corrections", ok,
           ", ".join(f"{s}/k={k}: {est:.3f}" for (s, k), (est, _) in got.items()))


def test_criterion_3_analytic_vs_extracted_corrections():
    euler_hs = (0.01, 0.005, 0.0025, 0.00125, 0.000625)
    rk2_hs = (0.08, 0.06, 0.04, 0.03, 0.02)
    rng = np.random.default_rng(321)
    worst_euler = worst_rk2 = 0.0
    for name in ("pendulum", "rigid_body"):
        sys_ = get_system(name)
        for y in rng.uniform(-2.0, 2.0, size=(20, sys_.dim)):
            ce = extract_first_correction("euler", sys_, y, euler_hs, degree=2)
            worst_euler = max(worst_euler, np.abs(
                ce - truncated_field(sys_, "euler", 2).terms(y)[0]).max())
            cr = extract_first_correction("rk2", sys_, y, rk2_hs, degree=3)
            worst_rk2 = max(worst_rk2, np.abs(
                cr - truncated_field(sys_, "rk2", 2).terms(y)[0]).max())
    pend = get_system("pendulum")
    worst_odd = max(np.abs(midpoint_odd_coefficients(
        pend, y, (0.2, 0.16, 0.12, 0.09, 0.07, 0.05))).max()
        for y in rng.uniform(-1.5, 1.5, size=(5, 2)))
    ok = worst_euler <= 1e-6 and worst_rk2 <= 1e-5 and worst_odd <= 1e-6
    report(3, "analytic vs numerically extracted field", ok,
           f"euler {worst_euler:.2e} <= 1e-6, rk2 {worst_rk2:.2e} <= 1e-5, "
           f"midpoint odd {worst_odd:.2e} <= 1e-6")


def test_criterion_4_gradients(pendulum):
    rng = np.random.default_rng(77)
    y0s, hs, y1s = [], [], []
    for _ in range(8):
        y0 = rng.uniform(-1.5, 1.5, size=2)
        h = rng.uniform(0.1, 0.6)
        y0s.append(y0)
        hs.append(h)
        y1s.append(y0 + h * pendulum(y0) + 1e-3 * rng.normal(size=2))
    batch = Dataset(y0s, hs, y1s)
    worst = 0.0
    for scheme, p in (("euler", 1), ("rk2", 2), ("midpoint", 2)):
        model = init_model(pendulum, scheme, p, 2, (6, 6), 11)
        params = model.parameters()
        _, grads = step_loss_and_grad(model, scheme, batch)
        flat = np.concatenate([g.ravel() for g in grads])
        sizes = [q.size for q in params]
        offsets = np.cumsum([0] + sizes)
        # large enough to stay clear of roundoff in the h^(-2p) loss weights
        eps = 1e-5
        for flat_idx in rng.choice(offsets[-1], size=50, replace=False):
            k = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
            i = flat_idx - offsets[k]
            q = params[k].ravel()
            old = q[i]
            q[i] = old + eps
            up = step_loss(model, scheme, batch)
            q[i] = old - eps
            down = step_loss(model, scheme, batch)
            q[i] = old
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(flat[flat_idx]), 1e-8)
            worst = max(worst, abs(fd - flat[flat_idx]) / denom)
    ok = worst < 1e-5
    report(4, "backpropagated gradients", ok,
           f"worst relative error {worst:.2e} over 50 coordinates x 3 schemes")


@pytest.fixture(scope="module")
def desk_run():
    cfg = get_preset("desk-pendulum-euler")
    pend = get_system(cfg.system)
    ds = generate_dataset(cfg)
    train_set, test_set = split_dataset(ds, cfg.train_fraction, cfg.seed)
    model = init_model(pend, cfg.scheme, cfg.p, cfg.n_terms,
                       cfg.hidden, cfg.seed)
    model, rep = train(model, cfg.scheme, train_set, test_set, cfg)
    return cfg, model, rep


@pytest.mark.slow
def test_criterion_5_training_payoff(pendulum, desk_run):
    cfg, model, rep = desk_run
    decrease = rep.initial_train / rep.train_losses[-1]
    generalization = rep.test_losses[-1] / rep.train_losses[-1]
    bare = global_error(pendulum, "euler", 0.25, 10.0)
    learned = global_error(model, "euler", 0.25, 10.0, system=pendulum)
    ok = decrease >= 100 and generalization <= 2 and bare / learned >= 10
    report(5, "desk-scale training payoff", ok,
           f"loss fell {decrease:.0f}x, test/train {generalization:.3f}, "
           f"trajectory error improved {bare / learned:.0f}x")


@pytest.mark.slow
def test_criterion_6_error_bound(pendulum, desk_run):
    cfg, model, _ = desk_run
    box = cfg.domain()
    hs = [0.1, 0.2, 0.4]
    delta = learning_error_delta(model, truncated_field(pendulum, "euler", 4),
                                 box, 21, hs)
    lam = max(estimate_lipschitz(model, box, 21, h=h) for h in hs)
    inputs = ErrorBoundInputs(delta, lam, cfg.h_max, 5.0, get_tableau("euler"))
    rows = []
    for h in hs:
        measured = global_error(model, "euler", h, 5.0, system=pendulum)
        rows.append((h, measured, theorem_bound(inputs, h)))
    ok = all(measured <= bound for _, measured, bound in rows)
    report(6, "estimated error bound", ok,
           f"delta={delta:.3e}, lam={lam:.3f}; " +
           ", ".join(f"h={h}: {m:.2e} <= {b:.2e}" for h, m, b in rows))


@pytest.fixture(scope="module")
def compare_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("compare")
    std, alt, cmp_ = tmp / "std", tmp / "alt", tmp / "cmp"
    assert bench_main(["train", "--preset", "desk-pendulum-compare-std",
                       "--out", str(std)]) == 0
    assert bench_main(["train-alt", "--preset", "desk-pendulum-compare-alt",
                       "--out", str(alt)]) == 0
    assert bench_main(["compare-alt", "--preset", "desk-pendulum-compare-std",
                       "--model-std", str(std / "model.json"),
                       "--model-alt", str(alt / "model_alt.json"),
                       "--out", str(cmp_), "--T", "10"]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in open(cmp_ / "compare_alt.csv")
            if line.strip() and not line.startswith(("#", "h,"))]
    return np.array(rows)


@pytest.mark.slow
def test_criterion_7_per_term_route_matches_standard(pendulum, compare_runs):
    # exactness of the target extraction on data inside the model class
    rng = np.random.default_rng(99)
    steps = np.geomspace(0.1, 1.6, 5)
    worst_fit = 0.0
    for n_terms in (2, 3, 4):
        y0 = rng.uniform(-1.0, 1.0, size=2)
        cs = rng.normal(size=(n_terms - 1, 2))
        flows = np.array([y0 + h * pendulum(y0)
                          + sum(h ** (1 + j) * c
                                for j, c in enumerate(cs, 1))
                          for h in steps])
        c, r = alt_extract_targets(pendulum, y0, steps, n_terms, 1,
                                   flows=flows)
        worst_fit = max(worst_fit, np.abs(c - cs).max(initial=0.0),
                        np.abs(r).max())

    table = compare_runs  # columns: h, loc_std, loc_alt, glob_std, glob_alt
    cfg = get_preset("desk-pendulum-compare-std")
    hs = table[:, 0]
    assert hs.min() < cfg.h_min  # one probe step below the training range
    assert np.all(np.isfinite(table))
    ratios = np.concatenate([
        np.maximum(table[:, 1], table[:, 2]) / np.minimum(table[:, 1], table[:, 2]),
        np.maximum(table[:, 3], table[:, 4]) / np.minimum(table[:, 3], table[:, 4]),
    ])
    # below the training range neither route may blow up
    below, at = table[hs == hs.min()][0], table[hs == cfg.h_min][0]
    stable_below = np.all(below[1:] <= at[1:])
    ok = worst_fit <= 1e-8 and ratios.max() <= 2.0 and stable_below
    report(7, "per-term training matches standard", ok,
           f"extraction error {worst_fit:.2e}, worst error ratio "
           f"{ratios.max():.2f} over {len(hs)} step sizes")


def test_criterion_8_geometry(pendulum, rigid_body):
    h, T = 0.25, 20.0
    n = round(T / h)
    times = h * np.arange(n + 1)
    energy = pendulum.invariants["energy"]
    slopes = {}
    for scheme in ("midpoint", "euler"):
        states = integrate(get_stepper(scheme), pendulum, Y0, h, n).states
        drift = np.abs(np.array([energy(s) for s in states]) - energy(Y0))
        slopes[scheme] = abs(np.polyfit(times, drift, 1)[0])
    z0 = np.array([np.cos(1.1), 0.0, np.sin(1.1)])
    traj = reference_trajectory(rigid_body, z0, np.linspace(0.0, 20.0, 81),
                                tol=1e-12)
    worst_inv = max(abs(fn(s) - fn(z0))
                    for fn in rigid_body.invariants.values() for s in traj)
    ok = (slopes["midpoint"] < 1e-3
          and slopes["euler"] / slopes["midpoint"] >= 10
          and worst_inv <= 1e-8)
    report(8, "geometric behaviour", ok,
           f"midpoint drift slope {slopes['midpoint']:.2e}/unit, "
           f"{slopes['euler'] / slopes['midpoint']:.0f}x below euler, "
           f"rigid-body invariant drift {worst_inv:.2e}")


def test_criterion_9_determinism(tmp_path, pendulum):
    cfg = TrainConfig(n_records=50, batch_size=10, epochs=2, h_min=0.1,
                      h_max=0.5, seed=13, hidden=(6,), print_every=0)
    cfg_path = tmp_path / "micro.cfg"
    save_config(cfg, cfg_path)

    datasets, models, reports = [], [], []
    for tag in ("a", "b"):
        out = tmp_path / f"gen_{tag}"
        assert bench_main(["generate", "--config", str(cfg_path),
                           "--out", str(out)]) == 0
        datasets.append((out / "dataset.csv").read_bytes())

        ds = generate_dataset(cfg)
        tr_set, te_set = split_dataset(ds, cfg.train_fraction, cfg.seed)
        model = init_model(pendulum, cfg.scheme, cfg.p, cfg.n_terms,
                           cfg.hidden, cfg.seed)
        model, rep = train(model, cfg.scheme, tr_set, te_set, cfg)
        models.append(model)
        reports.append(rep)

    tout = tmp_path / "t"
    assert bench_main(["train", "--config", str(cfg_path),
                       "--out", str(tout)]) == 0
    conv = []
    for tag in ("a", "b"):
        out = tmp_path / f"conv_{tag}"
        assert bench_main(["convergence", "--config", str(cfg_path),
                           "--model", str(tout / "model.json"),
                           "--out", str(out), "--T", "1.0",
                           "--h-list", "0.25,0.125"]) == 0
        conv.append((out / "convergence.csv").read_bytes())

    same_dataset = datasets[0] == datasets[1]
    same_report = (reports[0].train_losses == reports[1].train_losses
                   and reports[0].test_losses == reports[1].test_losses
                   and reports[0].initial_train == reports[1].initial_train
                   and reports[0].initial_test == reports[1].initial_test)
    same_params = all(np.array_equal(a, b) for a, b in
                      zip(models[0].parameters(), models[1].parameters()))
    same_conv = conv[0] == conv[1]
    ok = same_dataset and same_report and same_params and same_conv
    report(9, "bitwise determinism", ok,
           f"dataset {same_dataset}, losses {same_report}, "
           f"parameters {same_params}, benchmark CSV {same_conv}")
