"""The benchmark's pipelines: inputs made from the seed, the timed calls,
and the checks on what the calls produce.

Every workload runs all ten pipelines so that every run reports every
end-to-end metric.  A workload runs its own pipelines at its "home" size
and the other workloads' pipelines at a smaller "away" size, so each
workload puts most of its time into different layers.
"""

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from modfield import bench_cli, integrators, neural, systems, training

WORKLOADS = ("train", "data", "evaluate")

# (home size, away size).  Train pipelines: (records or base states,
# epochs); generation: records; alt extraction: base states; evaluation
# commands: horizon T.  Every call takes well under a second, so a run
# gets over a dozen calls of each pipeline and its median holds still.
SIZES = {
    "train_euler3": ((2000, 8), (1000, 4)),
    "train_rk2": ((4000, 8), (2000, 4)),
    "train_midpoint": ((1000, 5), (500, 4)),
    "train_alt": ((1000, 6), (500, 4)),
    "gen_pendulum": (6000, 1000),
    "gen_rigid_body": (300, 150),
    "alt_extract": (5000, 1000),
    "compare_alt": (1.5, 0.5),
    "convergence": (1.5, 0.5),
    "efficiency": (1.5, 0.5),
}

HOME = {
    "train_euler3": "train", "train_rk2": "train", "train_midpoint": "train",
    "train_alt": "train", "gen_pendulum": "data", "gen_rigid_body": "data",
    "alt_extract": "data", "compare_alt": "evaluate",
    "convergence": "evaluate", "efficiency": "evaluate",
}

# dataset seeds a generate pipeline cycles through
GEN_SEEDS = 8

# the CLI's default start state for the pendulum commands
PENDULUM_Y0 = (1.5, 0.0)

# a generated record must match an independent DOP853 flow at 1e-13 to
# this many absolute units (the dataset is made at tol 1e-10)
FLOW_ERR_LIMIT = 1e-7


class CheckFailed(Exception):
    """A pipeline's output is wrong."""


@dataclass
class Op:
    """One timed pipeline call.

    ``run`` is the timed call.  ``keep`` turns its output into a value
    that repeated calls must reproduce exactly; it runs untimed.  ``check``
    receives every kept value and the last output, raises
    :class:`CheckFailed` when the output is wrong and returns the quality
    numbers it measured.  ``kind`` names the calibration kernel the call
    is timed against (see ``calibrate.KINDS``).  ``metric`` names the
    end-to-end metric: ``work`` per median call time, or the median call
    time when ``work`` is None.  Call times are scaled to the reference
    host speed (see ``calibrate``).
    """

    name: str
    home: str
    metric: str
    run: object
    keep: object
    check: object
    kind: str
    work: float = None


def _size(name, workload):
    home, away = SIZES[name]
    return home if HOME[name] == workload else away


def _config(preset, seed, **changes):
    return replace(training.get_preset(preset), seed=seed, print_every=0,
                   **changes)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _same(kept, what):
    _require(all(k == kept[0] for k in kept),
             f"{what} differs between repeated calls")


def _cli(argv):
    rc = bench_cli.main(argv)
    _require(rc == 0, f"modfield {argv[0]} exited with code {rc}")
    return rc


def _read_csv(path):
    """Header and rows of a CSV the CLI wrote (``#`` lines skipped)."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return header, body


def _finite_table(path, n_rows=None, skip_cols=0):
    header, body = _read_csv(path)
    values = np.array([[float(v) for v in row[skip_cols:]] for row in body])
    _require(np.all(np.isfinite(values)), f"{path.name} has non-finite values")
    if n_rows is not None:
        _require(len(body) == n_rows,
                 f"{path.name} has {len(body)} rows, expected {n_rows}")
    return header, body, values


# -- independent fields for the flow spot checks --------------------------

def _pendulum_rhs(t, y):
    return np.array([-np.sin(y[1]), y[0]])


def _rigid_body_rhs(t, y, inertia=(1.0, 2.0, 3.0)):
    i1, i2, i3 = inertia
    return np.array([(1 / i3 - 1 / i2) * y[1] * y[2],
                     (1 / i1 - 1 / i3) * y[0] * y[2],
                     (1 / i2 - 1 / i1) * y[0] * y[1]])


RHS = {"pendulum": _pendulum_rhs, "rigid_body": _rigid_body_rhs}


def exact_flow(system, y0, h):
    """Flow over time ``h`` by scipy's DOP853 at rtol = atol = 1e-13."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(RHS[system], (0.0, float(h)), np.asarray(y0, float),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise CheckFailed(f"reference flow failed: {sol.message}")
    return sol.y[:, -1]


def _flow_err(system, y0, h, y1):
    return float(np.max(np.abs(exact_flow(system, y0, h) - y1)))


def _fixed_flow_err(cfg, n=64):
    """Worst error of the routine every generated record comes from
    (``adaptive_flow_batch`` at the dataset tolerance) on ``n`` inputs drawn
    from the config's domain with a fixed seed.

    The worst error over a seeded sample of records moves by about 20%
    from seed to seed; on fixed inputs it moves only when the code does.
    """
    rng = np.random.default_rng(0)
    box = cfg.domain()
    y0 = rng.uniform(box.lower, box.upper, size=(n, box.dim))
    if box.shell is not None:
        y0 *= (rng.uniform(*box.shell, size=n)
               / np.linalg.norm(y0, axis=1))[:, None]
    h = np.exp(rng.uniform(math.log(cfg.h_min), math.log(cfg.h_max), size=n))
    y1, ok, _ = integrators.adaptive_flow_batch(
        systems.get_system(cfg.system), y0, h, cfg.tol, cfg.tol)
    _require(ok.all(), "exact-flow routine failed on a fixed input")
    return max(_flow_err(cfg.system, *row) for row in zip(y0, h, y1))


def _mlp(net, x):
    """Plain tanh MLP forward pass, written apart from modfield's."""
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        x = x @ w.T + b
        if i < last:
            x = np.tanh(x)
    return x


def _mse(net, x, t):
    return float(np.mean(np.sum((_mlp(net, x) - t) ** 2, axis=-1)))


# -- train pipelines --------------------------------------------------------

def _train_op(name, preset, workload, seed):
    records, epochs = _size(name, workload)
    cfg = _config(preset, seed, n_records=records, epochs=epochs)
    ds = training.generate_dataset(cfg)
    train_set, test_set = training.split_dataset(ds, cfg.train_fraction,
                                                 cfg.seed)
    model0 = neural.init_model(systems.get_system(cfg.system), cfg.scheme,
                               cfg.p, cfg.n_terms, cfg.hidden, cfg.seed)

    def run():
        _, report = training.train(model0.copy(), cfg.scheme, train_set,
                                   test_set, cfg)
        return report.initial_train, tuple(report.train_losses)

    def check(kept, last):
        _same(kept, "training loss history")
        initial, losses = last
        _require(math.isfinite(initial) and all(map(math.isfinite, losses)),
                 "non-finite training loss")
        _require(losses[-1] < initial,
                 f"training loss rose from {initial:.3e} to {losses[-1]:.3e}")
        return {"loss_ratio": losses[-1] / initial}

    return Op(name, HOME[name], f"{name}.records_per_s", run,
              lambda out: out, check, "array", work=len(train_set) * epochs)


def _train_alt_op(workload, seed):
    name = "train_alt"
    states, epochs = _size(name, workload)
    cfg = _config("desk-pendulum-compare-alt", seed, n_records=states,
                  epochs=epochs)
    X, C, XR, R, steps = training.build_alt_training_data(cfg)
    model0 = neural.init_model(systems.get_system(cfg.system), cfg.scheme,
                               cfg.p, cfg.n_terms, cfg.hidden, cfg.seed)
    targets = [(X, c) for c in C] + [(XR, R)]
    nets0 = list(model0.term_nets) + [model0.remainder_net]
    # the per-term route's loss: the sum of the networks' regression losses
    initial = sum(_mse(net, x, t) for net, (x, t) in zip(nets0, targets))
    updates = epochs * sum(math.ceil(len(x) / cfg.batch_size)
                           for x, _ in targets)

    def run():
        model = model0.copy()
        nets = list(model.term_nets) + [model.remainder_net]
        _, histories = training.alt_train(nets, (X, C), (XR, R), cfg)
        return tuple(tuple(h) for h in histories)

    def check(kept, last):
        _same(kept, "regression loss history")
        final = sum(h[-1] for h in last)
        _require(math.isfinite(final), "non-finite regression loss")
        _require(final < initial,
                 f"regression loss rose from {initial:.3e} to {final:.3e}")
        return {"loss_ratio": final / initial}

    return Op(name, HOME[name], f"{name}.updates_per_s", run,
              lambda out: out, check, "array", work=updates)


# -- data pipelines ---------------------------------------------------------

def _gen_op(name, preset, workload, seed, workdir):
    """``modfield generate``, cycling through GEN_SEEDS dataset seeds made
    from ``seed``: the rigid-body sampler's work per record varies from
    seed to seed, and more distinct records per run steady the median."""
    records = _size(name, workload)
    cfg = training.get_preset(preset)
    argvs = []
    for j in range(GEN_SEEDS):
        out = workdir / f"{name}-{j}"
        out.mkdir(parents=True)
        config = workdir / f"{name}-{j}.cfg"
        config.write_text(
            f"n_records={records}\nseed={seed * GEN_SEEDS + j}\n")
        argvs.append(["generate", "--preset", preset, "--config", str(config),
                      "--out", str(out)])
    calls = itertools.count()

    def run():
        j = next(calls) % GEN_SEEDS
        _cli(argvs[j])
        return j

    def path(j):
        return Path(argvs[j][-1]) / "dataset.csv"

    def keep(j):
        return j, hashlib.sha256(path(j).read_bytes()).hexdigest()

    def check(kept, last):
        for j in range(GEN_SEEDS):
            _same([digest for k, digest in kept if k == j] or [None],
                  f"dataset.csv of seed {j}")
        _, _, values = _finite_table(path(last), n_rows=records)
        d = (values.shape[1] - 1) // 2
        sample = np.unique(np.linspace(0, records - 1, 24).round().astype(int))
        err = max(_flow_err(cfg.system, values[i, :d], values[i, d],
                            values[i, d + 1:]) for i in sample)
        _require(err <= FLOW_ERR_LIMIT,
                 f"record off the exact flow by {err:.3e}")
        return {"flow_err": _fixed_flow_err(cfg)}

    return Op(name, HOME[name], f"{name}.records_per_s", run, keep, check,
              "interpreted", work=records)


def _alt_extract_op(workload, seed):
    name = "alt_extract"
    states = _size(name, workload)
    cfg = _config("desk-pendulum-compare-alt", seed, n_records=states)

    def check(kept, last):
        _same(kept, "extracted targets")
        X, C, XR, R, steps = last
        _require(C.shape == (cfg.n_terms - 1, states, X.shape[1])
                 and R.shape == (states * len(steps), X.shape[1]),
                 "extracted targets have the wrong shape")
        _require(all(np.all(np.isfinite(a)) for a in (X, C, XR, R)),
                 "non-finite extracted targets")
        # refit a few states from independent flows
        design = steps[:, None] ** np.arange(cfg.p + 1, cfg.n_terms + cfg.p)
        for i in np.linspace(0, states - 1, 4).round().astype(int):
            x = X[i]
            defect = np.array([exact_flow("pendulum", x, h) - x
                               - h * _pendulum_rhs(0.0, x) for h in steps])
            coeffs = np.linalg.lstsq(design, defect, rcond=None)[0]
            gap = np.max(np.abs(coeffs - C[:, i])) / np.max(np.abs(coeffs))
            _require(gap <= 1e-4,
                     f"state {i}: extracted terms off by {gap:.2e}")
        return {}

    def run():
        return training.build_alt_training_data(cfg)

    def keep(out):
        return _digest(*out)

    return Op(name, HOME[name], f"{name}.states_per_s", run, keep, check,
              "interpreted", work=states)


# -- evaluate pipelines -----------------------------------------------------

def _trained_model(preset, seed, path, records=1000):
    """A small model, trained only so the evaluate commands have one."""
    cfg = _config(preset, seed, n_records=records, epochs=1)
    model = neural.init_model(systems.get_system(cfg.system), cfg.scheme,
                              cfg.p, cfg.n_terms, cfg.hidden, cfg.seed)
    if preset.endswith("-alt"):
        X, C, XR, R, _ = training.build_alt_training_data(
            replace(cfg, n_records=records // 5))
        training.alt_train(list(model.term_nets) + [model.remainder_net],
                           (X, C), (XR, R), cfg)
    else:
        ds = training.generate_dataset(cfg)
        train_set, test_set = training.split_dataset(ds, cfg.train_fraction,
                                                     cfg.seed)
        training.train(model, cfg.scheme, train_set, test_set, cfg)
    neural.save_model(model, path)
    return str(path)


def _command_op(name, workload, argv, csv_name, check_table, skip_cols=()):
    T = _size(name, workload)
    out = argv[argv.index("--out") + 1]
    path = Path(out) / csv_name
    argv = argv + ["--T", repr(T)]

    def keep(_):
        header, body = _read_csv(path)
        # timing columns are not reproducible
        return [[v for j, v in enumerate(row) if header[j] not in skip_cols]
                for row in body]

    def check(kept, last):
        _same(kept, csv_name)
        return check_table(path, T)

    return Op(name, HOME[name], f"{name}.s", lambda: _cli(argv), keep, check,
              "interpreted")


def _check_compare_alt(path, T):
    _finite_table(path, n_rows=6)
    base = systems.get_system("pendulum")
    h = 0.05  # one of the compare-alt step sizes
    times = h * np.arange(round(T / h) + 1)
    ref = systems.reference_trajectory(base, PENDULUM_Y0, times, tol=1e-12)
    tight = systems.reference_trajectory(base, PENDULUM_Y0, times, tol=1e-13)
    err = float(np.max(np.abs(ref - tight)))
    _require(err <= 1e-9, f"reference trajectory off by {err:.3e}")
    return {"ref_err": err}


def _check_convergence(path, T):
    _, _, values = _finite_table(path, n_rows=4)
    err_f = values[:, 1]
    _require(np.all(np.diff(err_f) < 0),
             "bare-field error does not fall with the step size")
    return {}


def _check_efficiency(path, T):
    _, body, values = _finite_table(path, skip_cols=1)
    methods = [row[0] for row in body]
    h0 = values[0, 0]
    err = {m: v[2] for m, v in zip(methods, values) if v[0] == h0}
    gain = err["scheme_f"] / err["scheme_trunc_k3"]
    _require(err["scheme_trunc_k3"] < err["scheme_trunc_k2"] < err["scheme_f"],
             f"truncated fields do not order the errors: {err}")
    return {"trunc_gain": gain}


def _evaluate_ops(workload, seed, workdir):
    models = workdir / "models"
    models.mkdir(parents=True)
    std, alt, mid, eul = (
        _trained_model(f"desk-pendulum-{name}", seed, models / f"{name}.json")
        for name in ("compare-std", "compare-alt", "midpoint", "euler"))
    seed_arg = ["--seed", str(seed)]
    return [
        _command_op("compare_alt", workload,
                    ["compare-alt", "--preset", "desk-pendulum-compare-std",
                     "--model-std", std, "--model-alt", alt, *seed_arg,
                     "--out", str(workdir / "compare_alt")],
                    "compare_alt.csv", _check_compare_alt),
        _command_op("convergence", workload,
                    ["convergence", "--preset", "desk-pendulum-midpoint",
                     "--model", mid, *seed_arg,
                     "--out", str(workdir / "convergence")],
                    "convergence.csv", _check_convergence),
        _command_op("efficiency", workload,
                    ["efficiency", "--preset", "desk-pendulum-euler",
                     "--model", eul, "--k-list", "2,3", "--repeats", "3",
                     *seed_arg, "--out", str(workdir / "efficiency")],
                    "efficiency.csv", _check_efficiency,
                    skip_cols=("seconds",)),
    ]


def build_ops(workload, seed, workdir):
    """Set-up: make every pipeline's inputs from the seed; return the ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True)
    return [
        _train_op("train_euler3", "desk-pendulum-compare-std", workload, seed),
        _train_op("train_rk2", "desk-pendulum-rk2", workload, seed),
        _train_op("train_midpoint", "desk-pendulum-midpoint", workload, seed),
        _train_alt_op(workload, seed),
        _gen_op("gen_pendulum", "desk-pendulum-euler", workload, seed,
                workdir),
        _gen_op("gen_rigid_body", "desk-rigid-body-euler", workload, seed,
                workdir),
        _alt_extract_op(workload, seed),
        *_evaluate_ops(workload, seed, workdir),
    ]
