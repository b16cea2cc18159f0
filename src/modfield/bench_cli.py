"""Benchmark command-line driver.

Subcommands cover the full experiment suite: dataset generation, the two
training methods, learned-versus-analytic field error maps, convergence
and efficiency sweeps, invariant drift, a network-size study, and the
standard/alternative method comparison.  Every command writes plot-ready
CSV files plus a JSON manifest with checksums; given the same seed and
inputs, all non-timing outputs are byte-identical across reruns.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure.  The ``MODFIELD_WORKERS`` environment variable (a positive
integer, default 1) sets the worker count for parallel dataset generation
and per-term training jobs.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
from functools import partial, wraps
from pathlib import Path

import numpy as np

from . import __version__, modified_field, neural, training
from .errors import (CheckpointError, ModfieldError, TrainingDivergedError,
                     UnsupportedTruncationError)
from .integrators import box_grid, dopri5_integrate, get_stepper, integrate
from .systems import get_system, reference_trajectory

VERSION = __version__

# default simulation horizon and step per (system, scheme)
BENCH_DEFAULTS = {
    ("pendulum", "euler"): (20.0, 0.1),
    ("pendulum", "rk2_midpoint"): (20.0, 0.1),
    ("pendulum", "midpoint"): (20.0, 0.25),
    ("rigid_body", "euler"): (20.0, 0.5),
}

DEFAULT_Y0 = {
    "pendulum": (1.5, 0.0),
    "rigid_body": (np.cos(1.1), 0.0, np.sin(1.1)),
}


def _workers():
    raw = os.environ.get("MODFIELD_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"MODFIELD_WORKERS must be a positive integer, got {raw!r}")
    return workers


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_cfg(args):
    cfg = training.get_preset(args.preset) if args.preset else training.TrainConfig()
    if args.config:
        cfg = training.load_config(args.config, base=cfg)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _write_csv(path, command, seed, header, rows):
    with open(path, "w") as fh:
        fh.write(f"# command: {command}\n")
        fh.write(f"# version: {VERSION}\n")
        fh.write(f"# seed: {seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str)
                              else neural.format_exact(v) for v in row) + "\n")


def _write_manifest(outdir, command, cfg, inputs, outputs, seconds):
    doc = {
        "command": command,
        "version": VERSION,
        "seed": cfg.seed,
        "config": asdict(cfg),
        "inputs": [str(p) for p in inputs],
        "outputs": [{"path": str(p), "sha256": _sha256(p)} for p in outputs],
        "seconds": seconds,
    }
    path = outdir / f"{command}-manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _command(name):
    """Turn a body ``(args, cfg) -> (inputs, outputs)`` into a handler.

    ``outputs`` maps each file name to a ``(header, rows)`` table or to a
    ``write(path)`` callable.  The handler resolves the config, runs the
    body, and only then creates the output directory, so a usage error
    leaves none behind; it writes the outputs, prints one ``wrote`` line
    and writes the manifest.
    """
    def wrap(body):
        @wraps(body)
        def handler(args):
            t0 = time.perf_counter()
            cfg = _resolve_cfg(args)
            inputs, outputs = body(args, cfg)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            paths = []
            for fname, output in outputs.items():
                path = out / fname
                if callable(output):
                    output(path)
                else:
                    _write_csv(path, name, cfg.seed, *output)
                paths.append(path)
            print("wrote " + " and ".join(str(p) for p in paths))
            _write_manifest(out, name, cfg, inputs, paths,
                            time.perf_counter() - t0)
            return 0
        return handler
    return wrap


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _ints(text):
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _check_steps(args):
    """Every ``--h``, ``--h-list`` and ``--tol-list`` entry and ``--T``
    given must be finite and > 0, and ``--grid-n`` at least 2; otherwise a
    usage error naming the flag, raised before the command does any work."""
    given = [("--T", getattr(args, "T", None)),
             ("--h", getattr(args, "h", None))]
    for flag, attr in (("--h-list", "h_list"), ("--tol-list", "tol_list")):
        given += [(flag, v) for v in _floats(getattr(args, attr, None) or "")]
    for flag, value in given:
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and > 0, got {value!r}")
    grid_n = getattr(args, "grid_n", None)
    if grid_n is not None and grid_n < 2:
        raise ValueError(f"--grid-n must be >= 2, got {grid_n}")


def _orbit(args, cfg, model):
    """Stepper, horizon ``T``, default step and start state ``y0`` of an
    orbit command, looked up by the model's system and scheme (the step
    falls back to ``cfg.h_min``); ``--y0`` must hold the system's ``dim``
    finite values."""
    base = model.base
    T, h0 = BENCH_DEFAULTS.get((base.name, model.scheme), (20.0, cfg.h_min))
    try:
        y0 = np.array(_floats(args.y0) if args.y0 else DEFAULT_Y0[base.name])
        ok = y0.shape == (base.dim,) and np.isfinite(y0).all()
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"--y0 must be {base.dim} finite comma-separated "
                         f"values for {base.name}, got {args.y0!r}")
    return get_stepper(model.scheme), T if args.T is None else args.T, h0, y0


def _grid(T, h):
    """Step count ``n`` for horizon ``T`` and the ``n + 1`` output times."""
    n = max(1, round(T / h))
    return n, h * np.arange(n + 1)


def _max_traj_error(states, ref_states):
    return float(np.max(np.linalg.norm(states - ref_states, axis=-1)))


# -- commands -------------------------------------------------------------


@_command("generate")
def cmd_generate(args, cfg):
    ds = training.generate_dataset(cfg, workers=_workers())
    return [], {"dataset.csv": partial(training.save_dataset, ds)}


def _init_model(cfg):
    return neural.init_model(get_system(cfg.system), cfg.scheme, cfg.p,
                             cfg.n_terms, cfg.hidden, cfg.seed)


def _fit(cfg, ds):
    """A fresh model for ``cfg``, trained on its split of ``ds``; a
    divergence names the record's index in ``ds``, its CSV data row."""
    train_set, test_set = training.split_dataset(ds, cfg.train_fraction,
                                                 cfg.seed)
    try:
        return training.train(_init_model(cfg), cfg.scheme, train_set,
                              test_set, cfg)
    except TrainingDivergedError as exc:
        record = int(training._split_order(len(ds), cfg.seed)[exc.record])
        raise TrainingDivergedError(
            f"{exc} of the training split, dataset record {record}",
            epoch=exc.epoch, batch=exc.batch, record=record) from exc


@_command("train")
def cmd_train(args, cfg):
    if args.data:
        ds = training.load_dataset(args.data)
    else:
        ds = training.generate_dataset(cfg, workers=_workers())
    model, report = _fit(cfg, ds)
    rows = [[e + 1, *losses] for e, losses in enumerate(zip(
        report.train_losses, report.test_losses, report.seconds))]
    return [args.data] if args.data else [], {
        "model.json": partial(neural.save_model, model),
        "loss.csv": (["epoch", "loss_train", "loss_test", "seconds"], rows)}


@_command("train-alt")
def cmd_train_alt(args, cfg):
    model = _init_model(cfg)
    X, C, XR, R, _steps = training.build_alt_training_data(cfg)
    _nets, histories = training.alt_train(model.nets, (X, C), (XR, R), cfg,
                                          workers=_workers())
    header = ["epoch"] + [f"mse_term{j + 1}" for j in range(len(C))] \
        + ["mse_remainder"]
    rows = [[e + 1] + [hist[e] for hist in histories]
            for e in range(cfg.epochs)]
    return [], {"model_alt.json": partial(neural.save_model, model),
                "loss_alt.csv": (header, rows)}


@_command("field-error-map")
def cmd_field_error_map(args, cfg):
    model = neural.load_model(args.model)
    ref_field = modified_field.truncated_field(model.base, model.scheme,
                                               args.k)
    X = box_grid(cfg.domain(), args.grid_n)

    def g(h):
        return np.linalg.norm(ref_field(X, h) - model.eval(X, h),
                              axis=-1) / h**model.p

    header = [f"x{i + 1}" for i in range(model.base.dim)] + ["g"]
    hs = (np.array(_floats(args.h_list)) if args.h_list
          else np.geomspace(cfg.h_min, cfg.h_max, 15))
    return [args.model], {
        "field_error_map.csv": (header, [[*x, gx] for x, gx
                                         in zip(X, g(args.h))]),
        "field_error_max.csv": (["h", "max_g"],
                                [[h, float(g(h).max())] for h in hs])}


@_command("convergence")
def cmd_convergence(args, cfg):
    model = neural.load_model(args.model)
    stepper, T, h0, y0 = _orbit(args, cfg, model)
    hs = (_floats(args.h_list) if args.h_list
          else [h0 * 2.0**-j for j in range(4)])
    rows = []
    for h in hs:
        n, times = _grid(T, h)
        ref = reference_trajectory(model.base, y0, times, tol=1e-12)
        row = [h]
        for field in (model.base, model):
            try:
                states = integrate(stepper, field, y0, h, n).states
                row.append(_max_traj_error(states, ref))
            except ModfieldError:
                row.append(float("nan"))
        rows.append(row)
    return [args.model], {
        "convergence.csv": (["h", "err_f", "err_fapp"], rows)}


def _timed(fn, repeats):
    # warm-up run discarded; median of the remaining wall-clock times
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


@_command("efficiency")
def cmd_efficiency(args, cfg):
    if args.repeats < 3:
        raise ValueError("--repeats must be >= 3")
    model = neural.load_model(args.model)
    base, scheme = model.base, model.scheme
    ks = _ints(args.k_list)
    k_max = modified_field.max_truncation(scheme)
    for k in ks:
        if not 2 <= k <= k_max:
            raise ValueError(f"--k-list entry {k} is outside 2..{k_max}, "
                             f"the truncations scheme {scheme!r} has")
    stepper, T, h0, y0 = _orbit(args, cfg, model)
    hs = (_floats(args.h_list) if args.h_list
          else [h0 * 2.0**-j for j in range(3)])
    tols = _floats(args.tol_list)

    rows = []
    for h in hs:
        n, times = _grid(T, h)
        ref = reference_trajectory(base, y0, times, tol=1e-12)
        fields = [("scheme_f", base), ("scheme_fapp", model)]
        for k in ks:
            fields.append((f"scheme_trunc_k{k}",
                           modified_field.truncated_field(base, scheme, k)))
        for name, fld in fields:
            seconds, states = _timed(
                lambda fld=fld: integrate(stepper, fld, y0, h, n).states,
                args.repeats)
            rows.append([name, h, seconds, _max_traj_error(states, ref)])
    for tol in tols:
        seconds, traj = _timed(
            lambda tol=tol: dopri5_integrate(base, y0, T, tol, tol),
            args.repeats)
        ref = reference_trajectory(base, y0, traj.times, tol=1e-12)
        rows.append(["dopri5", tol, seconds,
                     _max_traj_error(traj.states, ref)])
    return [args.model], {"efficiency.csv": (
        ["method", "h_or_tol", "seconds", "max_error"], rows)}


@_command("invariant-drift")
def cmd_invariant_drift(args, cfg):
    model = neural.load_model(args.model)
    base = model.base
    stepper, T, h0, y0 = _orbit(args, cfg, model)
    h = args.h if args.h is not None else h0
    n, times = _grid(T, h)
    columns = {
        "f": integrate(stepper, base, y0, h, n).states,
        "fapp": integrate(stepper, model, y0, h, n).states,
        "dopri5": reference_trajectory(base, y0, times, tol=1e-6),
        "ref": reference_trajectory(base, y0, times, tol=1e-10),
    }
    header = ["t"] + [f"{inv}_{m}" for inv in base.invariants
                      for m in columns]
    rows = [[t] + [abs(fn(states[i]) - fn(y0))
                   for fn in base.invariants.values()
                   for states in columns.values()]
            for i, t in enumerate(times)]
    return [args.model], {"invariant_drift.csv": (header, rows)}


@_command("param-study")
def cmd_param_study(args, cfg):
    base = get_system(cfg.system)
    widths = _ints(args.widths)
    depths = _ints(args.depths)
    sizes = _ints(args.data_sizes) if args.data_sizes else [cfg.n_records]
    box = cfg.domain()
    hs = np.geomspace(cfg.h_min, cfg.h_max, 15)
    # the reference keeps four terms, or as many as the scheme has
    trunc = modified_field.truncated_field(
        base, cfg.scheme, min(4, modified_field.max_truncation(cfg.scheme)))
    # every grid point's config is checked before any data is generated
    subs = [(depth, replace(cfg, hidden=(width,) * depth, n_records=K))
            for K in sizes for depth in depths for width in widths]
    rows = []
    for depth, sub in subs:
        model, _report = _fit(sub, training.generate_dataset(
            sub, workers=_workers()))
        delta = training.learning_error_delta(
            model, trunc, box, args.grid_n, hs)
        # weight count only; biases left out of the abscissa
        w = sum(wt.size for net in model.nets for wt in net.weights)
        rows.append([w, depth, sub.n_records, delta, np.sqrt(w)])
    return [], {"param_study.csv": (
        ["params_w", "depth", "data_K", "delta", "sqrt_w"], rows)}


@_command("compare-alt")
def cmd_compare_alt(args, cfg):
    model_std = neural.load_model(args.model_std)
    model_alt = neural.load_model(args.model_alt)
    if model_std.scheme != model_alt.scheme:
        raise ValueError(
            f"models trained for different schemes: {model_std.scheme!r} "
            f"vs {model_alt.scheme!r}")
    stepper, T, _h0, y0 = _orbit(args, cfg, model_std)
    hs = (_floats(args.h_list) if args.h_list
          else sorted({cfg.h_min / 2, cfg.h_min, 0.05, 0.1, 0.25, cfg.h_max}))
    rows = []
    for h in hs:
        n, times = _grid(T, h)
        ref = reference_trajectory(model_std.base, y0, times, tol=1e-12)
        row = [h]
        for model in (model_std, model_alt):
            # worst one-step defect along the exact trajectory
            pred = stepper(model, ref[:-1], h)
            row.append(float(np.max(np.linalg.norm(pred - ref[1:], axis=-1))))
        for model in (model_std, model_alt):
            states = integrate(stepper, model, y0, h, n).states
            row.append(_max_traj_error(states, ref))
        rows.append(row)
    return [args.model_std, args.model_alt], {"compare_alt.csv": (
        ["h", "local_err_std", "local_err_alt", "global_err_std",
         "global_err_alt"], rows)}


# -- argument parsing ------------------------------------------------------


def _add_orbit(p):
    p.add_argument("--y0", help="comma-separated start state")
    p.add_argument("--T", type=float)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modfield",
        description="Benchmarks for learned modified vector fields.")
    parser.add_argument("--version", action="version", version=VERSION)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, model=False):
        p = subs.add_parser(name, help=help)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--preset", help="named configuration preset")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")
        if model:
            p.add_argument("--model", required=True)
        p.set_defaults(func=func)
        return p

    command("generate", cmd_generate, "write an exact-flow dataset CSV")
    p = command("train", cmd_train, "train the learned field end to end")
    p.add_argument("--data", help="dataset CSV (generated if omitted)")
    command("train-alt", cmd_train_alt,
            "train each correction term independently")

    p = command("field-error-map", cmd_field_error_map,
                "learned-field error over the domain", model=True)
    p.add_argument("--k", type=int, default=2,
                   help="truncation depth of the analytic reference")
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--grid-n", type=int, default=41)
    p.add_argument("--h-list", help="steps for the max-error sweep")

    p = command("convergence", cmd_convergence,
                "global error versus step size", model=True)
    _add_orbit(p)
    p.add_argument("--h-list")

    p = command("efficiency", cmd_efficiency, "error versus wall-clock time",
                model=True)
    _add_orbit(p)
    p.add_argument("--h-list")
    p.add_argument("--tol-list", default="1e-4,1e-6,1e-8")
    p.add_argument("--k-list", default="2,3")
    p.add_argument("--repeats", type=int, default=5)

    p = command("invariant-drift", cmd_invariant_drift,
                "conserved-quantity drift along trajectories", model=True)
    _add_orbit(p)
    p.add_argument("--h", type=float)

    p = command("param-study", cmd_param_study,
                "learning error versus network size")
    p.add_argument("--widths", default="10,25,50")
    p.add_argument("--depths", default="2")
    p.add_argument("--data-sizes")
    p.add_argument("--grid-n", type=int, default=41)

    p = command("compare-alt", cmd_compare_alt,
                "standard versus per-term training")
    p.add_argument("--model-std", required=True)
    p.add_argument("--model-alt", required=True)
    _add_orbit(p)
    p.add_argument("--h-list")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_steps(args)
        return args.func(args)
    except (UnsupportedTruncationError, CheckpointError, ValueError,
            KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModfieldError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
