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
from pathlib import Path

import numpy as np

from . import modified_field, neural, training
from .errors import CheckpointError, ModfieldError, UnsupportedTruncationError
from .integrators import (box_grid, canonical_scheme, dopri5_integrate,
                          get_stepper, integrate)
from .systems import get_system, reference_trajectory

VERSION = "0.1.0"

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


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, command, seed, header, rows):
    with open(path, "w") as fh:
        fh.write(f"# command: {command}\n")
        fh.write(f"# version: {VERSION}\n")
        fh.write(f"# seed: {seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str)
                              else neural.format_exact(v) for v in row) + "\n")


def _write_manifest(outdir, command, cfg, seed, inputs, outputs, seconds):
    doc = {
        "command": command,
        "version": VERSION,
        "seed": seed,
        "config": None if cfg is None else asdict(cfg),
        "inputs": [str(p) for p in inputs],
        "outputs": [{"path": str(p), "sha256": _sha256(p)} for p in outputs],
        "seconds": seconds,
    }
    path = outdir / f"{command}-manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _ints(text):
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _check_steps(args):
    """Every ``--h``, ``--h-list`` entry and ``--T`` given must be finite
    and > 0; otherwise a usage error naming the flag."""
    given = [("--T", getattr(args, "T", None)),
             ("--h", getattr(args, "h", None))]
    given += [("--h-list", h)
              for h in _floats(getattr(args, "h_list", None) or "")]
    for flag, value in given:
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and > 0, got {value!r}")


def _sim_defaults(cfg):
    key = (cfg.system, canonical_scheme(cfg.scheme))
    return BENCH_DEFAULTS.get(key, (20.0, cfg.h_min))


def _y0_for(args, system):
    if getattr(args, "y0", None):
        return np.array(_floats(args.y0))
    return np.array(DEFAULT_Y0[system])


def _max_traj_error(states, ref_states):
    return float(np.max(np.linalg.norm(states - ref_states, axis=-1)))


# -- commands -------------------------------------------------------------


def cmd_generate(args):
    t0 = time.perf_counter()
    cfg = _resolve_cfg(args)
    out = _outdir(args)
    ds = training.generate_dataset(cfg, workers=_workers())
    path = out / "dataset.csv"
    training.save_dataset(ds, path)
    print(f"wrote {len(ds)} records to {path} (resampled {ds.resampled})")
    _write_manifest(out, "generate", cfg, cfg.seed, [], [path],
                    time.perf_counter() - t0)
    return 0


def _train_common(args, alt):
    t0 = time.perf_counter()
    cfg = _resolve_cfg(args)
    out = _outdir(args)
    base = get_system(cfg.system)
    model = neural.init_model(base, cfg.scheme, cfg.p, cfg.n_terms,
                              cfg.hidden, cfg.seed)
    inputs = []
    if alt:
        X, C, XR, R, _steps = training.build_alt_training_data(
            cfg, workers=_workers())
        _nets, histories = training.alt_train(model.nets, (X, C), (XR, R),
                                              cfg, workers=_workers())
        model_path = out / "model_alt.json"
        neural.save_model(model, model_path)
        loss_path = out / "loss_alt.csv"
        header = ["epoch"] + [f"mse_term{j + 1}" for j in range(len(C))] \
            + ["mse_remainder"]
        rows = [[e + 1] + [hist[e] for hist in histories]
                for e in range(cfg.epochs)]
        _write_csv(loss_path, "train-alt", cfg.seed, header, rows)
    else:
        if args.data:
            ds = training.load_dataset(args.data)
            inputs.append(args.data)
        else:
            ds = training.generate_dataset(cfg, workers=_workers())
        train_set, test_set = training.split_dataset(ds, cfg.train_fraction,
                                                     cfg.seed)
        model, report = training.train(model, cfg.scheme, train_set,
                                       test_set, cfg)
        model_path = out / "model.json"
        neural.save_model(model, model_path)
        loss_path = out / "loss.csv"
        rows = [[e + 1, report.train_losses[e], report.test_losses[e],
                 report.seconds[e]] for e in range(len(report.train_losses))]
        _write_csv(loss_path, "train", cfg.seed,
                   ["epoch", "loss_train", "loss_test", "seconds"], rows)
    name = "train-alt" if alt else "train"
    print(f"wrote {model_path} and {loss_path}")
    _write_manifest(out, name, cfg, cfg.seed, inputs,
                    [model_path, loss_path], time.perf_counter() - t0)
    return 0


def cmd_train(args):
    return _train_common(args, alt=False)


def cmd_train_alt(args):
    return _train_common(args, alt=True)


def cmd_field_error_map(args):
    t0 = time.perf_counter()
    cfg = _resolve_cfg(args)
    out = _outdir(args)
    model = neural.load_model(args.model)
    base = model.base
    ref_field = modified_field.truncated_field(base, model.scheme, args.k)
    box = cfg.domain()
    X = box_grid(box, args.grid_n)
    h = args.h
    g = np.linalg.norm(ref_field(X, h) - model.eval(X, h), axis=-1) / h**model.p
    map_path = out / "field_error_map.csv"
    d = base.dim
    header = [f"x{i + 1}" for i in range(d)] + ["g"]
    _write_csv(map_path, "field-error-map", cfg.seed, header,
               [[*X[i], g[i]] for i in range(len(X))])

    hs = (np.array(_floats(args.h_list)) if args.h_list
          else np.geomspace(cfg.h_min, cfg.h_max, 15))
    rows = []
    for hv in hs:
        gv = np.linalg.norm(ref_field(X, hv) - model.eval(X, hv),
                            axis=-1) / hv**model.p
        rows.append([hv, float(gv.max())])
    max_path = out / "field_error_max.csv"
    _write_csv(max_path, "field-error-map", cfg.seed, ["h", "max_g"], rows)
    print(f"wrote {map_path} and {max_path}")
    _write_manifest(out, "field-error-map", cfg, cfg.seed, [args.model],
                    [map_path, max_path], time.perf_counter() - t0)
    return 0


def cmd_convergence(args):
    t0 = time.perf_counter()
    cfg = _resolve_cfg(args)
    out = _outdir(args)
    model = neural.load_model(args.model)
    base = model.base
    scheme = model.scheme
    stepper = get_stepper(scheme)
    T = args.T if args.T is not None else _sim_defaults(cfg)[0]
    h0 = _sim_defaults(cfg)[1]
    hs = (_floats(args.h_list) if args.h_list
          else [h0 * 2.0**-j for j in range(4)])
    y0 = _y0_for(args, base.name)
    rows = []
    for h in hs:
        n = max(1, round(T / h))
        times = h * np.arange(n + 1)
        ref = reference_trajectory(base, y0, times, tol=1e-12)
        try:
            bare = integrate(stepper, base, y0, h, n).states
            err_f = _max_traj_error(bare, ref)
        except ModfieldError:
            err_f = float("nan")
        try:
            learned = integrate(stepper, model, y0, h, n).states
            err_fapp = _max_traj_error(learned, ref)
        except ModfieldError:
            err_fapp = float("nan")
        rows.append([h, err_f, err_fapp])
    path = out / "convergence.csv"
    _write_csv(path, "convergence", cfg.seed, ["h", "err_f", "err_fapp"], rows)
    print(f"wrote {path}")
    _write_manifest(out, "convergence", cfg, cfg.seed, [args.model], [path],
                    time.perf_counter() - t0)
    return 0


def _timed(fn, repeats):
    # warm-up run discarded; median of the remaining wall-clock times
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def cmd_efficiency(args):
    t0 = time.perf_counter()
    if args.repeats < 3:
        raise ValueError("--repeats must be >= 3")
    cfg = _resolve_cfg(args)
    model = neural.load_model(args.model)
    base = model.base
    scheme = model.scheme
    ks = _ints(args.k_list)
    k_max = modified_field.max_truncation(scheme)
    for k in ks:
        if not 2 <= k <= k_max:
            raise ValueError(f"--k-list entry {k} is outside 2..{k_max}, "
                             f"the truncations scheme {scheme!r} has")
    out = _outdir(args)
    stepper = get_stepper(scheme)
    T = args.T if args.T is not None else _sim_defaults(cfg)[0]
    h0 = _sim_defaults(cfg)[1]
    hs = (_floats(args.h_list) if args.h_list
          else [h0 * 2.0**-j for j in range(3)])
    tols = _floats(args.tol_list)
    y0 = _y0_for(args, base.name)

    rows = []
    for h in hs:
        n = max(1, round(T / h))
        times_grid = h * np.arange(n + 1)
        ref = reference_trajectory(base, y0, times_grid, tol=1e-12)
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
    path = out / "efficiency.csv"
    _write_csv(path, "efficiency", cfg.seed,
               ["method", "h_or_tol", "seconds", "max_error"], rows)
    print(f"wrote {path}")
    _write_manifest(out, "efficiency", cfg, cfg.seed, [args.model], [path],
                    time.perf_counter() - t0)
    return 0


def cmd_invariant_drift(args):
    t0 = time.perf_counter()
    cfg = _resolve_cfg(args)
    out = _outdir(args)
    model = neural.load_model(args.model)
    base = model.base
    scheme = model.scheme
    stepper = get_stepper(scheme)
    T = args.T if args.T is not None else _sim_defaults(cfg)[0]
    h = args.h if args.h is not None else _sim_defaults(cfg)[1]
    y0 = _y0_for(args, base.name)
    n = max(1, round(T / h))
    times = h * np.arange(n + 1)
    columns = {
        "f": integrate(stepper, base, y0, h, n).states,
        "fapp": integrate(stepper, model, y0, h, n).states,
        "dopri5": reference_trajectory(base, y0, times, tol=1e-6),
        "ref": reference_trajectory(base, y0, times, tol=1e-10),
    }
    header = ["t"]
    for inv in base.invariants:
        header += [f"{inv}_{m}" for m in columns]
    rows = []
    for i, t in enumerate(times):
        row = [t]
        for inv, fn in base.invariants.items():
            v0 = fn(y0)
            row += [abs(fn(columns[m][i]) - v0) for m in columns]
        rows.append(row)
    path = out / "invariant_drift.csv"
    _write_csv(path, "invariant-drift", cfg.seed, header, rows)
    print(f"wrote {path}")
    _write_manifest(out, "invariant-drift", cfg, cfg.seed, [args.model],
                    [path], time.perf_counter() - t0)
    return 0


def cmd_param_study(args):
    t0 = time.perf_counter()
    cfg = _resolve_cfg(args)
    out = _outdir(args)
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
        ds = training.generate_dataset(sub, workers=_workers())
        train_set, test_set = training.split_dataset(
            ds, sub.train_fraction, sub.seed)
        model = neural.init_model(base, sub.scheme, sub.p,
                                  sub.n_terms, sub.hidden, sub.seed)
        model, _report = training.train(model, sub.scheme, train_set,
                                        test_set, sub)
        delta = training.learning_error_delta(
            model, trunc, box, args.grid_n, hs)
        # weight count only; biases left out of the abscissa
        w = sum(wt.size for net in model.nets for wt in net.weights)
        rows.append([w, depth, sub.n_records, delta, np.sqrt(w)])
    path = out / "param_study.csv"
    _write_csv(path, "param-study", cfg.seed,
               ["params_w", "depth", "data_K", "delta", "sqrt_w"], rows)
    print(f"wrote {path}")
    _write_manifest(out, "param-study", cfg, cfg.seed, [], [path],
                    time.perf_counter() - t0)
    return 0


def cmd_compare_alt(args):
    t0 = time.perf_counter()
    cfg = _resolve_cfg(args)
    out = _outdir(args)
    model_std = neural.load_model(args.model_std)
    model_alt = neural.load_model(args.model_alt)
    if model_std.scheme != model_alt.scheme:
        raise ValueError(
            f"models trained for different schemes: {model_std.scheme!r} "
            f"vs {model_alt.scheme!r}")
    base = model_std.base
    scheme = model_std.scheme
    stepper = get_stepper(scheme)
    T = args.T if args.T is not None else _sim_defaults(cfg)[0]
    y0 = _y0_for(args, base.name)
    hs = (_floats(args.h_list) if args.h_list
          else sorted({cfg.h_min / 2, cfg.h_min, 0.05, 0.1, 0.25, cfg.h_max}))
    rows = []
    for h in hs:
        n = max(1, round(T / h))
        times = h * np.arange(n + 1)
        ref = reference_trajectory(base, y0, times, tol=1e-12)
        row = [h]
        for model in (model_std, model_alt):
            # worst one-step defect along the exact trajectory
            pred = stepper(model, ref[:-1], h)
            row.append(float(np.max(np.linalg.norm(pred - ref[1:], axis=-1))))
        for model in (model_std, model_alt):
            states = integrate(stepper, model, y0, h, n).states
            row.append(_max_traj_error(states, ref))
        rows.append(row)
    path = out / "compare_alt.csv"
    _write_csv(path, "compare-alt", cfg.seed,
               ["h", "local_err_std", "local_err_alt",
                "global_err_std", "global_err_alt"], rows)
    print(f"wrote {path}")
    _write_manifest(out, "compare-alt", cfg, cfg.seed,
                    [args.model_std, args.model_alt], [path],
                    time.perf_counter() - t0)
    return 0


# -- argument parsing ------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--preset", help="named configuration preset")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", default="out", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modfield",
        description="Benchmarks for learned modified vector fields.")
    parser.add_argument("--version", action="version", version=VERSION)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="write an exact-flow dataset CSV")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("train", help="train the learned field end to end")
    _add_common(p)
    p.add_argument("--data", help="dataset CSV (generated if omitted)")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("train-alt",
                        help="train each correction term independently")
    _add_common(p)
    p.set_defaults(func=cmd_train_alt)

    p = subs.add_parser("field-error-map",
                        help="learned-field error over the domain")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=2,
                   help="truncation depth of the analytic reference")
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--grid-n", type=int, default=41)
    p.add_argument("--h-list", help="steps for the max-error sweep")
    p.set_defaults(func=cmd_field_error_map)

    p = subs.add_parser("convergence", help="global error versus step size")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--y0", help="comma-separated start state")
    p.add_argument("--T", type=float)
    p.add_argument("--h-list")
    p.set_defaults(func=cmd_convergence)

    p = subs.add_parser("efficiency", help="error versus wall-clock time")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--y0", help="comma-separated start state")
    p.add_argument("--T", type=float)
    p.add_argument("--h-list")
    p.add_argument("--tol-list", default="1e-4,1e-6,1e-8")
    p.add_argument("--k-list", default="2,3")
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=cmd_efficiency)

    p = subs.add_parser("invariant-drift",
                        help="conserved-quantity drift along trajectories")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--y0", help="comma-separated start state")
    p.add_argument("--T", type=float)
    p.add_argument("--h", type=float)
    p.set_defaults(func=cmd_invariant_drift)

    p = subs.add_parser("param-study",
                        help="learning error versus network size")
    _add_common(p)
    p.add_argument("--widths", default="10,25,50")
    p.add_argument("--depths", default="2")
    p.add_argument("--data-sizes")
    p.add_argument("--grid-n", type=int, default=41)
    p.set_defaults(func=cmd_param_study)

    p = subs.add_parser("compare-alt",
                        help="standard versus per-term training")
    _add_common(p)
    p.add_argument("--model-std", required=True)
    p.add_argument("--model-alt", required=True)
    p.add_argument("--y0", help="comma-separated start state")
    p.add_argument("--T", type=float)
    p.add_argument("--h-list")
    p.set_defaults(func=cmd_compare_alt)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
