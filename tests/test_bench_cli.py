import hashlib
import json

import numpy as np
import pytest

from modfield.bench_cli import main
from modfield.modified_field import truncated_field
from modfield.neural import init_model, load_model, save_model
from modfield.systems import get_system
from modfield.training import (TrainConfig, load_dataset, save_config,
                                save_dataset, split_dataset)


def micro_cfg(**kw):
    base = dict(n_records=40, batch_size=10, epochs=2, h_min=0.1, h_max=0.5,
                seed=9, n_terms=2, hidden=(6,), print_every=0, n_steps=3)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "micro.cfg"
    save_config(micro_cfg(), path)
    return str(path)


def read_csv(path):
    comments, header, rows = [], None, []
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header, rows


def check_manifest(outdir, command):
    doc = json.loads((outdir / f"{command}-manifest.json").read_text())
    assert doc["command"] == command
    assert doc["seconds"] > 0
    for entry in doc["outputs"]:
        digest = hashlib.sha256(open(entry["path"], "rb").read()).hexdigest()
        assert digest == entry["sha256"]
    return doc


def test_generate(tmp_path, cfg_file):
    out = tmp_path / "gen"
    assert main(["generate", "--config", cfg_file, "--out", str(out)]) == 0
    ds = load_dataset(out / "dataset.csv")
    assert len(ds) == 40 and ds.dim == 2
    doc = check_manifest(out, "generate")
    assert doc["config"]["n_records"] == 40
    assert doc["seed"] == 9


def test_generate_zero_records(tmp_path):
    cfg = tmp_path / "empty.cfg"
    save_config(micro_cfg(n_records=0), cfg)
    out = tmp_path / "gen0"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    ds = load_dataset(out / "dataset.csv")
    assert len(ds) == 0 and ds.dim == 2


def test_train_outputs_and_determinism(tmp_path, cfg_file, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg_file, "--out", str(out1)]) == 0
    assert main(["train", "--config", cfg_file, "--out", str(out2)]) == 0
    capsys.readouterr()

    model = load_model(out1 / "model.json")
    assert model.scheme == "euler" and model.n_terms == 2
    comments, header, rows = read_csv(out1 / "loss.csv")
    assert comments[0] == "# command: train"
    assert comments[1].startswith("# version: ")
    assert comments[2] == "# seed: 9"
    assert header == ["epoch", "loss_train", "loss_test", "seconds"]
    assert len(rows) == 2
    check_manifest(out1, "train")

    # reruns agree bit for bit except for wall-clock timings
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
    _, _, rows2 = read_csv(out2 / "loss.csv")
    assert [r[:3] for r in rows] == [r[:3] for r in rows2]


def test_train_zero_epochs_keeps_initialization(tmp_path):
    cfg = micro_cfg(epochs=0)
    path = tmp_path / "zero.cfg"
    save_config(cfg, path)
    out = tmp_path / "z"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    model = load_model(out / "model.json")
    fresh = init_model(get_system(cfg.system), cfg.scheme, cfg.p, cfg.n_terms,
                       cfg.hidden, cfg.seed)
    for got, want in zip(model.parameters(), fresh.parameters()):
        assert np.array_equal(got, want)
    _, _, rows = read_csv(out / "loss.csv")
    assert rows == []


def test_train_from_dataset_file(tmp_path, cfg_file):
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg_file, "--out", str(gen)]) == 0
    out = tmp_path / "t"
    assert main(["train", "--config", cfg_file, "--out", str(out),
                 "--data", str(gen / "dataset.csv")]) == 0
    doc = check_manifest(out, "train")
    assert doc["inputs"] == [str(gen / "dataset.csv")]


def test_train_alt_outputs(tmp_path, cfg_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train-alt", "--config", cfg_file, "--out", str(out1)]) == 0
    assert main(["train-alt", "--config", cfg_file, "--out", str(out2)]) == 0
    model = load_model(out1 / "model_alt.json")
    assert model.n_terms == 2
    comments, header, rows = read_csv(out1 / "loss_alt.csv")
    assert comments[0] == "# command: train-alt"
    assert header == ["epoch", "mse_term1", "mse_remainder"]
    assert len(rows) == 2
    check_manifest(out1, "train-alt")
    # no timing columns, so the whole file reproduces exactly
    assert (out1 / "model_alt.json").read_bytes() == (out2 / "model_alt.json").read_bytes()
    assert (out1 / "loss_alt.csv").read_bytes() == (out2 / "loss_alt.csv").read_bytes()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    cfg = tmp / "micro.cfg"
    save_config(micro_cfg(), cfg)
    out = tmp / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return str(cfg), str(out / "model.json")


def test_field_error_map(tmp_path, trained):
    cfg, model = trained
    out = tmp_path / "fem"
    assert main(["field-error-map", "--config", cfg, "--model", model,
                 "--out", str(out), "--k", "2", "--grid-n", "5",
                 "--h", "0.2", "--h-list", "0.1,0.3"]) == 0
    _, header, rows = read_csv(out / "field_error_map.csv")
    assert header == ["x1", "x2", "g"]
    assert len(rows) == 25
    g = np.array([float(r[2]) for r in rows])
    assert np.all(np.isfinite(g)) and np.all(g >= 0)
    _, header, rows = read_csv(out / "field_error_max.csv")
    assert header == ["h", "max_g"]
    assert [float(r[0]) for r in rows] == [0.1, 0.3]


def test_field_error_map_midpoint(tmp_path, cfg_file):
    # a zeroed model is the base field, so against f + h^2 f^[1] the map
    # reads |f^[1]| at every grid point
    base = get_system("pendulum")
    model = init_model(base, "midpoint", 2, 2, (6,), 0)
    model.theta[...] = 0.0
    path = tmp_path / "mid.json"
    save_model(model, path)
    out = tmp_path / "fem"
    assert main(["field-error-map", "--config", cfg_file, "--model", str(path),
                 "--out", str(out), "--k", "2", "--grid-n", "5",
                 "--h-list", "0.1,0.3"]) == 0
    _, _, rows = read_csv(out / "field_error_map.csv")
    X = np.array([[float(v) for v in r[:2]] for r in rows])
    g = np.array([float(r[2]) for r in rows])
    f1 = truncated_field(base, "midpoint", 2).terms(X)[0]
    assert len(rows) == 25
    assert np.allclose(g, np.linalg.norm(f1, axis=-1), rtol=1e-9, atol=1e-15)


def test_field_error_map_truncation_guard(tmp_path, trained, capsys):
    cfg, model = trained
    out = tmp_path / "fem"
    rc = main(["field-error-map", "--config", cfg, "--model", model,
               "--out", str(out), "--k", "9"])
    assert rc == 2
    assert "k=9" in capsys.readouterr().err


def test_convergence(tmp_path, trained):
    cfg, model = trained
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--model", model,
                 "--out", str(out), "--T", "1.0",
                 "--h-list", "0.25,0.125"]) == 0
    _, header, rows = read_csv(out / "convergence.csv")
    assert header == ["h", "err_f", "err_fapp"]
    errs = np.array([[float(v) for v in r] for r in rows])
    assert errs.shape == (2, 3)
    assert np.all(np.isfinite(errs)) and np.all(errs[:, 1:] > 0)
    # the bare scheme's global error shrinks with the step
    assert errs[1, 1] < errs[0, 1]


@pytest.mark.parametrize("system, scheme, p, h0", [
    ("pendulum", "midpoint", 2, 0.25), ("rigid_body", "euler", 1, 0.5)])
def test_orbit_defaults_follow_the_model(tmp_path, system, scheme, p, h0):
    # no --config or --preset: the default config is pendulum/Euler, whose
    # steps (0.1, 0.05, ...) must not be used for another model
    path = tmp_path / "model.json"
    save_model(init_model(get_system(system), scheme, p, 2, (6,), 0), path)
    out = tmp_path / "conv"
    assert main(["convergence", "--model", str(path), "--out", str(out),
                 "--T", "1.0"]) == 0
    _, _, rows = read_csv(out / "convergence.csv")
    assert [float(r[0]) for r in rows] == [h0 * 2.0**-j for j in range(4)]


def test_efficiency(tmp_path, trained):
    cfg, model = trained
    out = tmp_path / "eff"
    assert main(["efficiency", "--config", cfg, "--model", model,
                 "--out", str(out), "--T", "1.0", "--h-list", "0.25",
                 "--tol-list", "1e-6", "--k-list", "2",
                 "--repeats", "3"]) == 0
    _, header, rows = read_csv(out / "efficiency.csv")
    assert header == ["method", "h_or_tol", "seconds", "max_error"]
    methods = [r[0] for r in rows]
    assert methods == ["scheme_f", "scheme_fapp", "scheme_trunc_k2", "dopri5"]
    assert all(float(r[2]) > 0 for r in rows)
    assert main(["efficiency", "--config", cfg, "--model", model,
                 "--out", str(out), "--repeats", "2"]) == 2


def test_efficiency_heun_truncations(tmp_path, cfg_file):
    path = tmp_path / "heun.json"
    save_model(init_model(get_system("pendulum"), "rk2_heun", 2, 2, (6,), 0),
               path)
    out = tmp_path / "eff"
    assert main(["efficiency", "--config", cfg_file, "--model", str(path),
                 "--out", str(out), "--T", "1.0", "--h-list", "0.25",
                 "--tol-list", "1e-6", "--k-list", "2,3",
                 "--repeats", "3"]) == 0
    _, _, rows = read_csv(out / "efficiency.csv")
    assert [r[0] for r in rows] == ["scheme_f", "scheme_fapp",
                                    "scheme_trunc_k2", "scheme_trunc_k3",
                                    "dopri5"]


def test_invariant_drift(tmp_path, trained):
    cfg, model = trained
    out = tmp_path / "drift"
    assert main(["invariant-drift", "--config", cfg, "--model", model,
                 "--out", str(out), "--T", "1.0", "--h", "0.25"]) == 0
    _, header, rows = read_csv(out / "invariant_drift.csv")
    assert header[0] == "t"
    assert "energy_f" in header and "energy_ref" in header
    assert len(rows) == 5  # T/h + 1 sample times
    first = [float(v) for v in rows[0]]
    assert first[0] == 0.0 and all(v == 0.0 for v in first[1:])


def test_param_study(tmp_path):
    tmp = tmp_path
    cfg = tmp / "ps.cfg"
    save_config(micro_cfg(epochs=1, n_records=30), cfg)
    out = tmp / "ps"
    assert main(["param-study", "--config", str(cfg), "--out", str(out),
                 "--widths", "4", "--depths", "1", "--data-sizes", "30",
                 "--grid-n", "5"]) == 0
    _, header, rows = read_csv(out / "param_study.csv")
    assert header == ["params_w", "depth", "data_K", "delta", "sqrt_w"]
    assert len(rows) == 1
    w, depth, K, delta, sqrt_w = (float(v) for v in rows[0])
    # term net 2->4->2 has 16 weights, remainder 3->4->2 has 20
    assert w == 36 and depth == 1 and K == 30
    assert delta > 0 and sqrt_w == pytest.approx(6.0)


def test_param_study_rk2(tmp_path):
    cfg = tmp_path / "ps.cfg"
    save_config(micro_cfg(epochs=1, n_records=30, scheme="rk2"), cfg)
    out = tmp_path / "ps"
    assert main(["param-study", "--config", str(cfg), "--out", str(out),
                 "--widths", "4", "--depths", "1", "--data-sizes", "30",
                 "--grid-n", "5"]) == 0
    _, _, rows = read_csv(out / "param_study.csv")
    delta = float(rows[0][3])
    assert np.isfinite(delta) and delta > 0


@pytest.mark.parametrize("flag, value", [("--widths", "0"),
                                         ("--widths", "4,0"),
                                         ("--depths", "0")])
def test_param_study_zero_width_fails_before_generating(
        tmp_path, cfg_file, capsys, monkeypatch, flag, value):
    def no_data(*args, **kwargs):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr("modfield.training.generate_dataset", no_data)
    rc = main(["param-study", "--config", cfg_file,
               "--out", str(tmp_path / "ps"), "--widths", "4",
               "--depths", "1", "--data-sizes", "30", f"{flag}={value}"])
    assert rc == 2
    assert "hidden must list one or more widths >= 1" in (
        capsys.readouterr().err)


def test_compare_alt(tmp_path, cfg_file, trained):
    _, model_std = trained
    alt_out = tmp_path / "alt"
    assert main(["train-alt", "--config", cfg_file, "--out", str(alt_out)]) == 0
    out = tmp_path / "cmp"
    assert main(["compare-alt", "--config", cfg_file,
                 "--model-std", model_std,
                 "--model-alt", str(alt_out / "model_alt.json"),
                 "--out", str(out), "--T", "1.0",
                 "--h-list", "0.125,0.25"]) == 0
    _, header, rows = read_csv(out / "compare_alt.csv")
    assert header == ["h", "local_err_std", "local_err_alt",
                      "global_err_std", "global_err_alt"]
    errs = np.array([[float(v) for v in r] for r in rows])
    assert errs.shape == (2, 5)
    assert np.all(np.isfinite(errs)) and np.all(errs[:, 1:] > 0)


def test_compare_alt_scheme_mismatch(tmp_path, capsys):
    base = get_system("pendulum")
    pa = tmp_path / "euler.json"
    pb = tmp_path / "rk2.json"
    save_model(init_model(base, "euler", 1, 2, (6,), 0), pa)
    save_model(init_model(base, "rk2", 2, 2, (6,), 0), pb)
    rc = main(["compare-alt", "--model-std", str(pa), "--model-alt", str(pb),
               "--out", str(tmp_path / "cmp")])
    assert rc == 2
    assert "different schemes" in capsys.readouterr().err


def test_missing_model_is_a_usage_error(tmp_path, capsys):
    rc = main(["convergence", "--model", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()


def test_unknown_preset_is_a_usage_error(tmp_path, capsys):
    rc = main(["generate", "--preset", "desk-unicorn",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
def test_bad_worker_count_is_a_usage_error(tmp_path, cfg_file, capsys,
                                           monkeypatch, value):
    monkeypatch.setenv("MODFIELD_WORKERS", value)
    rc = main(["generate", "--config", cfg_file, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "MODFIELD_WORKERS" in err and repr(value) in err


@pytest.mark.parametrize("line", ["batch_size=0", "batch_size=-5",
                                  "epochs=-1", "learning_rate=-1",
                                  "learning_rate=0", "tol=0",
                                  "weight_decay=-5", "weight_decay=nan",
                                  "weight_decay=inf", "seed=-1",
                                  "hidden=0", "hidden=6,0", "scheme=rk4",
                                  "p=2", "system=rigid_body", "h_max=inf",
                                  "h_min=nan", "learning_rate=inf",
                                  "tol=inf", "omega_lower=-inf,-2",
                                  "omega_upper=inf,2", "omega_lower=nan,-2",
                                  "omega_lower=3,-2",
                                  "omega_shell=1", "omega_shell=1,inf",
                                  "omega_shell=1,0.5"])
def test_bad_training_value_is_a_usage_error(tmp_path, cfg_file, capsys,
                                            line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(open(cfg_file).read() + "n_records=50\nepochs=1\n"
                   + line + "\n")
    out = tmp_path / "o"
    for command in ("train", "generate"):
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert line.split("=")[0] in capsys.readouterr().err
        assert not out.exists()


# p follows the scheme: an RK2 config needs no p= line, and the p= line
# that configs written before carry is only checked against the scheme
@pytest.mark.parametrize("legacy, rc", [("", 0), ("p=2\n", 0), ("p=1\n", 2)],
                         ids=["no-p-line", "p=2", "p=1"])
def test_legacy_p_line_is_checked_against_the_scheme(
        tmp_path, cfg_file, capsys, legacy, rc):
    cfg = tmp_path / "rk2.cfg"
    cfg.write_text(open(cfg_file).read() + "n_records=50\nepochs=1\n"
                   "scheme=rk2\n" + legacy)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == rc
    if rc:
        assert "p must be the order of scheme 'rk2', 2; got 1" in (
            capsys.readouterr().err)
        assert not (out / "model.json").exists()
    else:
        assert load_model(out / "model.json").p == 2


def test_model_scheme_without_terms_fails_before_generating(
        tmp_path, cfg_file, capsys, monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr("modfield.training.generate_dataset", no_data)
    cfg = tmp_path / "dopri5.cfg"
    cfg.write_text(open(cfg_file).read() + "scheme=dopri5\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "scheme: 'dopri5' has no correction terms" in (
        capsys.readouterr().err)


def test_model_order_off_the_scheme_is_a_usage_error(tmp_path, untrained,
                                                     capsys):
    doc = json.loads(open(untrained).read())
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(dict(doc, p=3)))
    rc = main(["convergence", "--model", str(path), "--out",
               str(tmp_path / "o"), "--T", "1.0", "--h-list", "0.25"])
    assert rc == 2
    assert "p must be the order of scheme 'euler', 1; got 3" in (
        capsys.readouterr().err)


def test_negative_seed_flag_is_a_usage_error(tmp_path, cfg_file, capsys):
    out = tmp_path / "o"
    rc = main(["generate", "--config", cfg_file, "--seed", "-1",
               "--out", str(out)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


@pytest.fixture(scope="module")
def untrained(tmp_path_factory):
    path = tmp_path_factory.mktemp("untrained") / "model.json"
    save_model(init_model(get_system("pendulum"), "euler", 1, 2, (6,), 0),
               path)
    return str(path)


# one bad step or horizon per command: zero (once a ZeroDivisionError),
# negative, non-finite
@pytest.mark.parametrize("command, flag, value", [
    ("field-error-map", "--h", "0"),
    ("field-error-map", "--h-list", "0.1,-0.1"),
    ("convergence", "--T", "-1"),
    ("convergence", "--T", "nan"),
    ("convergence", "--h-list", "-0.1"),
    ("efficiency", "--h-list", "0"),
    ("efficiency", "--T", "inf"),
    ("invariant-drift", "--h", "0"),
    ("invariant-drift", "--T", "0"),
    ("compare-alt", "--h-list", "0"),
    ("compare-alt", "--T", "-inf"),
])
def test_bad_step_or_horizon_is_a_usage_error(tmp_path, cfg_file, untrained,
                                              capsys, command, flag, value):
    models = (["--model-std", untrained, "--model-alt", untrained]
              if command == "compare-alt" else ["--model", untrained])
    out = tmp_path / "o"
    rc = main([command, "--config", cfg_file, *models, "--out", str(out),
               f"{flag}={value}"])
    assert rc == 2
    assert f"{flag} must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k_list, bad", [("-1", "-1"), ("1", "1"),
                                         ("2,6", "6"), ("0,3", "0")])
def test_efficiency_k_outside_the_scheme_is_a_usage_error(
        tmp_path, cfg_file, untrained, capsys, k_list, bad):
    out = tmp_path / "eff"
    rc = main(["efficiency", "--config", cfg_file, "--model", untrained,
               "--out", str(out), "--T", "1.0", "--h-list", "0.25",
               "--tol-list", "1e-6", f"--k-list={k_list}", "--repeats", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--k-list entry {bad} is outside 2..5" in err
    assert "'euler'" in err
    assert not out.exists()


def test_zero_tolerance_is_a_usage_error(tmp_path, cfg_file, capsys):
    path = tmp_path / "model.json"
    save_model(init_model(get_system("pendulum"), "euler", 1, 2, (6,), 0),
               path)
    rc = main(["efficiency", "--config", cfg_file, "--model", str(path),
               "--out", str(tmp_path / "eff"), "--T", "1.0",
               "--h-list", "0.25", "--tol-list", "0", "--k-list", "2",
               "--repeats", "3"])
    assert rc == 2
    assert "--tol-list must be finite and > 0" in capsys.readouterr().err


# a bad tolerance or grid size is refused before any model is trained or
# any trajectory is stepped, and the message names the flag
@pytest.mark.parametrize("command, flag, value", [
    ("efficiency", "--tol-list", "1e-6,-1"),
    ("efficiency", "--tol-list", "nan"),
    ("efficiency", "--tol-list", "1e-6,inf"),
    ("param-study", "--grid-n", "1"),
    ("field-error-map", "--grid-n", "0"),
])
def test_bad_tolerance_or_grid_fails_before_any_work(
        tmp_path, cfg_file, untrained, capsys, monkeypatch, command, flag,
        value):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    for name in ("training.generate_dataset", "bench_cli.integrate",
                 "bench_cli.box_grid"):
        monkeypatch.setattr(f"modfield.{name}", no_work)
    extra = {"efficiency": ["--model", untrained, "--h-list", "0.25"],
             "param-study": ["--widths", "4", "--data-sizes", "30"],
             "field-error-map": ["--model", untrained]}[command]
    out = tmp_path / "o"
    rc = main([command, "--config", cfg_file, "--out", str(out), *extra,
               f"{flag}={value}"])
    assert rc == 2
    assert (f"{flag} must be >= 2" if flag == "--grid-n"
            else f"{flag} must be finite and > 0") in capsys.readouterr().err
    assert not out.exists()


def test_training_divergence_is_a_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "div.cfg"
    save_config(micro_cfg(learning_rate=1e200), cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_training_divergence_names_the_dataset_row(tmp_path, cfg_file,
                                                  capsys):
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg_file, "--out", str(gen)]) == 0
    ds = load_dataset(gen / "dataset.csv")
    cfg = micro_cfg()
    train_set, _ = split_dataset(ds, cfg.train_fraction, cfg.seed)
    k = int(np.flatnonzero((ds.y0 == train_set.y0[5]).all(axis=1))[0])
    ds.y1[k] = 1e300  # finite in the CSV; its squared residual overflows
    bad = tmp_path / "bad.csv"
    save_dataset(ds, bad)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", cfg_file, "--data", str(bad),
                   "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "training diverged at epoch 1" in err
    assert f"record 5 of the training split, dataset record {k}\n" in err
    assert not (tmp_path / "o").exists()


def test_unreachable_shell_is_a_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "corner.cfg"
    save_config(micro_cfg(system="rigid_body", omega_lower=(-2.0,) * 3,
                          omega_upper=(2.0,) * 3, omega_shell=(3.46, 3.5)),
                cfg)
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "record 0" in capsys.readouterr().err


# a malformed value names its config line and key
@pytest.mark.parametrize("line, key", [("epochs=x", "epochs"),
                                       ("h_min=abc", "h_min"),
                                       ("hidden=6,x", "hidden"),
                                       ("omega_shell=1,b", "omega_shell"),
                                       ("p=two", "p")])
def test_malformed_config_value_names_line_and_key(tmp_path, cfg_file,
                                                   capsys, line, key):
    text = open(cfg_file).read() + line + "\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    rc = main(["generate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"config line {text.count(chr(10))}: {key}: " in (
        capsys.readouterr().err)
    assert not out.exists()


# --y0 must hold the system's dim finite values, checked before any work
@pytest.mark.parametrize("value", ["nan,0", "inf,0", "1.5", "1,2,3", "1,x"])
@pytest.mark.parametrize("command", ["convergence", "efficiency",
                                     "invariant-drift", "compare-alt"])
def test_bad_start_state_is_a_usage_error(tmp_path, cfg_file, untrained,
                                          capsys, command, value):
    models = (["--model-std", untrained, "--model-alt", untrained]
              if command == "compare-alt" else ["--model", untrained])
    out = tmp_path / "o"
    rc = main([command, "--config", cfg_file, *models, "--out", str(out),
               "--T", "1.0", f"--y0={value}"])
    assert rc == 2
    assert "--y0 must be 2 finite" in capsys.readouterr().err
    assert not out.exists()


# a usage error found while a command runs leaves no output directory:
# (extra arguments, MODFIELD_WORKERS) per command
BODY_ERRORS = {
    "generate": ([], "0"),
    "train": (["--data", "missing.csv"], "1"),
    "train-alt": ([], "0"),
    "field-error-map": (["--model", "{untrained}", "--k", "9"], "1"),
    "param-study": (["--widths", "0"], "1"),
    "efficiency": (["--model", "{untrained}", "--repeats", "2"], "1"),
}


@pytest.mark.parametrize("command", BODY_ERRORS)
def test_usage_error_leaves_no_output_directory(
        tmp_path, cfg_file, untrained, capsys, monkeypatch, command):
    extra, workers = BODY_ERRORS[command]
    monkeypatch.setenv("MODFIELD_WORKERS", workers)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "o"
    rc = main([command, "--config", cfg_file, "--out", str(out),
               *(a.format(untrained=untrained) for a in extra)])
    assert rc == 2
    capsys.readouterr()
    assert not out.exists()


# the per-term route fits Euler defects, so it refuses any other scheme
@pytest.mark.parametrize("scheme", ["rk2", "rk2_heun", "midpoint"])
def test_per_term_route_refuses_a_non_euler_scheme(tmp_path, capsys, scheme):
    cfg = tmp_path / "scheme.cfg"
    save_config(micro_cfg(scheme=scheme), cfg)
    out = tmp_path / "o"
    rc = main(["train-alt", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "error: scheme: " in capsys.readouterr().err
    assert not out.exists()
