import copy
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from modfield import neural, training
from modfield.errors import (ConditioningError, DomainSamplingError,
                             TrainingDivergedError)
from modfield.integrators import adaptive_flow_batch, box_grid, get_tableau
from modfield.modified_field import truncated_field
from modfield.neural import (ModifiedFieldModel, init_model, mlp_forward,
                             mlp_init)
from modfield.training import (
    _draw_state,
    _record_rngs,
    _record_words,
    _regress_loss_and_grad,
    PRESETS,
    Dataset,
    TrainConfig,
    alt_extract_targets,
    alt_train,
    build_alt_training_data,
    format_config,
    generate_dataset,
    get_preset,
    learning_error_delta,
    load_config,
    load_dataset,
    parse_config,
    save_config,
    save_dataset,
    split_dataset,
    train,
)


def micro_config(**kw):
    base = dict(n_records=60, batch_size=16, epochs=3, h_min=0.1, h_max=0.5,
                seed=11, n_terms=2, hidden=(6,), print_every=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def micro_data():
    cfg = micro_config()
    ds = generate_dataset(cfg)
    tr, te = split_dataset(ds, cfg.train_fraction, cfg.seed)
    return cfg, tr, te


# -- configuration ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(train_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(train_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(h_min=0.5, h_max=0.1)
    with pytest.raises(ValueError):
        TrainConfig(h_min=-0.1, h_max=0.5)
    with pytest.raises(ValueError):
        TrainConfig(n_records=-1)
    with pytest.raises(ValueError):
        TrainConfig(n_terms=0)
    with pytest.raises(ValueError):
        TrainConfig(n_steps=0)


# a p= line, which every config written before p followed the scheme
# carries, is checked against the scheme's order
@pytest.mark.parametrize("kw, key", [
    (dict(scheme="rk2", p=1), "p must be the order of scheme 'rk2', 2; got 1"),
    (dict(scheme="midpoint", p=1), "p must be the order"),
    (dict(scheme="euler", p=3), "p must be the order"),
    (dict(scheme="rk4"), "scheme: unknown scheme 'rk4'"),
    # DOPRI5 steps fine, but it has no correction terms to learn
    (dict(scheme="dopri5"), "scheme: 'dopri5' has no correction terms"),
])
def test_config_order_must_match_the_scheme(kw, key):
    with pytest.raises(ValueError, match=key):
        parse_config("".join(f"{k}={v}\n" for k, v in kw.items()))


def test_config_accepts_each_scheme_at_its_order():
    for scheme, p in (("euler", 1), ("rk2", 2), ("rk2_heun", 2),
                      ("rk2_midpoint", 2), ("midpoint", 2)):
        assert TrainConfig(scheme=scheme).p == p
        assert parse_config(f"scheme={scheme}\np={p}\n").p == p


def test_p_is_the_scheme_order_not_a_key():
    assert "p" not in {f.name for f in fields(TrainConfig)}
    for name in PRESETS:
        cfg = get_preset(name)
        assert cfg.p == get_tableau(cfg.scheme).order, name
        assert not any(ln.startswith("p=")
                       for ln in format_config(cfg).splitlines())


@pytest.mark.parametrize("kw, key", [
    (dict(system="rigid_body"), "omega_lower must have 3 entries"),
    (dict(system="rigid_body", omega_lower=(-1.0,) * 3),
     "omega_upper must have 3 entries"),
    (dict(omega_upper=(2.0, 2.0, 2.0)), "omega_upper must have 2 entries"),
    (dict(system="unicorn"), "system: unknown system 'unicorn'"),
])
def test_config_domain_must_match_the_system(kw, key):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**kw)


@pytest.mark.parametrize("hidden", [(), None, (0,), (0, 0), (50, 0), (-3,)])
def test_config_rejects_empty_or_zero_hidden_width(hidden):
    with pytest.raises(ValueError, match="hidden must list"):
        TrainConfig(hidden=hidden)


def test_config_domain_carries_shell():
    cfg = TrainConfig(system="rigid_body", omega_lower=(-2.0, -2.0, -2.0),
                      omega_upper=(2.0, 2.0, 2.0),
                      omega_shell=(0.98, 1.02))
    box = cfg.domain()
    assert box.lower.shape == (3,)
    assert box.shell == (0.98, 1.02)
    assert TrainConfig().domain().shell is None


def test_config_round_trip(tmp_path):
    cfg = TrainConfig(system="rigid_body", scheme="rk2",
                      omega_lower=(-1.0, -1.0, -1.0),
                      omega_upper=(1.0, 1.0, 1.0), omega_shell=(0.9, 1.1),
                      h_min=0.02, h_max=1.5, n_records=123, n_terms=4,
                      hidden=(10, 20), learning_rate=3e-4, epochs=7,
                      seed=99, n_steps=6)
    path = tmp_path / "run.cfg"
    path.write_text(format_config(cfg))
    assert load_config(path) == cfg
    # bounds with more than 6 significant digits read back bit for bit,
    # and widths stay integers
    cfg = replace(cfg, omega_lower=(-1.2345678901, -2.0, -0.1),
                  omega_shell=(0.98765432109876, 1.0123456789012345),
                  hidden=(1234567, 8))
    save_config(cfg, path)
    assert "hidden=1234567,8\n" in path.read_text()
    assert load_config(path) == cfg


def test_parse_config_overrides_and_comments():
    cfg = parse_config("""
        # comment line
        scheme = rk2   # trailing comment
        p = 2
        epochs = 4
        omega_shell =
        hidden = 12,34
    """)
    assert cfg.scheme == "rk2"
    assert cfg.epochs == 4
    assert cfg.omega_shell is None
    assert cfg.hidden == (12, 34)
    # untouched keys keep their defaults
    assert cfg.h_min == TrainConfig().h_min


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError, match="key=value"):
        parse_config("just some words\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("not_a_field=3\n")


def test_get_preset_returns_copies():
    a = get_preset("desk-pendulum-euler")
    b = get_preset("desk-pendulum-euler")
    assert a == b and a is not b
    with pytest.raises(KeyError, match="unknown preset"):
        get_preset("desk-nonexistent")


# -- dataset generation ----------------------------------------------------


def test_generate_dataset_marginals():
    cfg = TrainConfig(n_records=200, seed=42, h_min=0.05, h_max=0.8)
    ds = generate_dataset(cfg)
    assert len(ds) == 200 and ds.dim == 2
    assert ds.resampled == 0
    assert ds.h.min() >= cfg.h_min and ds.h.max() <= cfg.h_max
    box = cfg.domain()
    assert np.all(ds.y0 >= box.lower) and np.all(ds.y0 <= box.upper)
    assert (ds.system, ds.scheme, ds.tol) == ("pendulum", "euler", cfg.tol)


def test_generate_dataset_deterministic_and_worker_independent():
    cfg = TrainConfig(n_records=150, seed=7, h_min=0.1, h_max=0.5)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    c = generate_dataset(cfg, workers=2)
    for other in (b, c):
        assert np.array_equal(a.y0, other.y0)
        assert np.array_equal(a.h, other.h)
        assert np.array_equal(a.y1, other.y1)


def test_generate_dataset_records_are_reference_flows():
    cfg = TrainConfig(n_records=100, seed=3, h_min=0.1, h_max=1.0, tol=1e-10)
    ds = generate_dataset(cfg)
    idx = np.arange(0, len(ds), 13)
    from modfield.systems import get_system
    out, ok, _ = adaptive_flow_batch(get_system(cfg.system),
                                     ds.y0[idx], ds.h[idx], 1e-12, 1e-12)
    assert ok.all()
    # regenerating at a 100x tighter tolerance must agree within the
    # dataset's own accuracy budget
    assert np.abs(out - ds.y1[idx]).max() <= 1e-8


def one_at_a_time(cfg, i):
    """Record ``i``'s ``(y0, h)`` from single-state draws, and the
    ``random()`` its stream gives right after ``y0``: the stream contract
    the sampler keeps."""
    box = cfg.domain()
    rng = np.random.default_rng([cfg.seed, i])
    while True:
        x = rng.uniform(box.lower, box.upper)
        if box.shell is None or (
                box.shell[0] <= float(np.linalg.norm(x)) <= box.shell[1]):
            break
    after = copy.deepcopy(rng).random()
    h = math.exp(rng.uniform(math.log(cfg.h_min), math.log(cfg.h_max)))
    return x, h, after


@pytest.mark.parametrize("cfg", [
    TrainConfig(system="rigid_body", omega_lower=(-2.0,) * 3,
                omega_upper=(2.0,) * 3, omega_shell=(0.98, 1.02),
                h_min=0.5, h_max=2.5, n_records=40, seed=8),
    TrainConfig(n_records=40, seed=8),
], ids=["rigid_body_shell", "pendulum_box"])
def test_sampler_keeps_the_one_at_a_time_stream(cfg):
    ds = generate_dataset(cfg)
    box = cfg.domain()
    for i in range(len(ds)):
        x, h, after = one_at_a_time(cfg, i)
        assert ds.y0[i].tobytes() == x.tobytes()
        assert ds.h[i] == h
        rng = np.random.default_rng([cfg.seed, i])
        _draw_state(rng, box)
        assert rng.random() == after


# one to four seed words; 2**100 + 5 puts the index past the 4-word pool
RECORD_SEEDS = [0, 1, 1234, 2**32 - 1, 2**32, 2**64 + 7, 2**100 + 5]


@pytest.mark.parametrize("seed", RECORD_SEEDS)
def test_record_words_are_the_seed_sequence_state(seed):
    # 19_999 and 20_000 straddle generate_dataset's chunk edge
    for start, stop in [(0, 3), (19_999, 20_001), (123_456, 123_458)]:
        words = _record_words(seed, start, stop)
        assert words.shape == (stop - start, 4)
        assert words.dtype == np.uint64
        for k, i in enumerate(range(start, stop)):
            want = np.random.SeedSequence([seed, i]).generate_state(
                4, np.uint64)
            assert np.array_equal(words[k], want), (seed, i)


@pytest.mark.parametrize("seed", RECORD_SEEDS)
def test_record_rngs_draw_what_default_rng_draws(seed):
    rngs = _record_rngs(seed, 5, 9)
    assert len(rngs) == 4
    for i, rng in zip(range(5, 9), rngs):
        ref = np.random.default_rng([seed, i])
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.uniform(-2.0, 2.0, size=(7, 3)),
                              ref.uniform(-2.0, 2.0, size=(7, 3)))
        assert rng.random() == ref.random()


def test_record_rng_copy_continues_the_stream():
    rng = _record_rngs(8, 3, 4)[0]
    ref = np.random.default_rng([8, 3])
    rng.uniform(size=5)
    ref.uniform(size=5)
    twin = copy.deepcopy(rng)
    assert type(twin) is type(rng)
    ahead = twin.uniform(size=(300, 3))
    # the original stays where it was: it draws what the copy drew
    assert np.array_equal(rng.uniform(size=(300, 3)), ahead)
    assert np.array_equal(ahead, ref.uniform(size=(300, 3)))
    assert twin.random() == rng.random() == ref.random()


def test_record_index_must_fit_one_entropy_word():
    words = _record_words(7, 2**32 - 1, 2**32)
    want = np.random.SeedSequence([7, 2**32 - 1]).generate_state(4, np.uint64)
    assert np.array_equal(words[0], want)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _record_words(7, 2**32 - 1, 2**32 + 1)
    with pytest.raises(ValueError, match="seed"):
        _record_rngs(-1, 0, 3)


def test_unreachable_shell_names_the_record():
    # the shell meets only the box corners, about 1e-8 of the box volume
    cfg = TrainConfig(system="rigid_body", omega_lower=(-2.0,) * 3,
                      omega_upper=(2.0,) * 3, omega_shell=(3.46, 3.5),
                      n_records=3, seed=9)
    with pytest.raises(DomainSamplingError, match="record 0") as info:
        generate_dataset(cfg)
    assert info.value.record == 0


def test_generate_dataset_empty():
    ds = generate_dataset(TrainConfig(n_records=0))
    assert len(ds) == 0 and ds.dim == 2


def test_dataset_round_trip(tmp_path):
    cfg = TrainConfig(n_records=40, seed=5)
    ds = generate_dataset(cfg)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.y0, ds.y0)
    assert np.array_equal(back.h, ds.h)
    assert np.array_equal(back.y1, ds.y1)
    assert (back.system, back.scheme, back.tol) == (ds.system, ds.scheme, ds.tol)


def test_save_dataset_renders_each_value_exactly(tmp_path):
    y0 = np.array([[-0.0, 5e-324], [1e300, -2.2250738585072014e-308]])
    y1 = np.array([[math.pi, -1e-310], [0.1, 1.0]])
    ds = Dataset(y0, np.array([0.5, 1e-17]), y1, "pendulum", "euler", 1e-10)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    rows = open(path).read().splitlines()[3:]
    assert rows == [",".join(neural.format_exact(v)
                             for v in [*ds.y0[i], ds.h[i], *ds.y1[i]])
                    for i in range(len(ds))]
    assert rows[0].startswith("-0,4.9406564584124654e-324,")


def test_load_dataset_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y0_1,y0_2,h,y1_1,y1_2\n0,0,0.1,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(path)


def test_load_dataset_rejects_short_rows(tmp_path):
    # 5 rows of 4 fields hold 20 numbers, which would reshape silently into
    # 4 misaligned records of 5
    path = tmp_path / "short.csv"
    rows = "".join(f"{i}.1,{i}.2,{i}.3,{i}.4\n" for i in range(5))
    path.write_text("# d,system,scheme,tol\n# 2,pendulum,euler,1e-12\n"
                    "y0_1,y0_2,h,y1_1,y1_2\n" + rows)
    with pytest.raises(ValueError, match="line 4 has 4 fields, expected 5"):
        load_dataset(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_dataset_rejects_non_finite_fields(tmp_path, bad):
    rows = [f"{i}.1,{i}.2,0.{i + 1},{i}.4,{i}.5" for i in range(40)]
    rows[7] = rows[7].rsplit(",", 1)[0] + "," + bad
    path = tmp_path / "bad.csv"
    path.write_text("# d,system,scheme,tol\n# 2,pendulum,euler,1e-12\n"
                    "y0_1,y0_2,h,y1_1,y1_2\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 11 has a "
                                         "non-finite field"):
        load_dataset(path)


def test_split_dataset():
    cfg = TrainConfig(n_records=100, seed=1)
    ds = generate_dataset(cfg)
    tr, te = split_dataset(ds, 0.8, seed=1234)
    assert len(tr) == 80 and len(te) == 20
    # the split is a partition of the original records
    all_h = np.sort(np.concatenate([tr.h, te.h]))
    assert np.array_equal(all_h, np.sort(ds.h))
    tr2, te2 = split_dataset(ds, 0.8, seed=1234)
    assert np.array_equal(tr.y0, tr2.y0) and np.array_equal(te.y1, te2.y1)
    with pytest.raises(ValueError):
        split_dataset(ds, 1.0, seed=0)


def test_dataset_indexing():
    ds = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0) + 1.0,
                 np.zeros((4, 2)))
    sub = ds.subset(slice(1, 3))
    assert len(sub) == 2 and np.array_equal(sub.h, [2.0, 3.0])
    assert np.array_equal(sub.y0[1], [4.0, 5.0])
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2), np.zeros((3, 2)))


# -- the standard (joint) training loop ------------------------------------


def test_train_zero_epochs_is_identity(micro_data, pendulum):
    cfg, tr, te = micro_data
    model = init_model(pendulum, cfg.scheme, cfg.p, cfg.n_terms,
                       cfg.hidden, cfg.seed)
    before = [p.copy() for p in model.parameters()]
    model, report = train(model, cfg.scheme, tr, te, replace(cfg, epochs=0))
    assert all(np.array_equal(a, b)
               for a, b in zip(before, model.parameters()))
    assert report.train_losses == [] and report.test_losses == []
    assert report.initial_train > 0 and report.initial_test > 0


def test_train_deterministic(micro_data, pendulum):
    cfg, tr, te = micro_data
    runs = []
    for _ in range(2):
        model = init_model(pendulum, cfg.scheme, cfg.p, cfg.n_terms,
                           cfg.hidden, cfg.seed)
        model, report = train(model, cfg.scheme, tr, te, cfg)
        runs.append(([p.copy() for p in model.parameters()], report))
    (pa, ra), (pb, rb) = runs
    assert all(np.array_equal(a, b) for a, b in zip(pa, pb))
    assert ra.train_losses == rb.train_losses
    assert ra.test_losses == rb.test_losses
    assert ra.initial_train == rb.initial_train


def test_train_reduces_loss(micro_data, pendulum):
    cfg, tr, te = micro_data
    model = init_model(pendulum, cfg.scheme, cfg.p, cfg.n_terms,
                       cfg.hidden, cfg.seed)
    model, report = train(model, cfg.scheme, tr, te, cfg)
    assert len(report.train_losses) == cfg.epochs
    assert len(report.seconds) == cfg.epochs
    assert report.train_losses[-1] < report.initial_train


def test_train_divergence_is_reported(micro_data, pendulum):
    cfg, tr, te = micro_data
    bad = replace(cfg, learning_rate=1e200, epochs=2)
    model = init_model(pendulum, cfg.scheme, cfg.p, cfg.n_terms,
                       cfg.hidden, cfg.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            train(model, cfg.scheme, tr, te, bad)
    assert exc.value.epoch >= 1 and exc.value.batch >= 1


def test_train_divergence_names_the_training_set_record(micro_data,
                                                       pendulum):
    cfg, tr, te = micro_data
    k = 17
    bad = tr.subset(np.arange(len(tr)))
    bad.y1[k] = np.nan
    model = init_model(pendulum, cfg.scheme, cfg.p, cfg.n_terms,
                       cfg.hidden, cfg.seed)
    with pytest.raises(TrainingDivergedError) as exc:
        train(model, cfg.scheme, bad, te, cfg)
    perm = np.random.default_rng([cfg.seed, 977]).permutation(len(tr))
    position = int(np.flatnonzero(perm == k)[0])
    assert exc.value.epoch == 1
    assert exc.value.batch == position // cfg.batch_size
    assert exc.value.record == k
    assert f"record {k}" in str(exc.value)
    assert f"batch {exc.value.batch}" in str(exc.value)


def _epoch_batches(n, cfg, seed):
    """The record indices of each batch, epoch after epoch, in the order
    the mini-batch driver draws them."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        batches += [perm[s:s + cfg.batch_size]
                    for s in range(0, n, cfg.batch_size)]
    return batches


def test_train_batches_are_slices_of_each_epoch_permutation(
        micro_data, pendulum, monkeypatch):
    cfg, tr, te = micro_data
    cfg = replace(cfg, batch_size=20)  # a short last batch too
    seen = []

    def recording(model, scheme, batch):
        seen.append((batch.y0.copy(), batch.h.copy(), batch.y1.copy()))
        return 0.0, np.zeros_like(model.theta)

    monkeypatch.setattr(neural, "step_loss_and_grad", recording)
    model = init_model(pendulum, cfg.scheme, cfg.p, cfg.n_terms,
                       cfg.hidden, cfg.seed)
    train(model, cfg.scheme, tr, te, cfg)
    want = _epoch_batches(len(tr), cfg, [cfg.seed, 977])
    assert len(seen) == len(want) == 3 * cfg.epochs
    for (y0, h, y1), idx in zip(seen, want):
        assert np.array_equal(y0, tr.y0[idx])
        assert np.array_equal(h, tr.h[idx])
        assert np.array_equal(y1, tr.y1[idx])


def test_regression_batches_are_slices_of_each_epoch_permutation(
        monkeypatch):
    cfg = micro_config(batch_size=7, epochs=2, seed=3)
    rng = np.random.default_rng(3)
    X, C = rng.normal(size=(20, 2)), rng.normal(size=(1, 20, 2))
    XR, R = rng.normal(size=(45, 3)), rng.normal(size=(45, 2))
    seen = []

    def recording(net, x, t):
        seen.append((x.copy(), t.copy()))
        return 0.0, np.zeros_like(net.vector)

    monkeypatch.setattr(training, "_regress_loss_and_grad", recording)
    nets = [mlp_init([2, 6, 2], [3, 0]), mlp_init([3, 6, 2], [3, 1])]
    alt_train(nets, (X, C), (XR, R), cfg)
    want = [(X, C[0], idx)
            for idx in _epoch_batches(len(X), cfg, [cfg.seed, 50])]
    want += [(XR, R, idx)
             for idx in _epoch_batches(len(XR), cfg, [cfg.seed, 51])]
    assert len(seen) == len(want) == 2 * (3 + 7)
    for (x, t), (data_x, data_t, idx) in zip(seen, want):
        assert np.array_equal(x, data_x[idx])
        assert np.array_equal(t, data_t[idx])


def test_empty_training_sets_report_zero_losses(pendulum):
    cfg = micro_config(n_records=0, n_terms=3, n_steps=4)
    empty = generate_dataset(cfg)
    model = init_model(pendulum, cfg.scheme, cfg.p, cfg.n_terms,
                       cfg.hidden, cfg.seed)
    X, C, XR, R, _ = build_alt_training_data(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = train(model, cfg.scheme, empty, empty, cfg)
        _, histories = alt_train(model.nets, (X, C), (XR, R), cfg)
    assert report.train_losses == report.test_losses == [0.0] * cfg.epochs
    assert histories == [[0.0] * cfg.epochs] * 3


# -- per-term target extraction --------------------------------------------


def synthetic_flows(field, y0, steps, coeffs, p=1):
    # y(h) = y0 + h f(y0) + sum_j h^(p+j) c_j, exactly in the model class
    f0 = field(y0)
    return np.array([y0 + h * f0 +
                     sum(h ** (p + j) * c for j, c in enumerate(coeffs, 1))
                     for h in steps])


@pytest.mark.parametrize("n_terms", [2, 3, 4])
def test_alt_extraction_exact_on_polynomial_flows(pendulum, n_terms):
    rng = np.random.default_rng(99)
    steps = np.geomspace(0.1, 1.6, 5)
    y0 = rng.uniform(-1.0, 1.0, size=2)
    cs = rng.normal(size=(n_terms - 1, 2))
    flows = synthetic_flows(pendulum, y0, steps, cs)
    c, r = alt_extract_targets(pendulum, y0, steps, n_terms, 1, flows=flows)
    assert np.abs(c - cs).max() <= 1e-8
    assert np.abs(r).max() <= 1e-8


def test_alt_extraction_zero_defect(pendulum):
    steps = np.geomspace(0.1, 1.6, 5)
    y0 = np.array([0.4, -0.3])
    flows = synthetic_flows(pendulum, y0, steps, np.zeros((2, 2)))
    c, r = alt_extract_targets(pendulum, y0, steps, 3, 1, flows=flows)
    assert c.shape == (2, 2) and r.shape == (5, 2)
    assert np.abs(c).max() <= 1e-12
    assert np.abs(r).max() <= 1e-10


def test_alt_extraction_recovers_first_correction(pendulum):
    # small steps: the fitted h^2 coefficient approaches the first
    # correction term of the Euler expansion
    steps = np.array([0.000625, 0.00125, 0.0025, 0.005, 0.01])
    y0 = np.array([1.0, 0.0])
    c, _ = alt_extract_targets(pendulum, y0, steps, 3, 1, tol=1e-13)
    f1 = truncated_field(pendulum, "euler", 2).terms(y0)[0]
    assert np.abs(c[0] - f1).max() <= 1e-4


def test_alt_extraction_batch_matches_scalar(pendulum, rng):
    steps = np.geomspace(0.05, 0.5, 4)
    Y = rng.uniform(-1.5, 1.5, size=(6, 2))
    C, R = alt_extract_targets(pendulum, Y, steps, 3, 1)
    assert C.shape == (6, 2, 2) and R.shape == (6, 4, 2)
    c0, r0 = alt_extract_targets(pendulum, Y[3], steps, 3, 1)
    assert np.allclose(C[3], c0, rtol=0, atol=1e-12)
    assert np.allclose(R[3], r0, rtol=0, atol=1e-12)


def test_alt_extraction_step_validation(pendulum):
    y0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="increasing"):
        alt_extract_targets(pendulum, y0, [0.5, 0.1, 0.2], 3, 1)
    with pytest.raises(ValueError, match="at least"):
        alt_extract_targets(pendulum, y0, [0.1], 3, 1)
    eps = 1e-12
    with pytest.raises(ConditioningError):
        alt_extract_targets(pendulum, y0,
                            [0.01, 0.01 * (1 + eps), 0.01 * (1 + 2 * eps)],
                            3, 1)


def test_build_alt_training_data_shapes(pendulum):
    cfg = micro_config(n_records=30, n_terms=3, n_steps=4)
    X, C, XR, R, steps = build_alt_training_data(cfg)
    assert X.shape == (30, 2)
    assert C.shape == (2, 30, 2)  # one target block per correction term
    assert XR.shape == (120, 3) and R.shape == (120, 2)
    assert np.allclose(steps, np.geomspace(cfg.h_min, cfg.h_max, 4))
    # remainder inputs carry the step in the last column
    assert set(np.unique(XR[:, 2])) == set(steps)
    X2, C2, XR2, R2, _ = build_alt_training_data(cfg)  # a pure function
    assert np.array_equal(X, X2) and np.array_equal(C, C2)
    assert np.array_equal(XR, XR2) and np.array_equal(R, R2)


def test_alt_train_fits_zero_targets(pendulum):
    cfg = micro_config(n_records=40, batch_size=10, epochs=30, n_terms=2,
                       hidden=(8,), seed=5, n_steps=3, learning_rate=5e-3)
    X, C, XR, R, _ = build_alt_training_data(cfg)
    nets = [mlp_init([2, 8, 2], [5, 0]), mlp_init([3, 8, 2], [5, 1])]
    _, hist = alt_train(nets, (X, np.zeros_like(C)), (XR, np.zeros_like(R)),
                        cfg)
    for h in hist:
        assert h[-1] < h[0] / 100.0


def test_alt_train_worker_independent(pendulum):
    cfg = micro_config(n_records=20, batch_size=10, epochs=4, n_terms=3,
                       seed=3, n_steps=4)
    X, C, XR, R, _ = build_alt_training_data(cfg)
    nets = [mlp_init([2, 6, 2], [3, 0]), mlp_init([2, 6, 2], [3, 1]),
            mlp_init([3, 6, 2], [3, 2])]
    copies = [mlp_init(list(n.layer_sizes), 0) for n in nets]
    for n, c in zip(nets, copies):
        for w, wc in zip(n.weights, c.weights):
            wc[...] = w
        for b, bc in zip(n.biases, c.biases):
            bc[...] = b
    _, h1 = alt_train(nets, (X, C), (XR, R), cfg, workers=1)
    _, h2 = alt_train(copies, (X, C), (XR, R), cfg, workers=3)
    assert h1 == h2
    for n, c in zip(nets, copies):
        assert all(np.array_equal(w, wc) for w, wc in zip(n.weights, c.weights))
        assert all(np.array_equal(b, bc) for b, bc in zip(n.biases, c.biases))


def test_alt_train_divergence_names_the_net_and_record(pendulum):
    cfg = micro_config(n_records=20, batch_size=10, epochs=2, n_terms=3,
                       seed=3, n_steps=4)
    X, C, XR, R, _ = build_alt_training_data(cfg)
    k = 40
    R[k] = np.inf
    nets = [mlp_init([2, 6, 2], [3, 0]), mlp_init([2, 6, 2], [3, 1]),
            mlp_init([3, 6, 2], [3, 2])]
    with pytest.raises(TrainingDivergedError) as exc:
        alt_train(nets, (X, C), (XR, R), cfg)
    perm = np.random.default_rng([cfg.seed, 52]).permutation(len(R))
    position = int(np.flatnonzero(perm == k)[0])
    assert "net 2 (remainder)" in str(exc.value)
    assert exc.value.epoch == 1
    assert exc.value.batch == position // cfg.batch_size
    assert exc.value.record == k
    assert f"record {k}" in str(exc.value)


@pytest.mark.parametrize("sizes", [[2, 8, 8, 2], [3, 8, 8, 2]])
def test_regression_gradient_matches_finite_differences(sizes):
    """The per-term regression loss of one batch, term net and remainder."""
    rng = np.random.default_rng(31)
    net = mlp_init(sizes, [31, len(sizes)])
    x = rng.uniform(-1.5, 1.5, size=(24, sizes[0]))
    t = rng.standard_normal((24, sizes[-1]))

    def loss():
        return float(np.mean(np.sum((mlp_forward(net, x) - t) ** 2, axis=-1)))

    value, grad = _regress_loss_and_grad(net, x, t)
    assert value == pytest.approx(loss(), rel=1e-12)
    assert grad.shape == net.vector.shape
    eps = 1e-6
    for i in rng.integers(net.vector.size, size=16):
        keep = net.vector[i]
        net.vector[i] = keep + eps
        up = loss()
        net.vector[i] = keep - eps
        dn = loss()
        net.vector[i] = keep
        assert grad[i] == pytest.approx((up - dn) / (2 * eps),
                                        rel=1e-5, abs=1e-10)


def test_alt_train_wants_one_net_per_target(pendulum):
    cfg = micro_config(n_records=10, n_terms=3, n_steps=4)
    X, C, XR, R, _ = build_alt_training_data(cfg)
    nets = [mlp_init([2, 6, 2], 0), mlp_init([3, 6, 2], 1)]
    with pytest.raises(ValueError, match="one net per term"):
        alt_train(nets, (X, C), (XR, R), cfg)


def test_assemble_alt_model_weighting(pendulum):
    nets = [mlp_init([2, 6, 2], [9, 0]), mlp_init([2, 6, 2], [9, 1]),
            mlp_init([3, 6, 2], [9, 2])]
    model = ModifiedFieldModel(pendulum, "euler", 1, 3, nets[:-1], nets[-1])
    y = np.array([0.3, -0.8])
    h = 0.37
    want = (pendulum(y) + h * mlp_forward(nets[0], y)
            + h**2 * mlp_forward(nets[1], y)
            + h**3 * mlp_forward(nets[2], np.append(y, h)))
    assert np.allclose(model.eval(y, h), want, rtol=0, atol=1e-15)


# -- learned-field error measurement ----------------------------------------


def test_learning_error_delta_zero_for_self(pendulum):
    model = init_model(pendulum, "euler", 1, 2, (8,), 5)
    box = TrainConfig().domain()
    assert learning_error_delta(model, model.eval, box, 5, [0.1, 0.3]) == 0.0


def test_learning_error_delta_zero_model_measures_first_term(pendulum):
    # a zero-initialized model is just the base field, so against the
    # two-term expansion the h^p-scaled gap is exactly |f1| on the grid
    model = init_model(pendulum, "euler", 1, 2, (8,), 5)
    for p in model.parameters():
        p[...] = 0.0
    box = TrainConfig().domain()
    f2 = truncated_field(pendulum, "euler", 2)
    delta = learning_error_delta(model, f2, box, 9, [0.1, 0.2, 0.4])
    expect = np.abs(f2.terms(box_grid(box, 9))[0]).max()
    assert math.isclose(delta, expect, rel_tol=1e-9)
