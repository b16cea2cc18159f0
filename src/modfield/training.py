"""Dataset generation, training loops, and the per-term alternative method.

Data records are exact one-step flows: ``y1 = flow(y0, h)`` with ``y0``
uniform on a box (optionally restricted to a norm shell) and ``log h``
uniform on ``[log h_min, log h_max]``.  Record ``i`` draws from its own
generator, bit for bit ``np.random.default_rng([seed, i])``, so the
dataset is reproducible from the seed alone and independent of chunking
or worker count.  Failed reference flows are resampled from the same
per-record stream and counted.

Stream contract: a record consumes exactly the doubles that drawing one
state at a time would, ``d`` per candidate state (in order, rejected ones
included) and then one for ``log h``.  The shell sampler looks ahead in
blocks on a copy of the generator and then takes the same number of
draws from the generator itself, so blocking changes no dataset.

Record generators are built in bulk (``_record_rngs``): NumPy's
``SeedSequence`` hash, which its stream-compatibility policy (NEP 19)
freezes, runs once over every record's entropy ``[seed, i]`` as wrapping
``uint32`` array arithmetic, and each ``PCG64`` takes its four seed
words from that table.  A record generator keeps its words, so a copy is
a new ``PCG64`` from the same words set to the same position, which is
far cheaper than copying through pickling.

The standard method trains all networks jointly through the integrator
step.  The alternative method, for Euler only, first extracts per-term
targets from flows at several step sizes by least squares, then regresses
each network independently (parallelizable, one job per network) through
the closed-form MLP backward.  Both run the same
mini-batch Adam driver (``_descend``); a divergence names the epoch, the
batch and the record's index into the set being trained, and on the
per-term route the network.
"""

import copy
import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import neural
from .errors import (ConditioningError, DomainSamplingError,
                     IntegrationFailureError, TrainingDivergedError)
from .integrators import adaptive_flow_batch, box_grid, get_tableau
from .modified_field import max_truncation
from .systems import DomainBox, get_system


@dataclass
class Dataset:
    """(y0, h, y1) records as float arrays, one row per record."""

    y0: np.ndarray
    h: np.ndarray
    y1: np.ndarray
    system: str = ""
    scheme: str = ""
    tol: float = 0.0
    resampled: int = 0

    def __post_init__(self):
        self.y0 = np.atleast_2d(np.asarray(self.y0, dtype=float))
        self.h = np.asarray(self.h, dtype=float).reshape(-1)
        self.y1 = np.atleast_2d(np.asarray(self.y1, dtype=float))
        if not (len(self.y0) == len(self.h) == len(self.y1)):
            raise ValueError("y0, h, y1 lengths differ")

    @property
    def dim(self):
        return self.y0.shape[1]

    def __len__(self):
        return self.y0.shape[0]

    def subset(self, idx):
        return Dataset(self.y0[idx], self.h[idx], self.y1[idx],
                       self.system, self.scheme, self.tol, 0)


@dataclass
class TrainConfig:
    """Flat experiment configuration; serialized as ``key=value`` lines.
    The order ``p`` is the scheme's, a read-only property."""

    system: str = "pendulum"
    scheme: str = "euler"
    omega_lower: tuple = (-2.0, -2.0)
    omega_upper: tuple = (2.0, 2.0)
    omega_shell: tuple = None  # (r_min, r_max) norm restriction, or None
    h_min: float = 0.1
    h_max: float = 2.5
    n_records: int = 100_000
    train_fraction: float = 0.8
    n_terms: int = 1
    hidden: tuple = (50, 50)
    learning_rate: float = 2e-3
    weight_decay: float = 1e-9
    batch_size: int = 300
    epochs: int = 50
    print_every: int = 10
    seed: int = 1234
    tol: float = 1e-10
    n_steps: int = 5  # step-grid size N_h for the alternative method

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")
        if not (0.0 < self.h_min < self.h_max < math.inf):
            raise ValueError("need 0 < h_min < h_max, both finite")
        if self.n_records < 0:
            raise ValueError("n_records must be >= 0")
        if self.n_terms < 1 or self.n_steps < 1:
            raise ValueError("n_terms, n_steps must be >= 1")
        try:
            k_max = max_truncation(self.scheme)
        except ValueError as exc:
            raise ValueError(f"scheme: {exc}") from None
        if k_max < 2:
            raise ValueError(f"scheme: {self.scheme!r} has no correction "
                             f"terms (its truncations reach k={k_max}), so "
                             "it is not a model scheme")
        try:
            dim = get_system(self.system).dim
        except ValueError as exc:
            raise ValueError(f"system: {exc}") from None
        for key in ("omega_lower", "omega_upper"):
            value = getattr(self, key)
            if value is None or len(value) != dim:
                raise ValueError(f"{key} must have {dim} entries, the "
                                 f"dimension of system {self.system!r}")
            if not all(math.isfinite(x) for x in value):
                raise ValueError(f"{key} entries must be finite, "
                                 f"got {value!r}")
        if not all(lo < up for lo, up in zip(self.omega_lower,
                                              self.omega_upper)):
            raise ValueError("omega_lower must be below omega_upper in "
                             "every entry")
        shell = self.omega_shell
        if shell is not None and not (
                len(shell) == 2 and all(math.isfinite(r) for r in shell)
                and 0.0 <= shell[0] < shell[1]):
            raise ValueError("omega_shell must be two finite radii "
                             f"0 <= r_min < r_max, got {shell!r}")
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ValueError(f"hidden must list one or more widths >= 1, "
                             f"got {self.hidden!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def p(self):
        return get_tableau(self.scheme).order

    def domain(self):
        return DomainBox(np.asarray(self.omega_lower, dtype=float),
                         np.asarray(self.omega_upper, dtype=float),
                         shell=self.omega_shell)


def format_config(cfg):
    """``key=value`` lines that :func:`parse_config` reads back exactly."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if v is None:
            lines.append(f"{f.name}=")
        elif isinstance(v, (tuple, list)):
            fmt = str if f.name == "hidden" else neural.format_exact
            lines.append(f"{f.name}=" + ",".join(fmt(x) for x in v))
        else:
            lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def _config_value(key, val, default):
    if val == "":
        return None
    if isinstance(default, int):
        return int(val)
    if isinstance(default, float):
        return float(val)
    if isinstance(default, tuple) or key in ("omega_shell", "hidden"):
        parts = [p for p in val.split(",") if p.strip() != ""]
        conv = int if key == "hidden" else float
        return tuple(conv(p) for p in parts)
    return val


def parse_config(text, base=None):
    """Parse ``key=value`` lines into a TrainConfig (defaults from ``base``).
    A ``p=`` line, as older configs carry, is checked against the scheme.
    A malformed value is a ``ValueError`` naming its line and key."""
    cfg = base or TrainConfig()
    by_name = {f.name: f for f in fields(cfg)}
    updates = {}
    legacy_p = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key != "p" and key not in by_name:
            raise ValueError(f"config line {ln}: unknown key {key!r}")
        try:
            if key == "p":
                legacy_p = int(val)
            else:
                updates[key] = _config_value(key, val,
                                             getattr(TrainConfig(), key))
        except ValueError as exc:
            raise ValueError(f"config line {ln}: {key}: {exc}") from None
    cfg = replace(cfg, **updates)
    if legacy_p is not None and legacy_p != cfg.p:
        raise ValueError(f"p must be the order of scheme {cfg.scheme!r}, "
                         f"{cfg.p}; got {legacy_p}")
    return cfg


def save_config(cfg, path):
    Path(path).write_text(format_config(cfg))


def load_config(path, base=None):
    return parse_config(Path(path).read_text(), base=base)


# Desk-scale presets run in minutes; the full-scale presets reproduce the
# published configurations and take hours to days.
PRESETS = {
    "desk-pendulum-euler": TrainConfig(),
    "desk-pendulum-rk2": TrainConfig(
        scheme="rk2", learning_rate=5e-4),
    "desk-pendulum-midpoint": TrainConfig(
        scheme="midpoint", h_min=0.05, h_max=0.5),
    "desk-rigid-body-euler": TrainConfig(
        system="rigid_body", omega_lower=(-2.0, -2.0, -2.0),
        omega_upper=(2.0, 2.0, 2.0), omega_shell=(0.98, 1.02),
        h_min=0.5, h_max=2.5),
    # the per-term route needs more optimisation steps to reach the same
    # accuracy from the same record budget: it sees 5 fixed step sizes
    # instead of a fresh random h per record
    "desk-pendulum-compare-std": TrainConfig(
        h_min=0.01, h_max=0.5, n_records=50_000, n_terms=3,
        batch_size=100, epochs=50, n_steps=5),
    "desk-pendulum-compare-alt": TrainConfig(
        h_min=0.01, h_max=0.5, n_records=50_000, n_terms=3,
        batch_size=100, epochs=200, n_steps=5),
    "paper-pendulum-euler": TrainConfig(
        n_records=25_000_000, hidden=(200, 200), epochs=200, print_every=20),
    "paper-pendulum-rk2": TrainConfig(
        scheme="rk2", n_records=100_000_000, hidden=(250, 250),
        learning_rate=5e-4, epochs=200, print_every=20),
    "paper-pendulum-midpoint": TrainConfig(
        scheme="midpoint", h_min=0.05, h_max=0.5,
        n_records=20_000_000, hidden=(200, 200), epochs=200, print_every=20),
    "paper-rigid-body-euler": TrainConfig(
        system="rigid_body", omega_lower=(-2.0, -2.0, -2.0),
        omega_upper=(2.0, 2.0, 2.0), omega_shell=(0.98, 1.02),
        h_min=0.5, h_max=2.5, n_records=100_000_000, hidden=(250, 250),
        epochs=200, print_every=20),
    "paper-pendulum-compare-std": TrainConfig(
        h_min=0.01, h_max=0.5, n_records=50_000, n_terms=3,
        batch_size=100, epochs=200, print_every=20, n_steps=5),
    "paper-pendulum-compare-alt": TrainConfig(
        h_min=0.01, h_max=0.5, n_records=76_129, n_terms=3,
        batch_size=100, epochs=200, print_every=20, n_steps=5),
}


def get_preset(name):
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; available: {known}")
    return replace(PRESETS[name])


# -- dataset generation --------------------------------------------------


_MAX_DRAWS = 10_000  # candidates tried before a shell draw gives up
_BLOCK = 256  # candidates drawn per look-ahead block

_U32 = 0xFFFF_FFFF


def _record_words(seed, start, stop):
    """Row ``k`` is ``SeedSequence([seed, start + k]).generate_state(4,
    np.uint64)``, for every record at once.

    The entropy is the seed's little-endian 32-bit words (at least one)
    and then the record index; an index needs one word, so it must be
    below 2**32.  The hash is NumPy's ``SeedSequence``: a pool of four
    words, ``hashmix`` with ``INIT_A``/``MULT_A``, ``mix``, and the
    output hash with ``INIT_B``/``MULT_B``, all on ``uint32`` arrays.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"record indices [{start}, {stop}) must lie in "
                         "[0, 2**32)")
    n = stop - start
    entropy = []
    while True:
        entropy.append(np.full(n, seed & _U32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(np.arange(start, stop, dtype=np.uint64).astype(np.uint32))

    def hasher(const, mult):
        def hash_(value):
            nonlocal const
            value = value ^ const
            const = const * mult & _U32
            value = value * const
            return value ^ (value >> 16)
        return hash_

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ (r >> 16)

    hashmix = hasher(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero)
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # eight 32-bit output words, cycling over the pool, paired
    # little-endian into four 64-bit words
    out = hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    state = [out(pool[k % 4]).astype(np.uint64) for k in range(8)]
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32)
                     for j in range(4)], axis=1)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Fixed ``PCG64`` seed words, given through NumPy's seed interface."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class _RecordRng(np.random.Generator):
    """A record's generator from its seed words; copies without pickling."""

    def __init__(self, words):
        super().__init__(np.random.PCG64(_SeedWords(words)))
        self.words = words

    def __deepcopy__(self, memo):
        twin = _RecordRng(self.words)
        twin.bit_generator.state = self.bit_generator.state
        return twin


def _record_rngs(seed, start, stop):
    """Generators of records [start, stop), each bit for bit
    ``np.random.default_rng([seed, i])``."""
    return [_RecordRng(w) for w in _record_words(seed, start, stop)]


def _draw_state(rng, box):
    """One state of ``box``: a uniform draw, rejected until in the shell.

    Only ``rng.uniform`` is called, and ``rng`` ends where drawing one
    candidate at a time would leave it.  The shell search runs in blocks
    on a copy of ``rng``; a vectorised norm with a 1e-12 relative margin
    preselects candidates, and the scalar test decides, so every accept
    is the one-at-a-time accept.
    """
    lower = box.lower
    span = box.upper - lower
    d = lower.size
    if box.shell is None:
        return lower + span * rng.uniform(0.0, 1.0, size=d)
    r_min, r_max = box.shell
    probe = copy.deepcopy(rng)
    drawn = 0
    while drawn < _MAX_DRAWS:
        m = min(_BLOCK, _MAX_DRAWS - drawn)
        xs = lower + span * probe.uniform(0.0, 1.0, size=(m, d))
        r = np.linalg.norm(xs, axis=1)
        near = (r >= r_min * (1.0 - 1e-12)) & (r <= r_max * (1.0 + 1e-12))
        for j in np.flatnonzero(near):
            if r_min <= float(np.linalg.norm(xs[j])) <= r_max:
                n = drawn + int(j) + 1
                return lower + span * rng.uniform(0.0, 1.0, size=(n, d))[-1]
        drawn += m
    raise DomainSamplingError(
        f"no state with {r_min:g} <= |y| <= {r_max:g} in {_MAX_DRAWS} "
        "uniform draws from the box")


def _draw_record_state(rng, box, record):
    try:
        return _draw_state(rng, box)
    except DomainSamplingError as exc:
        raise DomainSamplingError(f"record {record}: {exc}",
                                  record=record) from None


def _draw_pair(rng, box, log_lo, log_hi, record):
    y0 = _draw_record_state(rng, box, record)
    h = math.exp(rng.uniform(log_lo, log_hi))
    return y0, h


def _generate_range(cfg, start, stop):
    """Records [start, stop) of the dataset; pure function of cfg."""
    field_ = get_system(cfg.system)
    box = cfg.domain()
    log_lo, log_hi = math.log(cfg.h_min), math.log(cfg.h_max)
    n = stop - start
    rngs = _record_rngs(cfg.seed, start, stop)
    y0 = np.empty((n, field_.dim))
    h = np.empty(n)
    for k, rng in enumerate(rngs):
        y0[k], h[k] = _draw_pair(rng, box, log_lo, log_hi, start + k)
    y1 = np.empty_like(y0)
    pending = np.arange(n)
    resampled = 0
    for _ in range(100):
        out, ok, _reached = adaptive_flow_batch(
            field_, y0[pending], h[pending], cfg.tol, cfg.tol)
        y1[pending[ok]] = out[ok]
        failed = pending[~ok]
        if failed.size == 0:
            return y0, h, y1, resampled
        resampled += failed.size
        for k in failed:
            y0[k], h[k] = _draw_pair(rngs[k], box, log_lo, log_hi, start + k)
        pending = failed
    raise IntegrationFailureError(
        f"{pending.size} records kept failing after 100 resampling rounds")


def generate_dataset(cfg, workers=1):
    """K exact-flow records, reproducible from ``cfg.seed`` alone."""
    field_ = get_system(cfg.system)
    K = int(cfg.n_records)
    if K == 0:
        empty = np.empty((0, field_.dim))
        return Dataset(empty, np.empty(0), empty.copy(),
                       cfg.system, cfg.scheme, cfg.tol, 0)
    chunk = 20_000
    ranges = [(s, min(s + chunk, K)) for s in range(0, K, chunk)]
    if workers > 1 and len(ranges) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_generate_range,
                                  [cfg] * len(ranges),
                                  [r[0] for r in ranges],
                                  [r[1] for r in ranges]))
    else:
        parts = [_generate_range(cfg, s, e) for s, e in ranges]
    y0 = np.concatenate([p[0] for p in parts])
    h = np.concatenate([p[1] for p in parts])
    y1 = np.concatenate([p[2] for p in parts])
    resampled = sum(p[3] for p in parts)
    return Dataset(y0, h, y1, cfg.system, cfg.scheme, cfg.tol, resampled)


def save_dataset(ds, path):
    d = ds.dim
    cols = [f"y0_{i + 1}" for i in range(d)] + ["h"] + \
        [f"y1_{i + 1}" for i in range(d)]
    with open(path, "w") as fh:
        fh.write("# d,system,scheme,tol\n")
        fh.write(f"# {d},{ds.system},{ds.scheme},{neural.format_exact(ds.tol)}\n")
        fh.write(",".join(cols) + "\n")
        # "%.17g" is format_exact's rendering, one format call per row
        line = ",".join(["%.17g"] * len(cols)) + "\n"
        rows = np.column_stack([ds.y0, ds.h, ds.y1]).tolist()
        fh.writelines(line % tuple(row) for row in rows)


def load_dataset(path):
    with open(path) as fh:
        head = fh.readline()
        meta = fh.readline()
        if not head.startswith("#") or not meta.startswith("#"):
            raise ValueError(f"{path}: missing dataset comment header")
        d_str, system, scheme, tol_str = meta[1:].strip().split(",")
        d = int(d_str)
        header = fh.readline().strip().split(",")
        if len(header) != 2 * d + 1:
            raise ValueError(f"{path}: expected {2 * d + 1} columns")
        rows = [(n, np.fromstring(line, sep=","))
                for n, line in enumerate(fh, start=4) if line.strip()]
    for n, row in rows:
        if row.size != 2 * d + 1:
            raise ValueError(f"{path}: line {n} has {row.size} fields, "
                             f"expected {2 * d + 1}")
        if not np.isfinite(row).all():
            raise ValueError(f"{path}: line {n} has a non-finite field")
    data = np.array([row for _, row in rows]).reshape(-1, 2 * d + 1)
    return Dataset(data[:, :d], data[:, d], data[:, d + 1:],
                   system, scheme, float(tol_str), 0)


def _split_order(n, seed):
    """Dataset index of each record of :func:`split_dataset`'s halves."""
    return np.random.default_rng(seed).permutation(n)


def split_dataset(ds, fraction, seed):
    """Deterministic shuffle, first ``floor(fraction*K)`` records train."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must be in (0, 1)")
    perm = _split_order(len(ds), seed)
    n0 = int(math.floor(fraction * len(ds)))
    return ds.subset(perm[:n0]), ds.subset(perm[n0:])


# -- training -------------------------------------------------------------


@dataclass
class LossReport:
    """Full-set train/test losses after each epoch, plus starting values."""

    train_losses: list = field(default_factory=list)
    test_losses: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    initial_train: float = None
    initial_test: float = None

    def __post_init__(self):
        if not (len(self.train_losses) == len(self.test_losses)
                == len(self.seconds)):
            raise ValueError("per-epoch lists must have equal length")


_LOSS_CHUNK = 100_000  # records per full-set loss evaluation


def _full_loss(model, scheme, ds):
    if len(ds) == 0:
        return 0.0
    total = 0.0
    for s in range(0, len(ds), _LOSS_CHUNK):
        part = ds.subset(slice(s, s + _LOSS_CHUNK))
        total += neural.step_loss(model, scheme, part) * len(part)
    return total / len(ds)


def _descend(theta, data, grad_at, cfg, seed, what):
    """Mini-batch Adam on ``theta`` over the rows of the arrays ``data``.

    Each epoch permutes every array once with one ``default_rng(seed)``
    draw and makes one update per batch from ``grad_at(*batch)``, the
    gradient on the next slice of each, then yields its number.  A
    divergence is re-raised naming ``what``, the epoch, the batch and the
    record's index into the set.
    """
    state = neural.AdamState(cfg.learning_rate, cfg.weight_decay)
    rng = np.random.default_rng(seed)
    n = len(data[0])
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        shuffled = [a[perm] for a in data]
        for bi, s in enumerate(range(0, n, cfg.batch_size)):
            try:
                grad = grad_at(*(a[s:s + cfg.batch_size] for a in shuffled))
            except TrainingDivergedError as exc:
                record = int(perm[s + exc.record])
                raise TrainingDivergedError(
                    f"{what} diverged at epoch {epoch}, batch {bi}: "
                    f"non-finite loss at record {record}",
                    epoch=epoch, batch=bi, record=record) from exc
            neural.adam_update(theta, grad, state)
        yield epoch


def train(model, scheme, train_set, test_set, cfg):
    """Mini-batch Adam on the one-step loss; deterministic from cfg.seed.

    Mutates ``model`` in place and returns ``(model, LossReport)``.  The
    report carries full-set losses after every epoch; divergence aborts
    with the (epoch, batch, record) coordinates attached, the record
    indexing ``train_set``.
    """
    report = LossReport(
        initial_train=_full_loss(model, scheme, train_set),
        initial_test=_full_loss(model, scheme, test_set))

    def grad_at(y0, h, y1):
        return neural.step_loss_and_grad(model, scheme,
                                         Dataset(y0, h, y1))[1]

    t0 = time.perf_counter()
    for epoch in _descend(model.theta,
                          (train_set.y0, train_set.h, train_set.y1),
                          grad_at, cfg, [cfg.seed, 977], "training"):
        lt = _full_loss(model, scheme, train_set)
        lv = _full_loss(model, scheme, test_set)
        report.train_losses.append(lt)
        report.test_losses.append(lv)
        report.seconds.append(time.perf_counter() - t0)
        if cfg.print_every and (epoch % cfg.print_every == 0
                                or epoch == cfg.epochs):
            print(f"[epoch {epoch:4d}] loss_train={lt:.6e} loss_test={lv:.6e}")
        t0 = time.perf_counter()
    return model, report


# -- alternative (per-term) method ----------------------------------------


def _alt_design(steps, n_terms, p):
    steps = np.asarray(steps, dtype=float)
    if steps.ndim != 1 or np.any(steps <= 0) or np.any(np.diff(steps) <= 0):
        raise ValueError("steps must be positive and strictly increasing")
    if steps.size < n_terms - 1:
        raise ValueError("need at least n_terms - 1 step sizes")
    powers = np.arange(p + 1, n_terms + p)
    design = steps[:, None] ** powers[None, :]
    if design.size:
        cond = np.linalg.cond(design / np.abs(design).max(axis=0))
        if cond > 1e12:
            raise ConditioningError(
                f"step design matrix condition {cond:.2e} > 1e12; "
                "spread the steps over a wider range")
    return steps, design


def alt_extract_targets(field_, y0, steps, n_terms, p, tol=1e-12,
                        flows=None):
    """Per-term targets from flows over several step sizes, for ``K``
    states ``y0`` shaped ``(K, d)``.

    With ``d_j = y_j - y0 - h_j f(y0)``, fits ``d_j`` against the
    monomials ``h_j^{p+1}, ..., h_j^{n_terms+p-1}`` componentwise through
    the pseudoinverse and scales the residual at each step by
    ``h_j^{-(n_terms+p)}``.  Returns ``(coeffs, r_targets)`` shaped
    ``(K, n_terms-1, d)`` and ``(K, len(steps), d)``; for one state
    ``(d,)`` the leading ``K`` axis is dropped.  ``flows`` overrides the
    reference flows (for constructed data).
    """
    single = np.ndim(y0) == 1
    y0 = np.atleast_2d(np.asarray(y0, dtype=float))
    K, d = y0.shape
    steps, design = _alt_design(steps, n_terms, p)
    nh = steps.size
    if flows is None:
        Y = np.repeat(y0, nh, axis=0)
        T = np.tile(steps, K)
        out, ok, reached = adaptive_flow_batch(field_, Y, T, tol, tol)
        if not np.all(ok):
            bad = int(np.flatnonzero(~ok)[0])
            raise IntegrationFailureError(
                f"reference flow failed at state {bad // nh}, "
                f"step {steps[bad % nh]}", t_reached=float(reached[bad]))
        flows = out.reshape(K, nh, d)
    else:
        flows = np.asarray(flows, dtype=float).reshape(K, nh, d)
    f0 = field_(y0)
    defect = flows - y0[:, None, :] - steps[None, :, None] * f0[:, None, :]
    if n_terms == 1:
        coeffs = np.zeros((K, 0, d))
        fitted = 0.0
    else:
        # column scaling keeps the shared pseudoinverse well behaved when
        # monomial columns span many orders of magnitude
        scale = np.abs(design).max(axis=0)
        pinv = np.linalg.pinv(design / scale) / scale[:, None]
        coeffs = np.einsum("mj,kjd->kmd", pinv, defect)
        fitted = np.einsum("jm,kmd->kjd", design, coeffs)
    resid = defect - fitted
    r_targets = resid / (steps[None, :, None] ** (n_terms + p))
    if single:
        return coeffs[0], r_targets[0]
    return coeffs, r_targets


def _regress_loss_and_grad(net, x, t):
    """Batch mean of ``|net(x) - t|^2`` and its gradient, one vector
    aligned with ``net.vector``, through the closed-form MLP backward.
    A non-finite loss raises :class:`TrainingDivergedError` naming the
    first offending row."""
    acts = []
    resid = neural._layers(net, x, acts) - t
    scale = 1.0 / len(x)
    loss = np.sum(np.sum(resid**2, axis=-1)) * scale
    neural._check_loss(loss, resid, 1.0)
    return float(loss), neural._mlp_backward(net, acts,
                                             (2.0 * scale) * resid)[0]


def _regress_job(args):
    """Train net ``j`` against fixed targets; pure function of args."""
    (sizes, weights, biases, X, T, cfg, j, name) = args
    net = neural.MlpParams(list(sizes), weights, biases)  # owns a copy

    def grad_at(x, t):
        return _regress_loss_and_grad(net, x, t)[1]

    losses = []
    for _epoch in _descend(net.vector, (X, T), grad_at, cfg,
                           [cfg.seed, 50 + j], f"regression of {name}"):
        err = neural.mlp_forward(net, X) - T
        losses.append(float(np.mean(np.sum(err**2, axis=-1))) if len(X)
                      else 0.0)
    return net.vector, losses


def alt_train(nets, term_data, remainder_data, cfg, workers=1):
    """Independently regress each term net and the remainder net.

    ``nets`` holds n_terms-1 term networks (d -> d) plus the remainder
    network ((d+1) -> d) last.  ``term_data = (X, C)`` with targets ``C``
    shaped (n_terms-1, K, d); ``remainder_data = (XR, R)`` with the step
    appended to the state in ``XR``.  Job ``j`` shuffles with seed
    ``[cfg.seed, 50+j]``, so results do not depend on execution order or
    worker count.  Returns ``(nets, per-net MSE histories)``.
    """
    X, C = term_data
    XR, R = remainder_data
    if len(nets) != len(C) + 1:
        raise ValueError("need one net per term plus the remainder net")
    jobs = []
    for j, net in enumerate(nets):
        data_x, data_t = (X, C[j]) if j < len(C) else (XR, R)
        name = f"net {j}" if j < len(C) else f"net {j} (remainder)"
        jobs.append((tuple(net.layer_sizes), net.weights, net.biases,
                     np.asarray(data_x, dtype=float),
                     np.asarray(data_t, dtype=float), cfg, j, name))
    if workers > 1 and len(jobs) > 1:
        # the remainder, the job with the most rows, starts first
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_regress_job, jobs[::-1]))[::-1]
    else:
        results = [_regress_job(j) for j in jobs]
    histories = []
    for net, (vector, losses) in zip(nets, results):
        net.vector[...] = vector
        histories.append(losses)
    return nets, histories


def build_alt_training_data(cfg):
    """Sample base states, extract per-term and remainder targets.

    Uses ``cfg.n_records`` base states (per-record seeds ``[seed, i]`` as
    in generate_dataset) and the log-spaced step grid
    ``geomspace(h_min, h_max, cfg.n_steps)``.  Returns
    ``(X, C, XR, R, steps)``.
    """
    if cfg.scheme != "euler":
        raise ValueError(f"scheme: the per-term route fits Euler defects, "
                         f"so it needs scheme 'euler', got {cfg.scheme!r}")
    field_ = get_system(cfg.system)
    box = cfg.domain()
    K = int(cfg.n_records)
    rngs = _record_rngs(cfg.seed, 0, K)
    X = np.empty((K, field_.dim))
    for i, rng in enumerate(rngs):
        X[i] = _draw_record_state(rng, box, i)
    steps = np.geomspace(cfg.h_min, cfg.h_max, cfg.n_steps)
    C, R = alt_extract_targets(field_, X, steps, cfg.n_terms, cfg.p,
                               tol=cfg.tol)
    C = np.swapaxes(C, 0, 1)  # (n_terms-1, K, d)
    XR = np.concatenate([np.repeat(X, len(steps), axis=0),
                         np.tile(steps, K)[:, None]], axis=1)
    R = R.reshape(K * len(steps), field_.dim)
    return X, C, XR, R, steps


# -- diagnostics -----------------------------------------------------------


def learning_error_delta(model, reference, box, grid_n, h_list):
    """Max over grid and steps of ``|reference(x,h) - model(x,h)| / h^p``
    (max norm over components): a grid estimate of the theorem's
    ``delta``, which is a supremum against the exact modified field."""
    X = box_grid(box, grid_n)
    worst = 0.0
    for h in np.asarray(h_list, dtype=float):
        diff = np.abs(reference(X, h) - model.eval(X, h)).max()
        worst = max(worst, float(diff) / h**model.p)
    return worst
