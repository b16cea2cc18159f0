"""Tanh MLPs, the learned modified-field ansatz, and Adam.

The learned field has the fixed form

    f_app(y, h) = f(y) + h^p sum_{j=1}^{Nt-1} h^{j-1} f_j(y)
                       + h^{Nt+p-1} R(y, h)

with each ``f_j`` a d->d network and ``R`` a (d+1)->d network taking the
step as an extra input.  At h = 0 the learned field reduces to the base
field, so any consistent scheme driven by it stays consistent.  Training
minimizes the h-weighted one-step mean squared error.  Its step is the
inference step: :func:`scheme_step` runs on a copy of the model whose
nets each have one tape leaf, their parameter vector (``_tape``), so
the same forward pass and the same Runge-Kutta stage loop build the
graph that gradients flow back through.  Each MLP pass is one tape
node: its forward runs on plain arrays and keeps the activations, and
its backward is the closed-form tanh-MLP vector-Jacobian product,
written into one flat gradient laid out like the net's vector.  Each
model keeps all its parameters in one vector ``theta``; the per-layer
weights and biases are views into it, and gradients and Adam work on
the whole vector.

All arithmetic is float64: the loss weights h^{-(2p+2)} span many orders
of magnitude over a step range like [0.1, 2.5].
"""

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _tape
from ._mathops import tanh
from .errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    TrainingDivergedError,
)
from .integrators import canonical_scheme, get_tableau, rk_stage_loop
from .systems import get_system

CHECKPOINT_VERSION = 1


def _check_layer_sizes(sizes):
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need >= 2 positive layer sizes, got {sizes}")


@dataclass
class MlpParams:
    """Dense MLP: tanh on hidden layers, identity on the output layer.

    The parameters are copied into one float64 ``vector``, layer by layer
    with the weight before the bias; ``weights`` and ``biases`` are views
    into it.
    """

    layer_sizes: list
    weights: list  # (out, in) per layer
    biases: list  # (out,) per layer
    vector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sizes = list(self.layer_sizes)
        _check_layer_sizes(sizes)
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("one weight/bias pair per layer transition")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i + 1], sizes[i]) or b.shape != (sizes[i + 1],):
                raise ValueError(
                    f"layer {i}: shapes {w.shape}/{b.shape} do not chain "
                    f"with sizes {sizes[i]}->{sizes[i + 1]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        self._bind(np.concatenate(
            [np.ravel(a) for wb in zip(self.weights, self.biases) for a in wb],
            dtype=float))

    def _bind(self, vector):
        """Make ``vector`` the storage: weights and biases become views."""
        self.vector = vector
        self.weights, self.biases, k = [], [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.weights.append(vector[k:k + n_out * n_in].reshape(n_out, n_in))
            k += n_out * n_in
            self.biases.append(vector[k:k + n_out])
            k += n_out

    @property
    def n_params(self):
        return self.vector.size


def mlp_init(layer_sizes, seed):
    """Glorot-uniform weights, zero biases, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in layer_sizes]
    _check_layer_sizes(sizes)  # before a zero width divides by zero below
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, weights, biases)


def _layers(net, x, keep=None):
    """The pass on arrays; appends each layer's input to ``keep``."""
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if keep is not None:
            keep.append(x)
        x = x @ w.T + b
        if i < last:
            x = np.tanh(x)
    return x


def mlp_forward(net, x):
    """Evaluate the network on ``x`` with shape ``(..., input)``.

    On a tape copy of the net (:func:`_on_tape`) the whole pass is one
    tape node over the net's parameter leaf and returns a ``_tape.Var``;
    ``x`` may then be a ``(B, input)`` Var or array.
    """
    xv = x.value if isinstance(x, _tape.Var) else np.asarray(x, dtype=float)
    if xv.shape[-1] != net.layer_sizes[0]:
        raise ValueError(
            f"input size {xv.shape[-1]} != expected {net.layer_sizes[0]}"
        )
    leaf = net.vector
    if not isinstance(leaf, _tape.Var):
        return _layers(net, xv)
    acts = []
    out = _layers(net, xv, acts)

    def back(g):
        # closed-form tanh-MLP VJP into a flat gradient laid out like
        # ``vector``: per layer the weight, then the bias
        grad = np.empty(leaf.value.size)
        end = grad.size
        for i in range(len(acts) - 1, -1, -1):
            w, a = net.weights[i], acts[i]
            n_out = w.shape[0]
            grad[end - n_out:end] = g.sum(axis=0)
            end -= n_out
            grad[end - w.size:end] = (g.T @ a).ravel()
            end -= w.size
            if i:
                g = (g @ w) * (1.0 - a * a)
            elif isinstance(x, _tape.Var):
                x._accum(g @ w)
        leaf._accum(grad)

    parents = (x, leaf) if isinstance(x, _tape.Var) else (leaf,)
    return _tape.Var(out, parents, back)


def mlp_forward_components(net, cs):
    """Componentwise forward pass over ring elements (jets, arrays)."""
    vec = list(cs)
    if len(vec) != net.layer_sizes[0]:
        raise ValueError(f"input size {len(vec)} != {net.layer_sizes[0]}")
    last = len(net.weights) - 1
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j, cj in enumerate(vec):
                wij = float(w[i, j])
                if wij != 0.0:
                    acc = acc + wij * cj
            out.append(acc)
        vec = [tanh(o) for o in out] if li < last else out
    return tuple(vec)


@dataclass
class ModifiedFieldModel:
    """Base field plus learned step-dependent corrections.

    The nets' parameters move into one float64 vector ``theta``, net by
    net (term nets in order, then the remainder), so each net's ``vector``
    is a slice of it and its weights and biases are views into it.
    """

    base: object
    scheme: str
    p: int
    n_terms: int
    term_nets: list = field(default_factory=list)
    remainder_net: MlpParams = None
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.base.dim
        self.scheme = canonical_scheme(self.scheme)
        order = get_tableau(self.scheme).order
        if self.p != order:
            raise ValueError(f"p must be the order of scheme "
                             f"{self.scheme!r}, {order}; got {self.p}")
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if len(self.term_nets) != self.n_terms - 1:
            raise ValueError(f"expected {self.n_terms - 1} term networks")
        for net in self.term_nets:
            if net.layer_sizes[0] != d or net.layer_sizes[-1] != d:
                raise ValueError("term networks must map d -> d")
        rn = self.remainder_net
        if rn.layer_sizes[0] != d + 1 or rn.layer_sizes[-1] != d:
            raise ValueError("remainder network must map d+1 -> d")
        self.theta = np.concatenate([net.vector for net in self.nets])
        k = 0
        for net in self.nets:
            net._bind(self.theta[k:k + net.vector.size])
            k += net.vector.size

    @property
    def dim(self):
        return self.base.dim

    @property
    def nets(self):
        """Term nets in order, then the remainder net."""
        return list(self.term_nets) + [self.remainder_net]

    def eval(self, y, h):
        """``f_app(y, h)``; ``h`` scalar or one step per leading row.

        ``y`` may be a ``_tape.Var``; on a tape copy of the model
        (:func:`_on_tape`) the result is recorded on the tape.
        """
        on_tape = isinstance(y, _tape.Var)
        if not on_tape:
            y = np.asarray(y, dtype=float)
        h = np.asarray(h, dtype=float)
        if (h < 0).any():
            raise ValueError("step h must be >= 0")
        out = _tape_field(self.base, y) if on_tape else self.base(y)
        hcol = h[..., None]
        if hcol.shape[:-1] != y.shape[:-1]:
            hcol = np.broadcast_to(hcol, y.shape[:-1] + (1,))
        for j, net in enumerate(self.term_nets, start=1):
            out = out + hcol ** (self.p + j - 1) * mlp_forward(net, y)
        rem = mlp_forward(self.remainder_net, _tape.concat_cols(y, hcol))
        return out + hcol ** (self.n_terms + self.p - 1) * rem

    def __call__(self, y, h=None):
        if h is None:
            raise ValueError("a learned modified field needs a step h")
        return self.eval(y, h)

    def components(self, cs, h=None):
        if h is None:
            raise ValueError("a learned modified field needs a step h")
        h = float(h)
        out = self.base.components(cs)
        for j, net in enumerate(self.term_nets, start=1):
            tc = mlp_forward_components(net, cs)
            w = h ** (self.p + j - 1)
            out = tuple(o + w * t for o, t in zip(out, tc))
        rc = mlp_forward_components(self.remainder_net, tuple(cs) + (h,))
        w = h ** (self.n_terms + self.p - 1)
        return tuple(o + w * r for o, r in zip(out, rc))

    def parameters(self):
        """Per-layer views into ``theta``, in its order: term nets, then the
        remainder, weight and bias interleaved per layer."""
        return [a for net in self.nets for wb in zip(net.weights, net.biases)
                for a in wb]

    def copy(self):
        """Independent model over a copy of ``theta``."""
        nets = [copy.copy(net) for net in self.nets]
        return ModifiedFieldModel(self.base, self.scheme, self.p, self.n_terms,
                                  nets[:-1], nets[-1])


def init_model(base, scheme, p, n_terms, hidden, seed):
    """Fresh model with Glorot nets; net ``j`` is seeded by ``[seed, j]``."""
    d = base.dim
    hidden = list(hidden)
    nets = [mlp_init([d] + hidden + [d], [seed, j]) for j in range(n_terms - 1)]
    remainder = mlp_init([d + 1] + hidden + [d], [seed, n_terms - 1])
    return ModifiedFieldModel(base, scheme, p, n_terms, nets, remainder)


# -- stepping with per-record steps ------------------------------------

MIDPOINT_UNROLL = 10  # fixed-point iterations differentiated through


def scheme_step(model, scheme, y0, h):
    """One step of ``scheme`` driven by the learned field, batch-aware.

    ``h`` may be scalar or per-record ``(B,)``.  This is also the training
    step (on a tape copy of the model), so the implicit midpoint rule runs
    the same fixed unroll here as in training and reported losses match
    the trained objective exactly.
    """
    y0 = np.asarray(y0, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), y0.shape[:-1])
    key = canonical_scheme(scheme)
    if key == "midpoint":
        hc = h[..., None]
        z = y0
        for _ in range(MIDPOINT_UNROLL):
            z = y0 + hc * model.eval(0.5 * (y0 + z), h)
        return z
    tab = get_tableau(key)
    if not tab.is_explicit:
        raise ValueError(f"scheme {scheme!r} is not supported for stepping")
    return rk_stage_loop(tab, model.eval, y0, h)


# -- the tape ------------------------------------------------------------


def _tape_field(base, y):
    """The base field at a tape variable ``y`` (B, d), through its
    componentwise form; constant components are lifted onto the tape."""
    cs = tuple(y.col(i) for i in range(base.dim))
    comps = base.components(cs)
    comps = [c if isinstance(c, _tape.Var) else cs[0] * 0.0 + c for c in comps]
    return _tape.stack_cols(comps)


def _on_tape(nets):
    """Shallow copies of ``nets`` whose ``vector`` is one tape leaf over
    the net's own parameter vector; weights and biases stay array views."""
    copies = []
    for net in nets:
        net = copy.copy(net)
        net.vector = _tape.Var(net.vector)
        copies.append(net)
    return copies


# -- loss and gradients ------------------------------------------------


def _batch_arrays(batch):
    if hasattr(batch, "y0"):
        return (np.asarray(batch.y0, dtype=float),
                np.asarray(batch.h, dtype=float),
                np.asarray(batch.y1, dtype=float))
    y0 = np.stack([np.asarray(r.y0, dtype=float) for r in batch])
    h = np.array([float(r.h) for r in batch])
    y1 = np.stack([np.asarray(r.y1, dtype=float) for r in batch])
    return y0, h, y1


def step_loss(model, scheme, batch):
    """Mean of ``h^{-(2p+2)} |step(y0) - y1|^2`` without gradients."""
    y0, h, y1 = _batch_arrays(batch)
    if y0.shape[0] == 0:
        return 0.0
    pred = scheme_step(model, scheme, y0, h)
    w = h ** (-(2 * model.p + 2))
    return float(np.mean(w * np.sum((pred - y1) ** 2, axis=-1)))


def step_loss_and_grad(model, scheme, batch):
    """Loss and its gradient with respect to ``model.theta``.

    Runs :func:`scheme_step` on a copy of the model whose parameters are
    tape leaves and accumulates in reverse through the stage computations
    of the scheme (explicit Runge-Kutta, or the fixed midpoint unroll).
    Returns ``(loss, grad)`` with ``grad`` one vector aligned with
    ``model.theta``.  Raises :class:`TrainingDivergedError` naming the
    first offending record when the loss is not finite.
    """
    y0, h, y1 = _batch_arrays(batch)
    if y0.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    nets = _on_tape(model.nets)
    taped = copy.copy(model)
    taped.term_nets, taped.remainder_net = nets[:-1], nets[-1]
    resid = scheme_step(taped, scheme, y0, h) - y1
    w = h ** (-(2 * model.p + 2))
    loss = _tape.weighted_sumsq(resid, w) * (1.0 / y0.shape[0])
    if not np.isfinite(loss.value):
        per_record = w * np.sum(resid.value**2, axis=-1)
        bad = np.flatnonzero(~np.isfinite(per_record))
        record = int(bad[0]) if bad.size else int(np.argmax(per_record))
        raise TrainingDivergedError(
            f"non-finite training loss at record {record}", record=record
        )
    _tape.backward(loss)
    return float(loss.value), np.concatenate([n.vector.grad for n in nets])


# -- Adam ---------------------------------------------------------------


@dataclass
class AdamState:
    """Adam settings and state; the moments start at zero on first use."""

    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = None
    v: np.ndarray = None


def adam_update(theta, grad, state):
    """In-place Adam step on the parameter vector ``theta``, with bias
    correction and decoupled weight decay (``theta -= lr*wd*theta``
    applied before the moment step)."""
    if state.m is None:
        state.m = np.zeros_like(theta)
        state.v = np.zeros_like(theta)
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    m, v = state.m, state.v
    if state.weight_decay:
        theta -= state.lr * state.weight_decay * theta
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    theta -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return theta, state


# -- checkpoints ---------------------------------------------------------


def format_exact(x):
    """A float as text that reads back bit for bit (17 significant digits)."""
    return format(float(x), ".17g")


def _json_vector(v):
    return "[" + ", ".join(format_exact(x) for x in v) + "]"


def _json_matrix(m):
    return "[" + ", ".join(_json_vector(row) for row in m) + "]"


def save_model(model, path):
    """Write a self-describing JSON checkpoint (17 significant digits)."""
    parts = []
    for net in model.nets:
        ws = ", ".join(_json_matrix(w) for w in net.weights)
        bs = ", ".join(_json_vector(b) for b in net.biases)
        sizes = json.dumps([int(s) for s in net.layer_sizes])
        parts.append(
            f'{{"layer_sizes": {sizes}, "weights": [{ws}], "biases": [{bs}]}}'
        )
    text = (
        "{\n"
        f'  "version": {CHECKPOINT_VERSION},\n'
        f'  "system": {json.dumps(model.base.name)},\n'
        f'  "scheme": {json.dumps(model.scheme)},\n'
        f'  "p": {int(model.p)},\n'
        f'  "n_terms": {int(model.n_terms)},\n'
        '  "nets": [\n    ' + ",\n    ".join(parts) + "\n  ]\n}\n"
    )
    Path(path).write_text(text)


def load_model(path):
    """Load a checkpoint; bit-exact round trip of :func:`save_model`."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointFormatError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointFormatError(f"checkpoint {path} has no version field")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {doc['version']!r}, expected {CHECKPOINT_VERSION}"
        )
    for key in ("system", "scheme", "p", "n_terms", "nets"):
        if key not in doc:
            raise CheckpointFormatError(f"checkpoint missing field {key!r}")
    base = get_system(doc["system"])
    n_terms = int(doc["n_terms"])
    nets_doc = doc["nets"]
    if len(nets_doc) != n_terms:
        raise CheckpointShapeError(
            f"expected {n_terms} networks, found {len(nets_doc)}"
        )
    nets = []
    for nd in nets_doc:
        try:
            sizes = [int(s) for s in nd["layer_sizes"]]
            weights = [np.array(w, dtype=float) for w in nd["weights"]]
            biases = [np.array(b, dtype=float) for b in nd["biases"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"malformed network entry: {exc}") from exc
        try:
            nets.append(MlpParams(sizes, weights, biases))
        except ValueError as exc:
            raise CheckpointShapeError(str(exc)) from exc
    try:
        return ModifiedFieldModel(base, doc["scheme"], int(doc["p"]), n_terms,
                                  nets[:-1], nets[-1])
    except ValueError as exc:
        raise CheckpointShapeError(str(exc)) from exc
