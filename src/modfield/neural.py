"""Tanh MLPs, the learned modified-field ansatz, and Adam.

The learned field has the fixed form

    f_app(y, h) = f(y) + h^p sum_{j=1}^{Nt-1} h^{j-1} f_j(y)
                       + h^{Nt+p-1} R(y, h)

with each ``f_j`` a d->d network and ``R`` a (d+1)->d network taking the
step as an extra input.  At h = 0 the learned field reduces to the base
field, so any consistent scheme driven by it stays consistent.  Training
minimizes the h-weighted one-step mean squared error.  Its step is the
inference step: :func:`scheme_step` runs the same Runge-Kutta step code
on arrays, and each evaluation of the learned field records its
closed-form vector-Jacobian product: the base field's through its jet
Jacobian, each net's through the tanh-MLP product ``_mlp_backward``,
which the per-term regression calls too.  The gradient is one reverse
sweep over the step's stages (``_tape.backward``) that calls those
products latest first.  An MLP has one forward pass, ``_layers`` on
arrays.  The input Jacobian runs the same ``(1 - a^2)`` recurrence, so
the learned field's Jacobian is closed-form too.  Each model keeps all
its parameters in one vector ``theta``; the per-layer weights and biases
are views into it, and gradients and Adam work on the whole vector.

All arithmetic is float64: the loss weights h^{-(2p+2)} span many orders
of magnitude over a step range like [0.1, 2.5].
"""

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _tape, jets
from .errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    TrainingDivergedError,
)
from .integrators import (ButcherTableau, canonical_scheme, get_tableau,
                          rk_stage_loop)
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
    """The pass on arrays; appends each layer's input to ``keep``.  The
    bias and tanh go in place on each product's fresh output only, so
    ``x`` and the kept inputs are never written."""
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if keep is not None:
            keep.append(x)
        x = x @ w.T
        x += b
        if i < last:
            np.tanh(x, out=x)
    return x


def _mlp_backward(net, acts, g):
    """The closed-form tanh-MLP vector-Jacobian product of one pass.

    ``acts`` are the layer inputs :func:`_layers` kept and ``g`` is the
    gradient at the pass's output.  Returns the parameter gradient, one
    flat vector laid out like ``net.vector`` (per layer the weight, then
    the bias), and the gradient at the first layer's output.
    """
    grad = np.empty(sum(w.size + b.size
                        for w, b in zip(net.weights, net.biases)))
    end = grad.size
    for i in range(len(acts) - 1, -1, -1):
        w, a = net.weights[i], acts[i]
        grad[end - w.shape[0]:end] = g.sum(axis=0)
        end -= w.shape[0]
        grad[end - w.size:end] = (g.T @ a).ravel()
        end -= w.size
        if i:
            g = (g @ w) * (1.0 - a * a)
    return grad, g


def _mlp_jacobian(net, x):
    """Input Jacobian of the net at rows ``x`` (..., input), shaped
    ``(..., output, input)``: the ``(1 - a^2)`` recurrence of
    :func:`_mlp_backward`, carried forward."""
    acts = []
    _layers(net, x, acts)
    jac = net.weights[0]
    for w, a in zip(net.weights[1:], acts[1:]):
        jac = w @ ((1.0 - a * a)[..., :, None] * jac)
    return jac


def mlp_forward(net, x):
    """Evaluate the network on ``x`` with shape ``(..., input)``."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.layer_sizes[0]:
        raise ValueError(
            f"input size {x.shape[-1]} != expected {net.layer_sizes[0]}"
        )
    return _layers(net, x)


def _check_step(h):
    """``h``, a float or as a float array; refused when missing, negative
    or NaN."""
    if h is None:
        raise ValueError("a learned modified field needs a step h")
    if not isinstance(h, float):
        h = np.asarray(h, dtype=float)
        if not (h >= 0.0).all():
            raise ValueError(f"step h must be >= 0, got {h[~(h >= 0.0)][0]}")
    elif not h >= 0.0:
        raise ValueError(f"step h must be >= 0, got {h}")
    return h


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

    def eval(self, y, h, vjps=None):
        """``f_app(y, h)``; ``h`` scalar or one step per leading row.

        ``base(y)`` plus each net's ``hcol ** (p + j) * net(x)`` in net
        order (``hcol`` the steps as a column, ``x`` is ``y``, with that
        column for the remainder).  With a list ``vjps``
        (:func:`step_loss_and_grad`) the same arithmetic keeps the layer
        inputs and appends its closed-form vector-Jacobian product
        ``vjp(g, wrt_y)``: the gradient with respect to ``theta`` and,
        when ``wrt_y``, the one with respect to ``y`` (else ``None``).
        """
        y = np.asarray(y, dtype=float)
        h = _check_step(h)
        hcol = np.array([h]) if isinstance(h, float) else h[..., None]
        if hcol.shape[:-1] != y.shape[:-1]:
            hcol = np.broadcast_to(hcol, y.shape[:-1] + (1,))
        xs = [y] * len(self.term_nets) + [np.concatenate([y, hcol], axis=-1)]
        scales = [hcol ** (self.p + j) for j in range(self.n_terms)]
        acts = [None] * len(xs) if vjps is None else [[] for _ in xs]
        out = self.base(y)
        for net, x, c, keep in zip(self.nets, xs, scales, acts):
            out = out + c * (mlp_forward(net, x) if keep is None
                             else _layers(net, x, keep))
        if vjps is None:
            return out

        def vjp(g, wrt_y):
            # y's gradient sums the base field's part, then each net's in
            # turn: the order the pinned training-gradient bits rest on
            gy = None
            if wrt_y:
                gy = np.matmul(g[..., None, :],
                               jets.jacobian(self.base, y))[..., 0, :]
            grads = []
            for net, c, keep in zip(self.nets, scales, acts):
                grad, gx = _mlp_backward(net, keep, g * c)
                grads.append(grad)
                if wrt_y:
                    # the remainder's h column is a constant
                    gy = gy + (gx @ net.weights[0])[..., :self.dim]
            return np.concatenate(grads), gy

        vjps.append(vjp)
        return out

    def __call__(self, y, h=None):
        return self.eval(y, h)

    def jacobian(self, y, h):
        """``d f_app / d y`` shaped ``(..., d, d)`` at states ``y`` and one
        step ``h``: the base field's through jets, each net's in closed
        form."""
        y, h = np.asarray(y, dtype=float), float(_check_step(h))
        jac = jets.jacobian(self.base, y)
        for j, net in enumerate(self.term_nets, start=1):
            jac = jac + h ** (self.p + j - 1) * _mlp_jacobian(net, y)
        yh = np.concatenate([y, np.full(y.shape[:-1] + (1,), h)], axis=-1)
        rem = _mlp_jacobian(self.remainder_net, yh)[..., :self.dim]
        return jac + h ** (self.n_terms + self.p - 1) * rem

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

# The unroll's Picard stages, for the reverse sweep: evaluation m reads
# 0.5 * (y0 + z_m) = y0 + (h/2) k_{m-1}, and the step is z_M = y0 + h k_{M-1}.
# The forward keeps the unroll's own arithmetic.
_PICARD_A = np.diag(np.full(MIDPOINT_UNROLL - 1, 0.5), -1)
_MIDPOINT_UNROLL = ButcherTableau("midpoint_unroll", _PICARD_A,
                                  np.eye(MIDPOINT_UNROLL)[-1],
                                  _PICARD_A.sum(axis=1), order=2)


def _step_tableau(scheme):
    """The stages of the step :func:`scheme_step` takes for ``scheme``."""
    key = canonical_scheme(scheme)
    if key == "midpoint":
        return _MIDPOINT_UNROLL
    tab = get_tableau(key)
    if not tab.is_explicit:
        raise ValueError(f"scheme {scheme!r} is not supported for stepping")
    return tab


def scheme_step(model, scheme, y0, h, vjps=None):
    """One step of ``scheme`` driven by the learned field, batch-aware.

    ``h`` may be scalar or per-record ``(B,)``.  This is also the training
    step: with a list ``vjps`` each field evaluation appends its
    vector-Jacobian product to it (:meth:`ModifiedFieldModel.eval`).  So
    the implicit midpoint rule runs the same fixed unroll here as in
    training, and reported losses match the trained objective exactly.
    """
    y0 = np.asarray(y0, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), y0.shape[:-1])
    tab = _step_tableau(scheme)
    field = model.eval if vjps is None else (
        lambda y, h: model.eval(y, h, vjps))
    if tab is _MIDPOINT_UNROLL:
        hc = h[..., None]
        z = y0
        for _ in range(MIDPOINT_UNROLL):
            z = y0 + hc * field(0.5 * (y0 + z), h)
        return z
    return rk_stage_loop(tab, field, y0, h)


# -- loss and gradients ------------------------------------------------


def step_loss(model, scheme, batch):
    """Mean of ``h^{-(2p+2)} |step(y0) - y1|^2`` without gradients."""
    if len(batch) == 0:
        return 0.0
    pred = scheme_step(model, scheme, batch.y0, batch.h)
    w = batch.h ** (-(2 * model.p + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(w * np.sum((pred - batch.y1) ** 2, axis=-1)))


def _check_loss(loss, resid, w):
    """Raise :class:`TrainingDivergedError` naming the first offending
    record when ``loss``, the ``w``-weighted mean square of the rows of
    ``resid``, is not finite."""
    if np.isfinite(loss):
        return
    with np.errstate(over="ignore", invalid="ignore"):
        per_record = w * np.sum(resid**2, axis=-1)
    bad = np.flatnonzero(~np.isfinite(per_record))
    record = int(bad[0]) if bad.size else int(np.argmax(per_record))
    raise TrainingDivergedError(
        f"non-finite training loss at record {record}", record=record
    )


def step_loss_and_grad(model, scheme, batch):
    """Loss and its gradient with respect to ``model.theta``.

    Runs :func:`scheme_step`, recording each field evaluation's
    vector-Jacobian product, then sweeps the scheme's stages in reverse
    (explicit Runge-Kutta, or the fixed midpoint unroll as Picard stages)
    with :func:`_tape.backward`.  Returns ``(loss, grad)`` with ``grad``
    one vector aligned with ``model.theta``.  Raises
    :class:`TrainingDivergedError` naming the first offending record when
    the loss is not finite.
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    vjps = []
    resid = scheme_step(model, scheme, batch.y0, batch.h, vjps) - batch.y1
    w = batch.h ** (-(2 * model.p + 2))
    scale = 1.0 / len(w)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = np.sum(w * np.sum(resid**2, axis=-1)) * scale
    _check_loss(loss, resid, w)
    tab = _step_tableau(scheme)
    g = (2.0 * scale) * w[:, None] * resid
    return float(loss), _tape.backward(tab.a, tab.b, batch.h[:, None], vjps,
                                       g)


# -- Adam ---------------------------------------------------------------


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam settings and state; the moments start at zero on first use."""

    lr: float
    weight_decay: float = 0.0
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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    m, v = state.m, state.v
    if state.weight_decay:
        theta -= state.lr * state.weight_decay * theta
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    theta -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
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
