"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough operator coverage to backpropagate a scalar loss through the
same stepping code that runs on arrays: the explicit Runge-Kutta stage
loop (or the fixed unroll of the implicit-midpoint fixed point) and the
benchmark vector fields (sin/cos/products of state columns).  The tanh
MLPs are not built from these operators: ``neural.mlp_forward`` records
a whole pass as one node whose backward is the closed-form MLP
vector-Jacobian product, and each net's parameter vector is one leaf.
Variables hold dense float arrays; constants stay plain ndarrays and are
never tracked, on either side of an operator (``ndarray * Var`` reaches
``Var.__rmul__``), and ``concat_cols`` gives a plain array when its
input is one, so one forward pass serves both.  Gradients accumulate in
reverse topological order.
"""

import numpy as np


def _unbroadcast(grad, shape):
    # reduce a broadcast gradient back to the operand's shape
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Var:
    """Node of the tape: an array value plus how to push gradients back."""

    __slots__ = ("value", "grad", "parents", "backward")
    # numpy defers binary operators to Var instead of broadcasting over it
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self.parents = parents
        self.backward = backward

    @property
    def shape(self):
        return self.value.shape

    def _accum(self, g):
        self.grad = g if self.grad is None else self.grad + g

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Var):
            def back(g, a=self, b=other):
                a._accum(_unbroadcast(g, a.value.shape))
                b._accum(_unbroadcast(g, b.value.shape))
            return Var(self.value + other.value, (self, other), back)
        c = np.asarray(other, dtype=float)

        def back(g, a=self):
            a._accum(_unbroadcast(g, a.value.shape))
        return Var(self.value + c, (self,), back)

    __radd__ = __add__

    def __neg__(self):
        def back(g, a=self):
            a._accum(-g)
        return Var(-self.value, (self,), back)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Var) else -np.asarray(other))

    def __mul__(self, other):
        if isinstance(other, Var):
            def back(g, a=self, b=other):
                a._accum(_unbroadcast(g * b.value, a.value.shape))
                b._accum(_unbroadcast(g * a.value, b.value.shape))
            return Var(self.value * other.value, (self, other), back)
        c = np.asarray(other, dtype=float)

        def back(g, a=self):
            a._accum(_unbroadcast(g * c, a.value.shape))
        return Var(self.value * c, (self,), back)

    __rmul__ = __mul__

    # -- elementwise functions (dispatched via _mathops) ---------------

    def sin(self):
        cos_x = np.cos(self.value)

        def back(g, a=self):
            a._accum(g * cos_x)
        return Var(np.sin(self.value), (self,), back)

    def cos(self):
        sin_x = np.sin(self.value)

        def back(g, a=self):
            a._accum(-g * sin_x)
        return Var(np.cos(self.value), (self,), back)

    # -- structure ops -------------------------------------------------

    def col(self, i):
        """Column ``[..., i]`` as a Var."""
        def back(g, a=self, i=i):
            full = np.zeros_like(a.value)
            full[..., i] = g
            a._accum(full)
        return Var(self.value[..., i], (self,), back)


def stack_cols(cols):
    """Stack Vars of shape ``(B,)`` into ``(B, d)``."""
    cols = list(cols)

    def back(g, cols=cols):
        for i, c in enumerate(cols):
            c._accum(g[..., i])
    return Var(np.stack([c.value for c in cols], axis=-1), tuple(cols), back)


def concat_cols(a, b):
    """Concatenate ``(B, m)`` and a constant ``(B, n)`` along the last axis.

    A plain array when ``a`` is one.
    """
    if not isinstance(a, Var):
        return np.concatenate([a, b], axis=-1)
    m = a.value.shape[-1]

    def back(g, a=a, m=m):
        a._accum(g[..., :m])
    return Var(np.concatenate([a.value, b], axis=-1), (a,), back)


def weighted_sumsq(x, weights):
    """Scalar ``sum_k weights_k * |x_k|^2`` for ``x`` (B, d), weights (B,)."""
    w = np.asarray(weights, dtype=float)

    def back(g, x=x, w=w):
        x._accum((2.0 * g) * w[:, None] * x.value)
    return Var(np.sum(w * np.sum(x.value**2, axis=-1)), (x,), back)


def backward(root):
    """Accumulate d(root)/d(leaf) into ``.grad`` of every reachable Var."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)
