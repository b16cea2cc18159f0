"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough operator coverage to backpropagate a scalar loss through the
same stepping code that runs on arrays: the explicit Runge-Kutta stage
loop (or the fixed unroll of the implicit-midpoint fixed point), whose
stages are sums and products of states, steps and field values.  The
learned field is not built from these operators: on a tape copy of a
model, whose parameter vector is one leaf, ``ModifiedFieldModel.eval``
records each evaluation as one node whose backward is the field's
closed-form vector-Jacobian product.  Variables hold dense float arrays;
constants stay plain ndarrays and are never tracked, on either side of an
operator (``ndarray * Var`` reaches ``Var.__rmul__``).  Variables are
added to variables and constants, and multiplied and subtracted by
constants only.  Gradients accumulate in reverse topological order.
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

    def __sub__(self, other):
        return self + -np.asarray(other, dtype=float)

    def __mul__(self, other):
        c = np.asarray(other, dtype=float)

        def back(g, a=self):
            a._accum(_unbroadcast(g * c, a.value.shape))
        return Var(self.value * c, (self,), back)

    __rmul__ = __mul__


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
