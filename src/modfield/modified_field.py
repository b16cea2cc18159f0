"""Truncated modified vector fields.

A one-step method of order p applied to the modified field

    f_h(y) = f(y) + h^p (f^[1](y) + h f^[2](y) + ...)

reproduces the exact flow of ``f`` to higher order the more correction
terms are kept.  For a Runge-Kutta tableau, explicit or implicit, ``f_h``
is the B-series ``sum_tau h^{|tau|-1} b(tau)/sigma(tau) F(tau)`` over
rooted trees, so ``f^[j]`` collects the trees with ``p + j`` vertices.
The rational ``b(tau)`` follow from the tableau alone by the substitution
law (Chartier-Hairer-Vilmart 2007, 2010; Hairer-Lubich-Wanner, *Geometric
Numerical Integration*, ch. III, IX).  The elementary differentials
``F(tau)`` are taken at the point with nested first-order jets.

Nested jets cost far more in Python dispatch than in arithmetic, so they
run once per base field, scheme and ``k``, on the recording values of
:mod:`modfield._recorder`, which log each ``+``, ``-``, ``*``, ``sin`` and
``cos`` they take part in.  The elementary differentials are filled in
order of tree size, so no recursive closure holds the base field.  The log
becomes one straight-line Python function, and that program evaluates the
field from then on: the recorded operations in the recorded order, each
repeat and each operation no output uses left out, on floats, arrays or
the jets of an enclosing derivative alike.  The programs are cached on the
base field object and go with it.  The same recorder checks a
``VectorFieldSpec`` and gives it its float program when it is built.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, prod
from operator import mul
from weakref import WeakKeyDictionary

import numpy as np

from . import jets
from ._recorder import compile_program, record
from .errors import UnsupportedTruncationError
from .integrators import get_tableau
from .systems import check_size

# Most vertices of a tree the terms use: f^[k-1] needs the trees with
# p + k - 1 vertices.  Up to 5 there are 17; deeper terms have no user yet.
MAX_TAYLOR_ORDER = 5


def max_truncation(scheme):
    """Deepest truncation ``k``, where ``p + k - 1 = MAX_TAYLOR_ORDER``."""
    return MAX_TAYLOR_ORDER + 1 - get_tableau(scheme).order


# A rooted tree is the sorted tuple of its subtrees; () is one vertex.

def _order(t):
    return 1 + sum(_order(c) for c in t)


def _gamma(t):
    return _order(t) * prod(_gamma(c) for c in t)


def _sigma(t):
    """Order of the tree's symmetry group."""
    return prod(factorial(m) * _sigma(c) ** m for c, m in Counter(t).items())


def _grown(t):
    """The trees made by adding one leaf to one vertex of ``t``."""
    yield tuple(sorted(t + ((),)))
    for i, c in enumerate(t):
        for g in _grown(c):
            yield tuple(sorted(t[:i] + (g,) + t[i + 1:]))


TREES = [[()]]  # TREES[n - 1]: the rooted trees with n vertices
while len(TREES) < MAX_TAYLOR_ORDER:
    TREES.append(sorted({g for t in TREES[-1] for g in _grown(t)}))


def _cuts(t):
    """Every way to cut edges of ``t``, as ``(root, skeleton, pieces)``:
    the piece holding the root, the tree left when each piece shrinks to
    a vertex, and the other pieces."""
    options = [[o for root, skel, pieces in _cuts(c)
                for o in (((root,), skel, pieces),  # the edge to c kept
                          ((), (skel,), pieces + (root,)))]  # or cut
               for c in t]
    for choice in product(*options):
        yield tuple(tuple(sorted(x for o in choice for x in o[k]))
                    for k in range(3))


@cache
def _stage_weights(scheme, t):
    """``Phi_i(t)`` of every stage ``i`` of the scheme's tableau."""
    return [prod(sum(Fraction(x) * p
                     for x, p in zip(row, _stage_weights(scheme, c)))
                 for c in t) for row in get_tableau(scheme).a]


@cache
def _b_series(scheme):
    """``b(tau)`` of the scheme's modified field on every tree, exact:
    stepping with it must give the exact flow's ``1/gamma(tau)``."""
    bw = [Fraction(x) for x in get_tableau(scheme).b]
    b = {}
    for t in [t for trees in TREES for t in trees]:
        b[t] = Fraction(1, _gamma(t)) - sum(
            sum(map(mul, bw, _stage_weights(scheme, skel))) * b[root]
            * prod(b[p] for p in pieces)
            for root, skel, pieces in _cuts(t) if pieces)
    return b


@cache
def _table(scheme):
    """One list of nonzero ``(b(tau)/sigma(tau), tau)`` pairs per term
    ``f^[j]``, ``j = 1 .. max_truncation(scheme) - 1``, in floats."""
    b, p = _b_series(scheme), get_tableau(scheme).order
    return [[(float(b[t] / _sigma(t)), t) for t in TREES[p + j - 1] if b[t]]
            for j in range(1, max_truncation(scheme))]


def _derivative(field, cs, vs):
    """``f^(m)[v_1, ..., v_m]`` at ``cs`` by nested directional derivatives;
    a jet ``v_i`` becomes a zero-slope jet of each of the ``m - i`` levels
    between ``cs`` and the points it meets."""
    g = field.components
    for i, v in enumerate(vs, start=1):
        for _ in range(len(vs) - i):
            v = tuple(jets.Jet([c, 0.0 * c]) if isinstance(c, jets.Jet)
                      else c for c in v)
        g = lambda z, g=g, v=v: jets.dd_components(g, z, v)
    return g(cs)


def _terms(field, tab, cs, f, n):
    """Correction terms ``f^[1..n]`` of ``tab``'s modified field at ``cs``,
    where the field's value is ``f``."""
    rows = _table(tab.name)[:n]
    # the elementary differentials of the terms' trees and their subtrees,
    # filled in order of size: a tree's subtrees are smaller
    need = {t for row in rows for _, t in row}
    for trees in reversed(TREES):
        for t in trees:
            if t in need:
                need.update(t)
    F = {(): f}
    for trees in TREES[1:]:
        for t in trees:
            if t in need:
                F[t] = _derivative(field, cs, [F[c] for c in t])

    terms = []
    for row in rows:
        parts = ([[w * x for x in F[t]] for w, t in row]
                 or [[0.0 * x for x in f]])
        terms.append(tuple(sum(p[1:], p[0]) for p in zip(*parts)))
    return terms


# the programs of a base field, by (scheme, k); they go when the field goes
_PROGRAMS = WeakKeyDictionary()


def _program(base, tab, k):
    """The compiled ``(f, f^[1], ..., f^[k-1])`` of ``tab``'s modified
    field of ``base``, recorded on first use."""
    programs = _PROGRAMS.setdefault(base, {})
    if (tab.name, k) not in programs:
        def fn(cs):
            f = base.components(cs)
            return [f] + _terms(base, tab, cs, f, k - 1)
        ops, outs = record(fn, base.dim)
        programs[tab.name, k] = compile_program(
            ops, outs, f"truncated {base.name} {tab.name} k={k}")
    return programs[tab.name, k]


class TruncatedModifiedField:
    """Evaluator of ``f(y) + h^p sum_{j<k} h^{j-1} f^[j](y)``.

    Behaves like a vector field with a step argument: ``field(y, h)``
    with scalar or per-record ``h``.  ``k = 1`` reduces to the base field.
    Any Runge-Kutta scheme is accepted up to ``k = max_truncation(scheme)``.
    """

    def __init__(self, base, scheme, k):
        tab = get_tableau(scheme)
        k_max = max_truncation(scheme)
        if not 1 <= k <= k_max:
            raise UnsupportedTruncationError(
                f"truncation k={k} unsupported for scheme {scheme!r} "
                f"(its terms reach k={k_max}: trees of p+k-1 <= "
                f"{MAX_TAYLOR_ORDER} vertices)"
            )
        self.base = base
        self.p = tab.order
        self.k = int(k)
        self._program = _program(base, tab, self.k)

    def terms(self, y):
        """The kept terms ``f^[1..k-1]``, stacked as ``(k-1, ..., d)``."""
        terms = self._program(*jets.split(y))[1:]
        out = np.empty((len(terms),) + np.shape(y))
        for j, t in enumerate(terms):
            out[j] = jets.stack(t)
        return out

    def __call__(self, y, h):
        """The field at states ``(..., d)``, one 1-D state on Python floats;
        ``h`` stays an array, so its powers are numpy's array power."""
        y = np.asarray(y, dtype=float)
        check_size(y.shape[-1], self.base.dim)
        if h is not None:
            h = np.asarray(h, dtype=float)
        if y.ndim == 1 and not np.ndim(h):
            return np.array(self.components(y.tolist(), h), dtype=float)
        return jets.stack(self.components(jets.split(y), h))

    def components(self, cs, h=None):
        if h is None:
            raise ValueError("a truncated modified field needs a step h")
        out, *terms = self._program(*cs)
        for j, t in enumerate(terms, start=1):
            w = h ** (self.p + j - 1)
            out = tuple(o + w * x for o, x in zip(out, t))
        return out


def truncated_field(base, scheme, k):
    """Build the order-``k`` truncated modified field for a scheme."""
    return TruncatedModifiedField(base, scheme, k)
