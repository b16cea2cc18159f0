"""Recorded field programs: a field's floating-point operations, logged
once and replayed as straight-line Python.

:func:`record` runs a component function on values that log each ``+``,
``-``, ``*``, negation, ``sin`` and ``cos`` they take part in, and
:func:`compile_program` turns the log into one generated function.
:mod:`~modfield.systems` records a ``VectorFieldSpec`` to check it and to
build its float program, and :mod:`~modfield.modified_field` records the
correction terms of truncated fields.  :func:`define` runs generated source
(these programs, and the one-state step code of
:mod:`~modfield.integrators`) and keeps it in :mod:`linecache`, so that a
traceback through generated code shows its lines.
"""

import linecache
import zlib

import numpy as np

from . import _mathops as _m
from . import jets


class _Recorded:
    """A value being recorded: entry ``i`` of the operation list ``ops``.

    ``+``, ``-``, ``*``, negation, ``sin`` and ``cos`` record an entry
    ``(op, operand, ...)`` with the operands in the order Python passed
    them.  Anything else (``/``, ``**``, comparisons, truth,
    ``float``, ``math`` and numpy functions) raises ``TypeError``.
    """

    __slots__ = ("ops", "i")
    __array_ufunc__ = None  # numpy refuses it rather than making objects

    def __init__(self, ops, entry):
        ops.append(entry)
        self.ops, self.i = ops, len(ops) - 1

    def _op(self, *entry):
        if any(isinstance(a, jets.Jet) for a in entry):
            return NotImplemented  # the jet records through its coefficients
        return _Recorded(self.ops, entry)

    def __add__(self, other):
        return self._op("+", self, other)

    def __radd__(self, other):
        return self._op("+", other, self)

    def __sub__(self, other):
        return self._op("-", self, other)

    def __rsub__(self, other):
        return self._op("-", other, self)

    def __mul__(self, other):
        return self._op("*", self, other)

    def __rmul__(self, other):
        return self._op("*", other, self)

    def __neg__(self):
        return self._op("neg", self)

    def sin(self):
        return self._op("sin", self)

    def cos(self):
        return self._op("cos", self)

    def _refuse(self, *other):
        raise TypeError("a component has no order or truth value")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _refuse


def record(fn, n):
    """The operation list and the output of ``fn`` on a tuple of ``n``
    recording values."""
    ops = []
    out = fn(tuple(_Recorded(ops, ("in", i)) for i in range(n)))
    kept = ops.copy()
    ops.clear()  # every value holds ops: emptied, it makes no cycle
    return kept, out


_EXPR = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "neg": "-{}",
         "sin": "sin({})", "cos": "cos({})"}
# numpy's sin and cos, returned as Python floats: what follows them then
# stays float arithmetic, with the bits numpy's scalars would give
_FLOAT_EXPR = dict(_EXPR, sin="float(sin({}))", cos="float(cos({}))")


def compile_program(ops, outs, label, floats=False):
    """``program(x0, x1, ...)``: straight-line code for the recorded ``ops``
    that returns ``outs``, nested tuples of recorded values and constants.

    Each distinct operation runs once, where it was first recorded, and an
    operation no output uses is left out; neither changes a bit of what is
    returned.  Constants are the recorded objects themselves, unpacked from
    a tuple.  ``sin``/``cos`` are :mod:`modfield._mathops`'s, so the
    program runs on any ring the field does.  With ``floats`` it is the
    program for one state on Python floats instead, called as
    ``program(h, x0, x1, ...)`` as the one-row DOPRI5 stage code calls a
    field (``h`` unused): ``sin``/``cos`` are ``float(np.sin(x))`` and
    ``float(np.cos(x))``.
    """
    params, names, first, lines, consts = [], [], {}, [], {}
    exprs = _FLOAT_EXPR if floats else _EXPR

    def name(a):
        if isinstance(a, _Recorded):
            return names[a.i]
        # a constant, by identity: equal floats may differ in their bits
        return consts.setdefault(id(a), (f"k{len(consts)}", a))[0]

    for op, *args in ops:
        if op == "in":
            params.append(f"x{len(params)}")
            names.append(params[-1])
            continue
        key = (op,) + tuple(map(name, args))
        if key not in first:
            first[key] = f"v{len(lines)}"
            lines.append((first[key], exprs[op].format(*key[1:]), key[1:]))
        names.append(first[key])

    live = set()

    def expr(out):
        if isinstance(out, (tuple, list)):
            return "(" + "".join(expr(o) + ", " for o in out) + ")"
        var = name(out)
        live.add(var)
        return var

    returned = expr(outs)
    del expr  # a recursive closure holds itself: no cycle once it is gone
    body = []
    for var, rhs, args in reversed(lines):
        if var in live:
            live.update(args)
            body.append(f"    {var} = {rhs}\n")
    used = [(k, c) for k, c in consts.values() if k in live]
    src = f"def program({', '.join((['h'] if floats else []) + params)}):\n"
    if used:
        src += f"    {''.join(k + ', ' for k, _ in used)}= K\n"
    src += "".join(reversed(body)) + f"    return {returned}\n"
    sin, cos = (np.sin, np.cos) if floats else (_m.sin, _m.cos)
    namespace = {"K": tuple(c for _, c in used), "sin": sin, "cos": cos}
    return define(src, label, namespace, "program")


def define(src, label, namespace, name):
    """The function called ``name`` that ``src`` defines, run in
    ``namespace``.

    The source is kept in :mod:`linecache` under the file name
    ``<label>``, so that tracebacks show its lines; when another source
    already holds that name, a digest of this one is added to it.
    """
    lines = src.splitlines(True)
    filename = f"<{label}>"
    held = linecache.cache.get(filename)
    if held is not None and held[2] != lines:
        filename = f"<{label} {zlib.crc32(src.encode()):08x}>"
    linecache.cache[filename] = (len(src), None, lines, filename)
    exec(compile(src, filename, "exec"), namespace)
    return namespace.pop(name)  # no cycle: it goes with its last user
