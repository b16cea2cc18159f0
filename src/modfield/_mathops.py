"""Scalar math that dispatches on the operand type.

Vector fields are written against these helpers so the same component
code evaluates on floats, numpy arrays and Taylor jets.  Any object
exposing a ``sin``/``cos`` method (a jet) is routed to that method;
everything else goes through numpy.
"""

import numpy as np


def sin(x):
    return x.sin() if hasattr(x, "sin") else np.sin(x)


def cos(x):
    return x.cos() if hasattr(x, "cos") else np.cos(x)
