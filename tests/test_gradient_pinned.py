"""The training gradient's bits, pinned.

``step_loss_and_grad`` is what every trained model rests on.  A change to
how the reverse pass is organised must not change one bit of the loss or
the gradient it returns on the pendulum, so these tests compare SHA-256
digests of ``(loss, grad)`` on fixed inputs with values recorded before
the learned field's backward was last rewritten.  The states, steps and
targets are exact rationals; the parameters are the seeded Glorot draws.
The result goes through ``np.sin``, ``np.tanh`` and BLAS products, so the
tests skip on a build whose fingerprint differs from the recorded one
(see ``tests/test_cli_pinned.py``).
"""

import numpy as np
import pytest

from modfield.neural import init_model, step_loss_and_grad
from modfield.systems import get_system
from modfield.training import Dataset
from test_cli_pinned import _FINGERPRINT, _digest, _fingerprint

pytestmark = pytest.mark.skipif(
    _fingerprint() != _FINGERPRINT,
    reason="libm or BLAS rounds differently from the build the digests "
           "come from")


def _batch(n=16):
    k = np.arange(n)
    y0 = np.column_stack([-1.5 + 3.0 * ((17 * k + 3) % 101) / 100.0,
                          -1.5 + 3.0 * ((29 * k + 11) % 97) / 96.0])
    h = 0.1 + 0.4 * ((7 * k + 5) % 31) / 30.0
    y1 = y0 + np.column_stack([(13 * k % 23) / 64.0 - 0.125,
                               (19 * k % 29) / 64.0 - 0.25])
    return Dataset(y0, h, y1)


_GRAD = {
    ("euler", 1):
        "bdecdfc4efda3981ca8e90c518a7bb00f7698f1f177f5ccef0733b88705fd79f",
    ("euler", 3):
        "78689ba5e88431ab2298913e1faeeef1c2203905d3a68dc77644edd38c164e78",
    ("rk2", 1):
        "ebcaa4194dc03bf358d5ed8f4690b9d10cc3bb53f7a9b4311d3e81f973d76b20",
    ("rk2", 3):
        "716c0075141f9f73e7a9ccead1026132dc17325942302bac7d0d8cf62c6be5b2",
    ("rk2_heun", 1):
        "1324eb8e0a44d102bf2f7d9a5c5487af4e93507085aa95927457c9bbbbf1cd2e",
    ("rk2_heun", 3):
        "ecf1af31df6485cda3823f255de728917efaf331ce18a2fb4de3b7d9c5558300",
    ("midpoint", 1):
        "f490d2889f5316125411a93d8c2e026b851606463f5979d242f1f3d126643ca7",
    ("midpoint", 3):
        "3fbb28d14c0f42863a7491cc15ab1af648e69d3842e9ff87831655fad3713244",
}


@pytest.mark.parametrize("scheme, n_terms", sorted(_GRAD))
def test_pendulum_loss_and_gradient_bits(scheme, n_terms):
    p = 1 if scheme == "euler" else 2
    model = init_model(get_system("pendulum"), scheme, p, n_terms, (8, 8),
                       seed=11)
    loss, grad = step_loss_and_grad(model, scheme, _batch())
    assert _digest(np.array([loss]), grad) == _GRAD[scheme, n_terms]
