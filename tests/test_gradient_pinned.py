"""The training gradient's bits, pinned.

``step_loss_and_grad`` is what every trained model rests on.  A change to
how the reverse pass is organised must not change one bit of the loss or
the gradient it returns, so these tests compare SHA-256 digests of
``(loss, grad)`` on fixed inputs with values recorded before the reverse
pass was last rewritten.  The pendulum (d = 2) pins the nets' part; the
rigid body (d = 3) also pins the base field's vector-Jacobian product,
whose Jacobian has state-dependent entries in every column.  The states,
steps and targets are exact rationals; the parameters are the seeded
Glorot draws.
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


def _rigid_body_batch(n=16):
    k = np.arange(n)
    y0 = np.column_stack([-1.0 + 2.0 * ((17 * k + 3) % 101) / 100.0,
                          -1.0 + 2.0 * ((29 * k + 11) % 97) / 96.0,
                          -1.0 + 2.0 * ((23 * k + 7) % 89) / 88.0])
    h = 0.1 + 0.4 * ((7 * k + 5) % 31) / 30.0
    y1 = y0 + np.column_stack([(13 * k % 23) / 64.0 - 0.125,
                               (19 * k % 29) / 64.0 - 0.25,
                               (11 * k % 19) / 64.0 - 0.125])
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


_RIGID_BODY_GRAD = {
    ("euler", 1):
        "fae73f0a0de50c13b66b7acf9ecf5c7e88d89156cf657013c196208e000211a0",
    ("euler", 3):
        "9cea3f6862d0400331b5d8cabb6647a9437a9234c694868aeb48c83971821d57",
    ("rk2", 1):
        "a62659506c7ae61873fa861e6d0c1c20a00a0402fd69bfc22d2182bde30cd325",
    ("rk2", 3):
        "cb3bc44ad08e3e688d3aa8b4ccf5e69ee62979adb026319d150a68e569cd0cf2",
    ("rk2_heun", 1):
        "a8f83ed7159f0f20703f47945611c00f05783cbe58773055502053d9655059f7",
    ("rk2_heun", 3):
        "3ffce9f5418ea34aa84191af0ade3102bc1834e922960e560a599106756751a4",
    ("midpoint", 1):
        "04cdf0a3d391bd85771c38c8b3b58fbb079771d76f72b336f24a2fefa985e48b",
    ("midpoint", 3):
        "8840bdbf0fe86d89feca08aa634d7addebfbd66dcf32a825e454349aef46d75b",
}


@pytest.mark.parametrize("scheme, n_terms", sorted(_RIGID_BODY_GRAD))
def test_rigid_body_loss_and_gradient_bits(scheme, n_terms):
    p = 1 if scheme == "euler" else 2
    model = init_model(get_system("rigid_body"), scheme, p, n_terms, (8, 8),
                       seed=11)
    loss, grad = step_loss_and_grad(model, scheme, _rigid_body_batch())
    assert _digest(np.array([loss]), grad) == \
        _RIGID_BODY_GRAD[scheme, n_terms]
