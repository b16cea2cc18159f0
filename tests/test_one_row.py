"""One state, stepped: the same bits as the batch it could be a row of.

Fixed-step stepping (``integrate``, the ``convergence``, ``efficiency`` and
``compare-alt`` commands) evaluates fields on one 1-D state at a time, and
the bare, truncated and learned fields each have a one-row path for it.
These tests check that a 1-D state gives exactly the bits of the same
state as a one-row batch, that a learned model's forward pass does not
depend on whether it records its vector-Jacobian products, and pin the
digests of fixed-step trajectories on every field kind.
"""

import hashlib

import numpy as np
import pytest

from modfield.integrators import get_stepper, integrate, scheme_names
from modfield.modified_field import max_truncation, truncated_field
from modfield.neural import init_model
from modfield.systems import get_system

SYSTEMS = ("pendulum", "rigid_body")
SCHEMES = [s for s in scheme_names() if s != "rk2"]  # "rk2" is an alias
STEPS = (0.37, 0.05, 1.25)


def _states(system, seed):
    d = get_system(system).dim
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(50, d))


def _same_rows(field, system, seed, h):
    for y in _states(system, seed):
        one = field(y, h)
        row = field(y[None], h)[0]
        assert one.shape == y.shape and one.dtype == np.float64
        assert one.tobytes() == row.tobytes()


@pytest.mark.parametrize("system", SYSTEMS)
def test_one_row_base_field_matches_its_batch_row(system):
    _same_rows(get_system(system), system, 1, None)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_row_truncated_field_matches_its_batch_row(system, scheme):
    base = get_system(system)
    for k in range(1, max_truncation(scheme) + 1):
        for i, h in enumerate(STEPS):
            _same_rows(truncated_field(base, scheme, k), system, 10 * k + i,
                       h)


def _models(system):
    base = get_system(system)
    return [init_model(base, "euler", 1, 3, (8, 8), seed=5),
            init_model(base, "rk2", 2, 2, (6,), seed=6),
            init_model(base, "midpoint", 2, 1, (5, 4), seed=7)]


@pytest.mark.parametrize("system", SYSTEMS)
def test_one_row_learned_field_matches_its_batch_row(system):
    for j, model in enumerate(_models(system)):
        for i, h in enumerate(STEPS + (0.0,)):
            _same_rows(model, system, 100 + 10 * j + i, h)
            _same_rows(model.eval, system, 200 + 10 * j + i, h)


@pytest.mark.parametrize("system", SYSTEMS)
def test_learned_forward_does_not_depend_on_recording(system):
    # the forward without vector-Jacobian products is the recorded one
    for j, model in enumerate(_models(system)):
        states = _states(system, 300 + j)
        hs = np.linspace(0.0, 1.5, states.shape[0])
        for y, h in ((states, hs), (states, 0.4), (states[7], 0.4),
                     (states[7], hs[7]), (states[:1], hs[:1])):
            vjps = []
            recorded = model.eval(y, h, vjps)
            assert len(vjps) == 1
            assert model.eval(y, h).tobytes() == recorded.tobytes()


def _digest(*arrays):
    out = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        out.update(str(a.dtype).encode() + str(a.shape).encode())
        out.update(a.tobytes())
    return out.hexdigest()


def _fingerprint():
    """Digest of the libm and BLAS results the trajectories depend on."""
    x = np.arange(-400, 401) / 64.0
    w = (np.arange(48) % 11 / 5.0 - 1.0).reshape(8, 6)
    v = np.arange(6) / 7.0 - 0.4
    return _digest(np.sin(x), np.cos(x), np.tanh(x), w @ v,
                   v[None] @ w.T[:6])


# trajectory digests, recorded before one-row stepping was rewritten
_PINNED_FINGERPRINT = (
    "e02f87b9b5a33f9001c56e546e7820fdb576fbc36b35652ab1834ba0a67810a8")
_PINNED = {
    "pendulum/euler/f":
        "6d835cddcbc663e2150bdd05e83212255e7945b87e07d1903e4b3d1dd5a5ecf4",
    "pendulum/euler/fapp":
        "6389f7d229f16f466100a91470fc511988e9622e219e3c40215e5b7f70f1517f",
    "pendulum/euler/k2":
        "67a0aa53d2af8dc40995bba00ccfcc1b01fc1517da51973052cdfe2d71daea20",
    "pendulum/euler/k3":
        "ab43f86401a642c4757bb4a2bb7fc976f389176793fe4af4953cbc1ef16e8737",
    "pendulum/euler/k5":
        "de062f04413098d499f6738e0101c395b62391e40c80ce59f4bab90ff6101fe6",
    "pendulum/rk2/f":
        "373a117487b47174b7cbf414a7877c809c46f7d818cc07ffd0a751ccee98b058",
    "pendulum/rk2/fapp":
        "0396e87e012fbcd0aad100ae9c38186a2f449b2f97f72d46fd9c196c1372befe",
    "pendulum/rk2/k2":
        "dd4a070308426978d7def2847f6e29cd244c710b8c7f2a80a5e95c36ea83ce52",
    "pendulum/rk2/k4":
        "02da4a76de2e96c46f7387f561a5fcc60111a71c88cb3e860cfb4ee08d73fc4c",
    "pendulum/midpoint/f":
        "6e62bb72eb92c37fb518275ce74ca6e94a333fb81b075024257477f5551fe61d",
    "pendulum/midpoint/fapp":
        "d57b27af8bf8ffb3c509e1fa1b5e414633787c1a9c7eea559747a6273d471b83",
    "pendulum/midpoint/k2":
        "d1cb447c42cd90ab5ba939472c4bdcd17e58306cdba7a8c8b58c131eaa28d802",
    "pendulum/midpoint/k4":
        "1ad0ae7b90dd84d9352ce4761ed6edeadd97aa3083631fdf7b5eaf7cb05c273f",
    "rigid_body/euler/f":
        "cec0f000ef6d68ea155f4c0a3b9042152b15ff5234ff27b94e9465a1f78d6bc6",
    "rigid_body/euler/fapp":
        "5abec0eec941b93219c89dc5b0ca642d60514d208c7b8243cab5365c98164d26",
    "rigid_body/euler/k2":
        "b380e1ba774b5bcf23d2e5e5d2cf42ba056777004380bff59a459025cb6d9e0d",
    "rigid_body/euler/k3":
        "eb6106072395907dcaef51203b0b56e02f59c71ecc32ffdee19407d8cfb3c6f0",
    "rigid_body/euler/k5":
        "20e3098810f7814b082b426b9c809392ea5dbd6836dbe6f5fc38e3fcaaebb2b3",
    "rigid_body/rk2/f":
        "64a92134163bed8c77285c47d750b4cfe32d90b48fa5451680c3888a455a17b7",
    "rigid_body/rk2/fapp":
        "e92c573ae17d521ace7d88d1ff1cd6582e88ebfd1ae8993b52602ac75813ed90",
    "rigid_body/rk2/k2":
        "cc092619fb5326571fc8521c28b6c927f6e155347ba428f4e60eb4b697d139ed",
    "rigid_body/rk2/k4":
        "af6b3244dedf1d0b61fabbdba04124255cca617be1c757c0a05f6245e957dc0a",
    "rigid_body/midpoint/f":
        "7befbbcde7d62bddf79d1a82e0e35504153ddf5bc5f22722f287b0e4375a40f9",
    "rigid_body/midpoint/fapp":
        "0629bac65b6783b1e3e315e269d5244aa2aa074f0d84699d5a4ddf212b63cb7c",
    "rigid_body/midpoint/k2":
        "e73ea805e5862b4a36efc1de81b63cd44f24dbb104174af249c5d6fbfe4a4b04",
    "rigid_body/midpoint/k4":
        "952472e7188b7f20ce058d69d59b9f3da3ece4ac37dde6c496d81d320ddf2cdb",
}


def _trajectories():
    """Fixed-step trajectories of every field kind, keyed by case."""
    out = {}
    for system, y0 in (("pendulum", [1.5, 0.0]),
                       ("rigid_body", [0.6, -0.3, 0.74])):
        base = get_system(system)
        model = _models(system)[0]
        for scheme, ks in (("euler", (2, 3, 5)), ("rk2", (2, 4)),
                           ("midpoint", (2, 4))):
            fields = [("f", base), ("fapp", model)]
            fields += [(f"k{k}", truncated_field(base, scheme, k))
                       for k in ks]
            for name, field in fields:
                traj = integrate(get_stepper(scheme), field, y0, 0.1, 15)
                out[f"{system}/{scheme}/{name}"] = _digest(traj.states)
    return out


@pytest.mark.skipif(_fingerprint() != _PINNED_FINGERPRINT,
                    reason="libm or BLAS rounds differently from the build "
                           "the digests come from")
def test_fixed_step_trajectory_bits_are_pinned():
    assert _trajectories() == _PINNED
