"""Truncated modified fields, pinned: the bits of every case they evaluate.

The digests were recorded while the terms were still evaluated through
nested jets on every call.  They cover every scheme and every truncation
``k`` on both systems: one 1-D state at a time, batches with a scalar and
with a per-row step, the stacked ``terms()``, and Euler orbits.  The
states include signed zeros, NaNs of both signs, infinities and states
whose higher terms overflow, so the bits that the operation order decides
are pinned too.
"""

import numpy as np
import pytest

from modfield.integrators import get_stepper, integrate
from modfield.modified_field import max_truncation, truncated_field
from modfield.systems import get_system

from test_one_row import _PINNED_FINGERPRINT, _digest, _fingerprint

SYSTEMS = ("pendulum", "rigid_body")
SCHEMES = ("euler", "rk2", "rk2_heun", "midpoint")


def _states(system, seed, n):
    d = get_system(system).dim
    y = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, d))
    y[0], y[1], y[2] = 0.0, -0.0, 1e155  # signed zeros; overflowing terms
    # NaNs of both signs: which one a sum keeps depends on operand order
    y[3, 0], y[4, -1], y[5] = np.nan, -np.nan, np.inf
    return y


def _case(system, scheme, k):
    """Digest of one truncated field on single states, batches and terms."""
    seed = 100 * SYSTEMS.index(system) + 10 * SCHEMES.index(scheme) + k
    field = truncated_field(get_system(system), scheme, k)
    ones = _states(system, seed, 40)
    rows = _states(system, seed + 1000, 300)
    hs = np.random.default_rng(seed + 2000).uniform(0.0, 0.6, rows.shape[0])
    with np.errstate(all="ignore"):
        one = np.stack([field(y, h) for y, h in zip(ones, hs)])
        return _digest(one, field(rows, 0.3), field(rows, hs),
                       field.terms(rows), field.terms(ones[5]))


def _orbits():
    out = {}
    for system, y0 in (("pendulum", [1.5, 0.0]),
                       ("rigid_body", [0.6, -0.3, 0.74])):
        base = get_system(system)
        for k in (2, 3):
            for h in (0.1, 0.05, 0.025):
                traj = integrate(get_stepper("euler"),
                                 truncated_field(base, "euler", k), y0, h,
                                 round(1.5 / h))
                out[f"{system}/euler/k{k}/h{h}"] = _digest(traj.states)
    return out


def _default_nan():
    """Digest of the NaN the processor makes for ``inf - inf``."""
    with np.errstate(invalid="ignore"):
        return _digest(np.array([np.inf]) - np.inf)


_PINNED_NAN = (
    "9200f1a9d86be67b44ccbbd55cf597c99f8512d665cade27d24d1d22a5ced6b4")
_PINNED_CASES = {
    ("pendulum", "euler"): {
        1: "f68c3434b23c524ccf1f3c1003fbf06afa61f155da96c8e17e82273d1785fa16",
        2: "f69cba138eff40fd4f5d893f9899a41eff07bb9d2cded721b6d1dfb932fbdad5",
        3: "ae5f7464f8fbe075c5b02e6483f8271da1e97df12e76543c00f6d630e6dd4ae9",
        4: "2d0e7d92e26cebdd4ac1d58c2052eb8133b06a84b53bd540023fe831dfadc4cf",
        5: "6781a2c7848525be88f17ea42b8d0e981a97d5191f73700c841fb3542b597bb5",
    },
    ("pendulum", "rk2"): {
        1: "2e9f7811dcb7345cfabe79d0cc66e3466e882b3bc44bde4e2ef986b053a49edd",
        2: "bfbaa33b104d99e89e18524cfc1528304824318375d83f77428b14f2032844e0",
        3: "3389f254ce593f380a33e58a6c2eb5738c13cd4894fc6de9fba4fc7271e6eea7",
        4: "b528cf26add40f45ed93740a02ab1d155b96bb9a7627ade48fb8497fbaa92582",
    },
    ("pendulum", "rk2_heun"): {
        1: "eafe4682545e0f001edf9cb78390204e9b0fe858ee2fae482b8d02bd33b93bb1",
        2: "2ce5d9ddac7b7b7aa71a3434afe2af7edaf027388c6f1cc349fc9dedc4ce279b",
        3: "39c9e4342f022e8f711e3271aa0297a2a773d28efaba22dc4dde6212310bdf1d",
        4: "24814dcd225d0480e7c8f985c0a1ba617fe728aea33f8929abd4b81729e8006d",
    },
    ("pendulum", "midpoint"): {
        1: "351651c9c982a1efcdf8afc1f94a4fe4971d767920c4b33301ac8bd31cb31a2f",
        2: "b67fa42fe53bc2f8b21412bd7d74b1f12e728686889b6db03011f69ccd07e495",
        3: "f8e996c83f8b65db6338618ade863e0749b45a391c6dad953d1e7006538b9d99",
        4: "72e8029efefaa0591ef871dd25eab29a15648a7dac675c1c307d08caccb34aca",
    },
    ("rigid_body", "euler"): {
        1: "a1f436e6d4050de6566043ef8e0c317ce2d21f7cce27afda32fbe75c621fdde0",
        2: "6e209fdff8d843df795017bd36949cfb66825b7123bdc2eede7867f9962611e1",
        3: "71acc146532836d8295a3ba48687b7998a00f6d571600c71f47ae8d43050950b",
        4: "f9136e47e8a4bede629d91fd4676039f6f13b105db72aa717d9769af4a5bff80",
        5: "affb753f1721dcf288f3e781aa3f399c566cb57ccd3a989082dddbe3580c31e2",
    },
    ("rigid_body", "rk2"): {
        1: "196243a02370637a2a0c40df49c0917214b5de0799ca0f46839e97d99ac19b6b",
        2: "7e7ae03ec9d830721fc32679c7605ea7d3a022d10c7f911e35719990f52be0f2",
        3: "1964f129af3c77eb522cc8a298d80fd89424f45ea49d8809553e482d59975315",
        4: "00adb67cb37ce01cd0907676322e92bc99c6173c47164cd5b430afc86d3b4ae1",
    },
    ("rigid_body", "rk2_heun"): {
        1: "06dea2abf10ec8abcc6abba2e7f7edab8ec913542a1bf3649d5ebe9059c08dcc",
        2: "a4d3d1f05291c7cc759f205e69d12767c743e0e4b7cdaa926832c47296e0afcd",
        3: "a2d0e459547bddbea335af37f7ad2147cf3ec2707cb2567befa7fee584664313",
        4: "8e4e9632330c4997e6e758013841a53179510119c5cc3c25c76ffe22804bf24f",
    },
    ("rigid_body", "midpoint"): {
        1: "185db75810ebd6b9eb63d38e77e32f13d78228c6809e16f5f9fbbe5872659ccf",
        2: "f29f05e5a1d8d1b1a69253992add93d4f5f0cef03eaf0d63317fb6208359734f",
        3: "f3da925da712216136c6fddf5d145ca96dd4e9e211e611cb42534d5f5726ab4f",
        4: "779879a0d153409a2333a8390eccd70961b1c6fce688dc75028018ad59786b20",
    },
}
_PINNED_ORBITS = {
    "pendulum/euler/k2/h0.1":
        "67a0aa53d2af8dc40995bba00ccfcc1b01fc1517da51973052cdfe2d71daea20",
    "pendulum/euler/k2/h0.05":
        "f4c75e6cbe4f09dfc831a11ff295861e7fd34a721c43c6fdaaebf78f0fc0098b",
    "pendulum/euler/k2/h0.025":
        "a143f90d2274bf1611d323a847044a2a4e60f32fc53aa9f9fbd5c4db19b02250",
    "pendulum/euler/k3/h0.1":
        "ab43f86401a642c4757bb4a2bb7fc976f389176793fe4af4953cbc1ef16e8737",
    "pendulum/euler/k3/h0.05":
        "f477b3d73e9cebd75e485c1606f3ebcddb1b10fe9fd511ed374073615624afae",
    "pendulum/euler/k3/h0.025":
        "4b92e539d41de70afe9112c6d80e18e8b4acd5556e19bce3a1d6aaabe1fa0b8d",
    "rigid_body/euler/k2/h0.1":
        "b380e1ba774b5bcf23d2e5e5d2cf42ba056777004380bff59a459025cb6d9e0d",
    "rigid_body/euler/k2/h0.05":
        "c031297d50859cb1b591023d421a931d8733f6d8ec0d4f46513732c89fcfa6ec",
    "rigid_body/euler/k2/h0.025":
        "ff055344cab3825e770b3449daccd82f89f773cbe1af34e580e4eee099f5021e",
    "rigid_body/euler/k3/h0.1":
        "eb6106072395907dcaef51203b0b56e02f59c71ecc32ffdee19407d8cfb3c6f0",
    "rigid_body/euler/k3/h0.05":
        "fec3e8426b52cc4c5d03226071a43126332038eb3ab5e8335bb151470c904fea",
    "rigid_body/euler/k3/h0.025":
        "4f04131b0a726c384ebb16aa148462bd403cc5ac9b181cae6f15e3dd6d427565",
}

_SAME_ROUNDING = pytest.mark.skipif(
    _fingerprint() != _PINNED_FINGERPRINT or _default_nan() != _PINNED_NAN,
    reason="libm, BLAS or the processor's NaN differ from the build the "
           "digests come from")


@_SAME_ROUNDING
@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_truncated_field_bits_are_pinned(system, scheme):
    ks = range(1, max_truncation(scheme) + 1)
    assert {k: _case(system, scheme, k) for k in ks} == \
        _PINNED_CASES[system, scheme]


@_SAME_ROUNDING
def test_truncated_orbit_bits_are_pinned():
    assert _orbits() == _PINNED_ORBITS
