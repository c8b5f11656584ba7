"""GLV decomposition, and the scalar-width rule that selects it.

Both curves with a GLV endomorphism (BN128 G1 and secp256k1) take the
GLV split only when the scalar is wider than one decomposed component,
``params.max_component_bits()``; narrower scalars run the plain ladder.
The selection tests pin both sides of that bound to the reference
oracles and check which side each width lands on.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import ecdsa
from repro.zksnark.bn128.curve import G1, _g1_glv, g1_msm, g1_msm_naive, g1_mul
from repro.zksnark.bn128.fq import CURVE_ORDER, FIELD_MODULUS
from repro.zksnark.bn128.glv import GLVParams, cube_root_of_unity

SECP256K1_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def _g1_mul_naive(point, scalar):
    """Naive G1 oracle: single-pair naive MSM (plain double-and-add)."""
    return g1_msm_naive([point], [scalar])


def _scalar_of_width(rng: random.Random, bits: int, order: int) -> int:
    """A random scalar below ``order`` whose bit length is exactly ``bits``."""
    return rng.randrange(1 << (bits - 1), min(1 << bits, order))


# ----- GLV decomposition ----------------------------------------------------------


class TestGLV:
    @pytest.mark.parametrize("order", [CURVE_ORDER, SECP256K1_ORDER])
    def test_decompose_congruence_exact(self, order: int) -> None:
        """k1 + k2*lam == k (mod n) — the soundness anchor — for seeded k."""
        params = GLVParams.for_order(order)
        bound_bits = params.max_component_bits()
        assert bound_bits <= order.bit_length() // 2 + 3
        rng = random.Random(order & 0xFFFF)
        cases = [0, 1, order - 1, params.lam, order // 2]
        cases += [rng.randrange(order) for _ in range(60)]
        for k in cases:
            k1, k2 = params.decompose(k)
            assert (k1 + k2 * params.lam) % order == k % order
            assert abs(k1).bit_length() <= bound_bits
            assert abs(k2).bit_length() <= bound_bits

    def test_cube_root_of_unity_properties(self) -> None:
        for modulus in (CURVE_ORDER, SECP256K1_ORDER, FIELD_MODULUS):
            root = cube_root_of_unity(modulus)
            assert root != 1
            assert pow(root, 3, modulus) == 1
        with pytest.raises(ValueError):
            cube_root_of_unity(5)  # 5 % 3 == 2: no primitive cube root

    def test_other_root_is_conjugate(self) -> None:
        params = GLVParams.for_order(CURVE_ORDER)
        other = params.other_root()
        assert other.lam == params.lam * params.lam % CURVE_ORDER
        k = 0xDEADBEEF << 200
        k1, k2 = other.decompose(k)
        assert (k1 + k2 * other.lam) % CURVE_ORDER == k % CURVE_ORDER

    def test_rejects_non_cube_root_lambda(self) -> None:
        with pytest.raises(ValueError):
            GLVParams(CURVE_ORDER, 2)

    def test_g1_glv_mul_matches_naive(self) -> None:
        rng = random.Random(99)
        for _ in range(8):
            k = rng.randrange(CURVE_ORDER)
            p = _g1_mul_naive(G1, rng.randrange(1, CURVE_ORDER))
            assert g1_mul(p, k) == _g1_mul_naive(p, k)


# ----- selection: GLV iff the scalar is wider than one component ------------------

_BN128_BOUND = _g1_glv()[0].max_component_bits()
_SECP_BOUND = ecdsa._glv_params()[0].max_component_bits()


@pytest.fixture
def decompositions(monkeypatch) -> list:
    """Record every scalar handed to :meth:`GLVParams.decompose`."""
    seen: list = []
    original = GLVParams.decompose

    def spy(self, k):
        seen.append(k)
        return original(self, k)

    monkeypatch.setattr(GLVParams, "decompose", spy)
    return seen


@pytest.mark.parametrize(
    "bits", [_BN128_BOUND - 1, _BN128_BOUND, _BN128_BOUND + 1, CURVE_ORDER.bit_length()]
)
def test_bn128_selection_matches_naive(bits: int, decompositions: list) -> None:
    rng = random.Random(13000 + bits)
    point = _g1_mul_naive(G1, rng.randrange(1, CURVE_ORDER))
    k = _scalar_of_width(rng, bits, CURVE_ORDER)
    assert g1_mul(point, k) == _g1_mul_naive(point, k)
    assert bool(decompositions) == (bits > _BN128_BOUND)

    # One MSM mixing this width with short scalars: the widest scalar
    # decides the split, and short scalars must survive it unchanged.
    decompositions.clear()
    points = [_g1_mul_naive(G1, rng.randrange(1, CURVE_ORDER)) for _ in range(4)]
    scalars = [k, rng.randrange(1, 256), 1, _scalar_of_width(rng, 20, CURVE_ORDER)]
    assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)
    assert bool(decompositions) == (bits > _BN128_BOUND)


@pytest.mark.parametrize(
    "bits", [_SECP_BOUND - 1, _SECP_BOUND, _SECP_BOUND + 1, ecdsa.N.bit_length()]
)
def test_secp256k1_selection_matches_windowed(bits: int, decompositions: list) -> None:
    rng = random.Random(14000 + bits)
    point = ecdsa._windowed_mul(rng.randrange(1, ecdsa.N), ecdsa.GENERATOR)
    assert point != ecdsa.GENERATOR
    k = _scalar_of_width(rng, bits, ecdsa.N)
    assert ecdsa.point_mul(k, point) == ecdsa._windowed_mul(k, point)
    assert bool(decompositions) == (bits > _SECP_BOUND)
