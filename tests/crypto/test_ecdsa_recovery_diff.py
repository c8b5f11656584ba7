"""Seeded differential test: the joint secp256k1 ladder against the
previous recovery/verification code.

The reference below is the earlier implementation, kept verbatim in
behaviour: generator multiples from a Jacobian fixed-base table,
arbitrary points through a binary interleaved GLV ladder, recovery as
three separate multiplications followed by a ``verify`` post-check.
The Jacobian primitives, ``_windowed_mul`` and ``_glv_params`` it
borrows are unchanged.  Over seeded honest signatures and their
mutations (wrong digest, flipped v, v + 2, high-s twin, wrong key) and
hand-built v in {2, 3} overflow cases, the new code must agree exactly:

- ``recover_public_key`` returns the reference's key, or raises
  ``SignatureError`` exactly where the reference does;
- ``signed_by(k, h, sig)`` holds exactly when the reference recovery
  returns ``k``;
- ``verify`` returns the reference's answer.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    B,
    GENERATOR,
    N,
    P,
    ECDSAKeyPair,
    ECDSASignature,
    _from_jacobian,
    _jacobian_add,
    _jacobian_double,
    _to_jacobian,
    _windowed_mul,
)
from repro.crypto.hashing import sha256
from repro.errors import SignatureError

# ----- reference implementation ---------------------------------------------------

_REF_TABLE: List[list] = []


def _ref_generator_table() -> List[list]:
    if not _REF_TABLE:
        base = _to_jacobian(GENERATOR)
        for _ in range(64):
            row: list = [None] * 16
            acc = (0, 1, 0)
            for digit in range(1, 16):
                acc = _jacobian_add(acc, base)
                row[digit] = acc
            _REF_TABLE.append(row)
            base = _jacobian_double(_jacobian_double(_jacobian_double(_jacobian_double(base))))
    return _REF_TABLE


def _ref_generator_mul(scalar: int):
    table = _ref_generator_table()
    result = (0, 1, 0)
    window = 0
    while scalar:
        digit = scalar & 15
        if digit:
            result = _jacobian_add(result, table[window][digit])
        scalar >>= 4
        window += 1
    return _from_jacobian(result)


def _ref_glv_mul(scalar: int, point):
    params, beta = ecdsa._glv_params()
    k1, k2 = params.decompose(scalar)
    x, y = point
    p1 = (x, y if k1 > 0 else -y % P, 1)
    p2 = (x * beta % P, y if k2 > 0 else -y % P, 1)
    k1, k2 = abs(k1), abs(k2)
    p12 = _jacobian_add(p1, p2)
    acc = (0, 1, 0)
    for i in range(max(k1.bit_length(), k2.bit_length()) - 1, -1, -1):
        acc = _jacobian_double(acc)
        b1 = (k1 >> i) & 1
        b2 = (k2 >> i) & 1
        if b1:
            acc = _jacobian_add(acc, p12 if b2 else p1)
        elif b2:
            acc = _jacobian_add(acc, p2)
    return _from_jacobian(acc)


def _ref_point_mul(scalar: int, point):
    scalar %= N
    if scalar == 0 or point is None:
        return None
    if point == GENERATOR:
        return _ref_generator_mul(scalar)
    if scalar.bit_length() > ecdsa._glv_params()[0].max_component_bits():
        return _ref_glv_mul(scalar, point)
    return _windowed_mul(scalar, point)


def _ref_point_add(p1, p2):
    return _from_jacobian(_jacobian_add(_to_jacobian(p1), _to_jacobian(p2)))


def _ref_verify(public_key, message_hash: bytes, sig: ECDSASignature) -> bool:
    if not (1 <= sig.r < N and 1 <= sig.s < N):
        return False
    if not ecdsa.is_on_curve(public_key):
        return False
    z = int.from_bytes(message_hash, "big")
    w = pow(sig.s, -1, N)
    u1 = (z * w) % N
    u2 = (sig.r * w) % N
    point = _ref_point_add(_ref_point_mul(u1, GENERATOR), _ref_point_mul(u2, public_key))
    if point is None:
        return False
    return point[0] % N == sig.r


def _ref_recover(message_hash: bytes, sig: ECDSASignature) -> Tuple[int, int]:
    if not (1 <= sig.r < N and 1 <= sig.s < N):
        raise SignatureError("signature components out of range")
    x = sig.r + (N if sig.v >= 2 else 0)
    if x >= P:
        raise SignatureError("invalid recovery x-coordinate")
    y_sq = (pow(x, 3, P) + B) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if (y * y) % P != y_sq:
        raise SignatureError("point decompression failed")
    if y & 1 != sig.v & 1:
        y = P - y
    r_point = (x, y)
    z = int.from_bytes(message_hash, "big")
    r_inv = pow(sig.r, -1, N)
    candidate = _ref_point_mul(
        r_inv,
        _ref_point_add(_ref_point_mul(sig.s, r_point), _ref_point_mul(N - (z % N), GENERATOR)),
    )
    if candidate is None or not _ref_verify(candidate, message_hash, sig):
        raise SignatureError("public-key recovery produced an invalid key")
    return candidate


# ----- seeded cases ---------------------------------------------------------------

KEYS = [ECDSAKeyPair.from_seed(b"recovery-diff-%d" % i) for i in range(20)]
SIGNATURES_PER_KEY = 10


def _recover_or_none(recover, message_hash: bytes, sig: ECDSASignature) -> Optional[tuple]:
    try:
        return recover(message_hash, sig)
    except SignatureError:
        return None


def _overflow_point(rng: random.Random) -> Tuple[int, int]:
    """An on-curve point whose x lies in [N, P): r = x - N, v in {2, 3}."""
    while True:
        x = rng.randrange(N, P)
        y_sq = (pow(x, 3, P) + B) % P
        y = pow(y_sq, (P + 1) // 4, P)
        if (y * y) % P == y_sq:
            return x, y


def _cases() -> List[Tuple[str, bytes, ECDSASignature, ECDSAKeyPair]]:
    """(label, digest, signature, honest signer) — ~1k seeded cases."""
    rng = random.Random(20_240_901)
    cases = []
    for index, key in enumerate(KEYS):
        for j in range(SIGNATURES_PER_KEY):
            digest = sha256(b"msg", bytes([index, j]), rng.randbytes(8))
            sig = key.sign(digest)
            cases += [
                ("honest", digest, sig, key),
                ("wrong-digest", sha256(b"other", digest), sig, key),
                ("flipped-v", digest, ECDSASignature(sig.r, sig.s, sig.v ^ 1), key),
                ("v-plus-2", digest, ECDSASignature(sig.r, sig.s, sig.v + 2), key),
                ("high-s-twin", digest, ECDSASignature(sig.r, N - sig.s, sig.v ^ 1), key),
            ]
    for _ in range(24):
        x, y = _overflow_point(rng)
        digest = rng.randbytes(32)
        s = rng.randrange(1, N)
        for v in (2, 3, 0, 1):
            # v = 2/3 name R = (x, ±y); v = 0/1 name the (usually absent)
            # point with x = r, so the overflow bit is what decides.
            cases.append(("overflow", digest, ECDSASignature(x - N, s, v), KEYS[0]))
    return cases


CASES = _cases()


def test_case_mix_covers_every_mutation() -> None:
    labels = [label for label, *_ in CASES]
    assert len(CASES) >= 1000
    for label in ("honest", "wrong-digest", "flipped-v", "v-plus-2", "high-s-twin", "overflow"):
        assert labels.count(label) >= 90
    recovered = [_ref_recover(d, s) for label, d, s, _ in CASES if label == "overflow"
                 and s.v >= 2]
    assert len(recovered) == 48  # every hand-built v in {2, 3} case recovers


@pytest.mark.parametrize("chunk", range(8))
def test_recovery_signed_by_and_verify_match_reference(chunk: int) -> None:
    rng = random.Random(chunk)
    for label, digest, sig, signer in CASES[chunk::8]:
        expected = _recover_or_none(_ref_recover, digest, sig)
        got = _recover_or_none(ecdsa.recover_public_key, digest, sig)
        assert got == expected, label
        stranger = rng.choice(KEYS).public_key
        for key in {signer.public_key, stranger, expected or signer.public_key}:
            assert ecdsa.signed_by(key, digest, sig) == (expected == key), label
        for key in {signer.public_key, expected or stranger}:
            assert ecdsa.verify(key, digest, sig) == _ref_verify(key, digest, sig), label
        if label == "honest":
            assert got == signer.public_key
        if label == "high-s-twin":
            assert got == signer.public_key  # why the chain enforces low-s


def test_double_mul_matches_reference_sum() -> None:
    """u1·G + u2·Q, including the mixed add's doubling and cancellation
    branches (Q = G with u2 = 1 meets the table's G entry)."""
    rng = random.Random(5)
    params = ecdsa._glv_params()[0]
    q = _ref_point_mul(rng.randrange(1, N), GENERATOR)
    pairs = [(0, 1), (1, 1), (N - 1, 1), (0, N - 1), (5, params.lam), (0, 1 << 200)]
    pairs += [(rng.randrange(N), rng.randrange(N)) for _ in range(12)]
    for point in (q, GENERATOR):
        for u1, u2 in pairs:
            expected = _ref_point_add(_ref_point_mul(u1, GENERATOR), _ref_point_mul(u2, point))
            assert _from_jacobian(ecdsa._double_mul(u1, u2, point)) == expected
