"""secp256k1 ECDSA from scratch.

This is the Ethereum transaction-signature algorithm: Jacobian-coordinate
point arithmetic, RFC-6979 deterministic nonces, low-s normalization and
public-key recovery (so the chain substrate can derive sender addresses
from signatures exactly the way Ethereum does).

Verification, recovery and arbitrary-point multiplication share one
ladder, :func:`_double_mul` (u1·G + u2·Q): an affine fixed-base table
for G, and a GLV split of u2 into two width-4 wNAF halves over affine
odd multiples of Q and φ(Q) that share one doubling chain.
:func:`signed_by` checks a signature against a known key with one
ladder and is exactly ``recover_public_key(h, sig) == key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Tuple

from repro.crypto.hashing import hmac_sha256, keccak256, sha256
from repro.errors import SignatureError
from repro.zksnark.bn128.glv import GLVParams, cube_root_of_unity

# secp256k1 domain parameters.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
#: EIP-2 low-s bound: signers emit s ≤ HALF_N, and the chain rejects the
#: (r, N − s) twin that would otherwise re-sign the same message.
HALF_N = N // 2

Point = Optional[Tuple[int, int]]  # None is the point at infinity.


def is_on_curve(point: Point) -> bool:
    """Check whether an affine point satisfies y^2 = x^3 + 7 (mod p)."""
    if point is None:
        return True
    x, y = point
    return (y * y - x * x * x - B) % P == 0


def _to_jacobian(point: Point) -> Tuple[int, int, int]:
    if point is None:
        return (0, 1, 0)
    return (point[0], point[1], 1)


def _from_jacobian(point: Tuple[int, int, int]) -> Point:
    x, y, z = point
    if z == 0:
        return None
    z_inv = pow(z, -1, P)
    z_inv2 = (z_inv * z_inv) % P
    return ((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def _jacobian_double(pt: Tuple[int, int, int]) -> Tuple[int, int, int]:
    x, y, z = pt
    if y == 0 or z == 0:
        return (0, 1, 0)
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x) % P  # a == 0 for secp256k1
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jacobian_add(p1: Tuple[int, int, int], p2: Tuple[int, int, int]) -> Tuple[int, int, int]:
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return (0, 1, 0)
        return _jacobian_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h2 = (h * h) % P
    h3 = (h * h2) % P
    u1h2 = (u1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def _jacobian_add_affine(
    p1: Tuple[int, int, int], p2: Tuple[int, int]
) -> Tuple[int, int, int]:
    """Mixed addition: Jacobian p1 plus an affine (z = 1) point p2."""
    x1, y1, z1 = p1
    if z1 == 0:
        return (p2[0], p2[1], 1)
    z1sq = (z1 * z1) % P
    u2 = (p2[0] * z1sq) % P
    s2 = (p2[1] * z1sq * z1) % P
    if x1 == u2:
        if y1 != s2:
            return (0, 1, 0)
        return _jacobian_double(p1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    h2 = (h * h) % P
    h3 = (h * h2) % P
    u1h2 = (x1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - y1 * h3) % P
    nz = (h * z1) % P
    return (nx, ny, nz)


def point_add(p1: Point, p2: Point) -> Point:
    """Affine point addition (via Jacobian coordinates)."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p1), _to_jacobian(p2)))


_GLV: Optional[Tuple[GLVParams, int]] = None


def _glv_params() -> Tuple[GLVParams, int]:
    """Lazily paired (GLV parameters, β) with φ(G) = λ·G verified.

    secp256k1 has p ≡ 1 (mod 3) and n ≡ 1 (mod 3), so both cube roots
    exist; λ pairs with exactly one of the two β candidates, fixed by
    checking the endomorphism against the windowed ladder once.
    """
    global _GLV
    if _GLV is None:
        params = GLVParams.for_order(N)
        target = _windowed_mul(params.lam, GENERATOR)
        beta = cube_root_of_unity(P)
        if (beta * GX % P, GY) != target:
            beta = beta * beta % P
        if (beta * GX % P, GY) != target:
            raise ArithmeticError("no cube root of unity realizes phi(G) = lam*G")
        _GLV = (params, beta)
    return _GLV


def _windowed_mul(scalar: int, point: Point) -> Point:
    """4-bit fixed-window ladder: the short-scalar path and the oracle."""
    base = _to_jacobian(point)
    table: list = [None] * 16
    table[1] = base
    table[2] = _jacobian_double(base)
    for digit in range(3, 16):
        table[digit] = _jacobian_add(table[digit - 1], base)
    result = (0, 1, 0)
    for shift in range(((scalar.bit_length() + 3) & ~3) - 4, -1, -4):
        if result[2]:
            result = _jacobian_double(
                _jacobian_double(_jacobian_double(_jacobian_double(result)))
            )
        digit = (scalar >> shift) & 15
        if digit:
            result = _jacobian_add(result, table[digit])
    return _from_jacobian(result)


def _wnaf(scalar: int) -> list:
    """Width-4 NAF of a signed scalar, least significant digit first.

    Every non-zero digit is odd and in [-7, 7], and any two non-zero
    digits are at least four positions apart; a negative scalar gets
    the negated digits of its absolute value.
    """
    digits = []
    while scalar:
        digit = 0
        if scalar & 1:
            digit = scalar & 15
            if digit >= 8:
                digit -= 16
            scalar -= digit
        digits.append(digit)
        scalar >>= 1
    return digits


def _odd_multiples(point: Tuple[int, int]) -> list:
    """Affine lookup for a wNAF digit d: ``table[d]`` = d·point, d odd in ±[1, 7]."""
    double = _jacobian_double(_to_jacobian(point))
    table: list = [None] * 16  # negative digits index from the end
    table[1] = point
    acc = _to_jacobian(point)
    for digit in (3, 5, 7):
        acc = _jacobian_add(acc, double)
        table[digit] = _from_jacobian(acc)
    for digit in (1, 3, 5, 7):
        x, y = table[digit]
        table[-digit] = (x, P - y)
    return table


def _double_mul(u1: int, u2: int, point: Tuple[int, int]) -> Tuple[int, int, int]:
    """u1·G + u2·point in Jacobian coordinates (scalars taken mod N).

    The one secp256k1 ladder behind verification, recovery and
    arbitrary-point multiplication.  u2 is split by GLV into two signed
    ~128-bit halves k1 + k2·λ; each half runs a width-4 wNAF over the
    affine odd multiples of ``point`` and of φ(point) = (β·x, y), and
    both share one chain of ~128 doublings.  The u1·G part then adds
    one affine fixed-base window entry per non-zero nibble of u1, with
    no doublings at all.
    """
    params, beta = _glv_params()
    k1, k2 = params.decompose(u2)
    table1 = _odd_multiples(point)
    table2 = [None if e is None else (e[0] * beta % P, e[1]) for e in table1]
    acc = (0, 1, 0)
    for d1, d2 in reversed(list(zip_longest(_wnaf(k1), _wnaf(k2), fillvalue=0))):
        acc = _jacobian_double(acc)
        if d1:
            acc = _jacobian_add_affine(acc, table1[d1])
        if d2:
            acc = _jacobian_add_affine(acc, table2[d2])
    return _add_generator_multiple(acc, u1 % N)


def point_mul(scalar: int, point: Point) -> Point:
    """Scalar multiplication on secp256k1.

    Generator multiples (every signature and public key) take the
    fixed-base table of affine window entries: at most 64 mixed adds and
    no doublings.  Other points take :func:`_double_mul` (GLV split,
    two width-4 wNAF halves sharing one doubling chain) when the scalar
    is wider than one decomposed component, and otherwise the 4-bit
    window ladder :func:`_windowed_mul`, which is also the differential
    oracle for the GLV path.
    """
    scalar %= N
    if scalar == 0 or point is None:
        return None
    if point == GENERATOR:
        return _from_jacobian(_add_generator_multiple((0, 1, 0), scalar))
    if scalar.bit_length() > _glv_params()[0].max_component_bits():
        return _from_jacobian(_double_mul(0, scalar, point))
    return _windowed_mul(scalar, point)


GENERATOR: Point = (GX, GY)

_GENERATOR_TABLE: list | None = None


def _generator_table() -> list:
    """table[w][d] = (d << 4w)·G as an affine point (lazy, cached)."""
    global _GENERATOR_TABLE
    if _GENERATOR_TABLE is None:
        table = []
        base = _to_jacobian(GENERATOR)
        for _ in range(64):
            row: list = [None] * 16
            acc = (0, 1, 0)
            for digit in range(1, 16):
                acc = _jacobian_add(acc, base)
                row[digit] = _from_jacobian(acc)
            table.append(row)
            base = _jacobian_double(_jacobian_double(_jacobian_double(_jacobian_double(base))))
        _GENERATOR_TABLE = table
    return _GENERATOR_TABLE


def _add_generator_multiple(acc: Tuple[int, int, int], scalar: int) -> Tuple[int, int, int]:
    """acc + scalar·G (scalar in [0, N)) by one mixed add per non-zero nibble."""
    table = _generator_table()
    window = 0
    while scalar:
        digit = scalar & 15
        if digit:
            acc = _jacobian_add_affine(acc, table[window][digit])
        scalar >>= 4
        window += 1
    return acc


@dataclass(frozen=True)
class ECDSASignature:
    """An ECDSA signature with the recovery id ``v`` (Ethereum style)."""

    r: int
    s: int
    v: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ECDSASignature":
        if len(data) != 65:
            raise SignatureError("serialized signature must be 65 bytes")
        return cls(
            r=int.from_bytes(data[:32], "big"),
            s=int.from_bytes(data[32:64], "big"),
            v=data[64],
        )


def _rfc6979_nonce(private_key: int, message_hash: bytes) -> int:
    """Deterministic nonce per RFC 6979 (HMAC-SHA-256 construction)."""
    holder = private_key.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac_sha256(k, v + b"\x00" + holder + message_hash)
    v = hmac_sha256(k, v)
    k = hmac_sha256(k, v + b"\x01" + holder + message_hash)
    v = hmac_sha256(k, v)
    while True:
        v = hmac_sha256(k, v)
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac_sha256(k, v + b"\x00")
        v = hmac_sha256(k, v)


class ECDSAKeyPair:
    """A secp256k1 keypair for blockchain transaction signing."""

    def __init__(self, private_key: int) -> None:
        if not 1 <= private_key < N:
            raise SignatureError("private key out of range")
        self.private_key = private_key
        self.public_key: Tuple[int, int] = point_mul(private_key, GENERATOR)  # type: ignore[assignment]
        self._address: Optional[bytes] = None

    @classmethod
    def from_seed(cls, seed: bytes) -> "ECDSAKeyPair":
        """Derive a keypair deterministically from arbitrary seed bytes."""
        candidate = int.from_bytes(sha256(b"ecdsa-seed", seed), "big") % N
        if candidate == 0:
            candidate = 1
        return cls(candidate)

    def address(self) -> bytes:
        """Ethereum-style 20-byte address: keccak256(pubkey)[12:] (cached)."""
        if self._address is None:
            self._address = address_of(self.public_key)
        return self._address

    def sign(self, message_hash: bytes) -> ECDSASignature:
        """Sign a 32-byte message hash; low-s normalized, recoverable."""
        if len(message_hash) != 32:
            raise SignatureError("ECDSA signs 32-byte hashes")
        z = int.from_bytes(message_hash, "big")
        k = _rfc6979_nonce(self.private_key, message_hash)
        while True:
            point = point_mul(k, GENERATOR)
            assert point is not None
            r = point[0] % N
            s = (pow(k, -1, N) * (z + r * self.private_key)) % N
            if r == 0 or s == 0:
                k = (k + 1) % N or 1
                continue
            v = point[1] & 1
            if point[0] >= N:  # astronomically rare; affects recovery id
                v += 2
            if s > HALF_N:
                s = N - s
                v ^= 1
            return ECDSASignature(r=r, s=s, v=v)


def _is_public_key(point: Point) -> bool:
    """A finite curve point with canonical (fully reduced) coordinates."""
    return point is not None and 0 <= point[0] < P and 0 <= point[1] < P and is_on_curve(point)


def _signed_point(public_key: Point, message_hash: bytes, sig: ECDSASignature) -> Point:
    """(z·s⁻¹)·G + (r·s⁻¹)·Q, the point whose x-coordinate a valid
    signature's r is; None for an ill-formed key or out-of-range (r, s)."""
    if not (1 <= sig.r < N and 1 <= sig.s < N) or not _is_public_key(public_key):
        return None
    z = int.from_bytes(message_hash, "big")
    w = pow(sig.s, -1, N)
    return _from_jacobian(_double_mul(z * w, sig.r * w, public_key))  # type: ignore[arg-type]


def verify(public_key: Tuple[int, int], message_hash: bytes, sig: ECDSASignature) -> bool:
    """Verify a signature against an explicit public key (``v`` ignored)."""
    point = _signed_point(public_key, message_hash, sig)
    return point is not None and point[0] % N == sig.r


def signed_by(public_key: Tuple[int, int], message_hash: bytes, sig: ECDSASignature) -> bool:
    """True exactly when ``recover_public_key(message_hash, sig) == public_key``.

    One ladder instead of recovery's two: the signature must verify, and
    the point it verifies against must be the R that ``sig.v`` names —
    x = r (+N when v ≥ 2, the x ≥ N overflow) with y-parity v & 1.  A
    check against a known key (a PoA seal) needs no recovery at all.
    """
    point = _signed_point(public_key, message_hash, sig)
    return (
        point is not None
        and point[0] == sig.r + (N if sig.v >= 2 else 0)
        and point[1] & 1 == sig.v & 1
    )


def recover_public_key(message_hash: bytes, sig: ECDSASignature) -> Tuple[int, int]:
    """Recover the signer's public key from a recoverable signature.

    Fails closed: the candidate Q = (−z·r⁻¹)·G + (s·r⁻¹)·R is returned
    only after :func:`signed_by` re-checks it against the signature.
    """
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
    z = int.from_bytes(message_hash, "big")
    r_inv = pow(sig.r, -1, N)
    candidate = _from_jacobian(_double_mul(-z * r_inv, sig.s * r_inv, (x, y)))
    if candidate is None or not signed_by(candidate, message_hash, sig):
        raise SignatureError("public-key recovery produced an invalid key")
    return candidate


def address_of(public_key: Tuple[int, int]) -> bytes:
    """Ethereum-style 20-byte address: keccak256(x ‖ y)[12:]."""
    x, y = public_key
    return keccak256(x.to_bytes(32, "big") + y.to_bytes(32, "big"))[12:]


def recover_address(message_hash: bytes, sig: ECDSASignature) -> bytes:
    """Recover the 20-byte Ethereum-style sender address."""
    return address_of(recover_public_key(message_hash, sig))
