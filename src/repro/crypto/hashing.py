"""Hash-function front ends used across the library.

SHA-256 is the paper's DApp-layer hash, and also backs every chain
commitment that nothing outside this chain re-derives: the tx and
receipt tries, header and block hashes, tx hashes, the simulated-PoW
seal, state roots and the shard bridge's anchors.  Each such use is
``sha256(tag, *parts)`` with its own domain tag, no tag a prefix of
another.  Keccak-256 is kept where Ethereum semantics bind: addresses,
contract addresses and transaction signing hashes.  ``hash_to_int``
maps arbitrary bytes to an integer below a modulus (circuit public
inputs).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.crypto.keccak import keccak_256


def sha256(*parts: bytes) -> bytes:
    """SHA-256 over the concatenation of ``parts``."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def keccak256(*parts: bytes) -> bytes:
    """Keccak-256 (Ethereum variant) over the concatenation of ``parts``."""
    return keccak_256(b"".join(parts))


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA-256, used by RFC-6979 deterministic ECDSA nonces."""
    return _hmac.new(key, message, hashlib.sha256).digest()


def hash_to_int(data: bytes, modulus: int, domain: bytes = b"") -> int:
    """Hash ``data`` to an integer in ``[0, modulus)`` with negligible bias.

    Expands to 2x the modulus width via counter-mode SHA-256 before
    reducing, so the output distribution is statistically close to
    uniform (bias < 2^-256 for a 254-bit modulus).
    """
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    width_bytes = 2 * ((modulus.bit_length() + 7) // 8)
    stream = b""
    counter = 0
    while len(stream) < width_bytes:
        stream += sha256(domain, counter.to_bytes(4, "big"), data)
        counter += 1
    return int.from_bytes(stream[:width_bytes], "big") % modulus
