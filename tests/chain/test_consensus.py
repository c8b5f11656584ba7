"""Consensus engines: PoA rotation and simulated PoW targets."""

from __future__ import annotations

import pytest

from repro.crypto import ecdsa
from repro.errors import InvalidBlockError
from repro.chain.block import BlockHeader, GENESIS_PARENT
from repro.chain.consensus import PoAEngine, SimulatedPoWEngine

KEY_A = ecdsa.ECDSAKeyPair.from_seed(b"validator-a")
KEY_B = ecdsa.ECDSAKeyPair.from_seed(b"validator-b")


def _header(number: int, miner: bytes, seal: bytes = b"") -> BlockHeader:
    return BlockHeader(
        number=number, parent_hash=GENESIS_PARENT, timestamp=1_500_000_001,
        miner=miner, state_root=b"\x00" * 32, tx_root=b"\x00" * 32,
        gas_used=0, gas_limit=30_000_000, seal=seal,
    )


def test_poa_round_robin() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    assert engine.expected_proposer(0) == KEY_A.address()
    assert engine.expected_proposer(1) == KEY_B.address()
    assert engine.expected_proposer(2) == KEY_A.address()


def test_poa_seal_and_validate() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    header = _header(2, KEY_A.address())
    seal = engine.seal(header, KEY_A)
    sealed = BlockHeader(**{**header.__dict__, "seal": seal})
    engine.validate_seal(sealed)  # no raise


def test_poa_rejects_out_of_turn() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    header = _header(1, KEY_B.address())  # B's turn
    with pytest.raises(InvalidBlockError):
        engine.seal(header, KEY_A)


def test_poa_rejects_wrong_miner_field() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    header = _header(2, KEY_B.address())  # A's turn but header claims B
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(header)


def test_poa_rejects_forged_seal() -> None:
    engine = PoAEngine([KEY_A.public_key])
    header = _header(1, KEY_A.address())
    # B signs although the header names A.
    forged = KEY_B.sign(header.hash_without_seal()).to_bytes()
    sealed = BlockHeader(**{**header.__dict__, "seal": forged})
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(sealed)


def _sealed_by(engine: PoAEngine, number: int, key: ecdsa.ECDSAKeyPair) -> BlockHeader:
    header = _header(number, engine.expected_proposer(number))
    seal = key.sign(header.hash_without_seal()).to_bytes()
    return BlockHeader(**{**header.__dict__, "seal": seal})


def test_poa_rejects_seal_by_the_other_validator() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    engine.validate_seal(_sealed_by(engine, 2, KEY_A))
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(_sealed_by(engine, 2, KEY_B))  # A's turn
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(_sealed_by(engine, 3, KEY_A))  # B's turn


def test_poa_rejects_flipped_recovery_id() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    sealed = _sealed_by(engine, 2, KEY_A)
    for v in (sealed.seal[64] ^ 1, sealed.seal[64] + 2):
        flipped = BlockHeader(**{**sealed.__dict__, "seal": sealed.seal[:64] + bytes([v])})
        with pytest.raises(InvalidBlockError):
            engine.validate_seal(flipped)


def test_poa_rejects_high_s_twin_seal() -> None:
    """The (r, N - s, v ^ 1) twin of a valid seal names the same signer,
    but a block sealed with it would get a second hash (and could win
    the lowest-hash tiebreak), so only the low-s seal is valid."""
    engine = PoAEngine([KEY_A.public_key])
    sealed = _sealed_by(engine, 1, KEY_A)
    sig = ecdsa.ECDSASignature.from_bytes(sealed.seal)
    twin = ecdsa.ECDSASignature(r=sig.r, s=ecdsa.N - sig.s, v=sig.v ^ 1)
    digest = sealed.hash_without_seal()
    assert ecdsa.recover_public_key(digest, twin) == KEY_A.public_key
    twin_sealed = BlockHeader(**{**sealed.__dict__, "seal": twin.to_bytes()})
    assert twin_sealed.block_hash() != sealed.block_hash()
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(twin_sealed)


def test_poa_rejects_garbage_seal() -> None:
    engine = PoAEngine([KEY_A.public_key])
    sealed = _header(1, KEY_A.address(), seal=b"\x00" * 10)
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(sealed)


def test_poa_needs_validators() -> None:
    with pytest.raises(ValueError):
        PoAEngine([])


def test_pow_seal_meets_target() -> None:
    engine = SimulatedPoWEngine(difficulty=16)
    header = _header(1, KEY_A.address())
    seal = engine.seal(header, KEY_A)
    sealed = BlockHeader(**{**header.__dict__, "seal": seal})
    engine.validate_seal(sealed)


def test_pow_rejects_bad_nonce() -> None:
    engine = SimulatedPoWEngine(difficulty=1 << 20)
    sealed = _header(1, KEY_A.address(), seal=b"\x00" * 8)
    digest_ok = True
    try:
        engine.validate_seal(sealed)
    except InvalidBlockError:
        digest_ok = False
    assert not digest_ok  # overwhelmingly likely at this difficulty


def test_pow_anyone_may_propose() -> None:
    engine = SimulatedPoWEngine(difficulty=4)
    assert engine.expected_proposer(7) is None


def test_pow_difficulty_positive() -> None:
    with pytest.raises(ValueError):
        SimulatedPoWEngine(difficulty=0)
