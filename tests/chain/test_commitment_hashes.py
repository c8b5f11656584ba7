"""Which hash backs which chain commitment.

Keccak-256 stays where Ethereum semantics bind (addresses, contract
addresses, the transaction signing hash).  Commitments that nothing
outside this chain checks (the tx and receipt tries, the header hash,
the block hash, the tx hash and the PoW seal) run on domain-tagged
SHA-256.  The header hash must still bind every consensus field.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.crypto.hashing as hashing
from repro.crypto import ecdsa
from repro.chain.block import BlockHeader, transactions_root
from repro.chain.consensus import SimulatedPoWEngine
from repro.chain.receipts import (
    STATUS_SUCCESS,
    Log,
    Receipt,
    prove_receipt_inclusion,
    receipts_root,
    verify_receipt_proof,
)
from repro.chain.transaction import Transaction
from repro.chain.txtrie import prove_inclusion, verify_inclusion

KEY = ecdsa.ECDSAKeyPair.from_seed(b"commitment-hashes")


def _header(**overrides) -> BlockHeader:
    fields = dict(
        number=7,
        parent_hash=b"\x11" * 32,
        timestamp=1_500_000_007,
        miner=b"\x22" * 20,
        state_root=b"\x33" * 32,
        tx_root=b"\x44" * 32,
        receipts_root=b"\x55" * 32,
        gas_used=21_000,
        gas_limit=30_000_000,
        extra=b"extra",
        seal=b"\x66" * 8,
    )
    fields.update(overrides)
    return BlockHeader(**fields)


class KeccakCalled(AssertionError):
    pass


def _forbid_keccak(monkeypatch) -> None:
    def no_keccak(data: bytes) -> bytes:
        raise KeccakCalled("keccak reached")

    monkeypatch.setattr(hashing, "keccak_256", no_keccak)


def _changed(value):
    if isinstance(value, int):
        return value + 1
    return bytes([value[0] ^ 1]) + value[1:] if value else b"\x01"


def test_internal_commitments_never_reach_keccak(monkeypatch) -> None:
    signed = [
        Transaction(
            nonce=i, gas_price=1, gas_limit=21_000, to=b"\x77" * 20, value=i + 1
        ).sign(KEY)
        for i in range(5)
    ]  # signing caches each signing_hash: the one keccak a tx needs
    _forbid_keccak(monkeypatch)

    tx_hashes = [stx.tx_hash for stx in signed]
    tx_root = transactions_root(signed)
    assert verify_inclusion(tx_root, prove_inclusion(tx_hashes, 3))

    receipts = [
        Receipt(
            tx_hash=tx_hash,
            status=STATUS_SUCCESS,
            gas_used=21_000,
            logs=[Log(address=b"\x77" * 20, event="Paid", fields={"i": i})],
            block_number=1,
        )
        for i, tx_hash in enumerate(tx_hashes)
    ]
    root = receipts_root(receipts)
    assert verify_receipt_proof(root, prove_receipt_inclusion(receipts, 4))

    header = _header(tx_root=tx_root, receipts_root=root, seal=b"")
    assert len(header.hash_without_seal()) == len(header.block_hash()) == 32

    engine = SimulatedPoWEngine(difficulty=16)
    sealed = dataclasses.replace(header, seal=engine.seal(header, KEY))
    engine.validate_seal(sealed)
    assert sealed.block_hash() != header.block_hash()


def test_keccak_still_backs_addresses_and_signing_hashes(monkeypatch) -> None:
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=b"\x77" * 20, value=1)
    _forbid_keccak(monkeypatch)
    with pytest.raises(KeccakCalled):
        tx.signing_hash()
    with pytest.raises(KeccakCalled):
        ecdsa.address_of(KEY.public_key)


def test_header_hash_commits_to_every_field() -> None:
    header = _header()
    unsealed = [f.name for f in dataclasses.fields(BlockHeader) if f.name != "seal"]
    assert len(unsealed) == 10
    for name in unsealed:
        changed = dataclasses.replace(header, **{name: _changed(getattr(header, name))})
        assert changed.hash_without_seal() != header.hash_without_seal(), name
        assert changed.block_hash() != header.block_hash(), name
    resealed = dataclasses.replace(header, seal=_changed(header.seal))
    assert resealed.hash_without_seal() == header.hash_without_seal()
    assert resealed.block_hash() != header.block_hash()

