"""Blocks and headers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List

from repro.crypto.hashing import sha256
from repro.errors import InvalidBlockError
from repro.serialization import decode, encode
from repro.chain.transaction import SignedTransaction

GENESIS_PARENT = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Consensus-relevant block metadata."""

    number: int
    parent_hash: bytes
    timestamp: int
    miner: bytes
    state_root: bytes
    tx_root: bytes
    gas_used: int
    gas_limit: int
    extra: bytes = b""
    seal: bytes = b""  # consensus-engine data (PoW nonce / PoA tag)
    receipts_root: bytes = b""  # Merkle root over receipt encodings

    def hash_without_seal(self) -> bytes:
        return sha256(
            b"zl-header",
            encode(
                [
                    self.number,
                    self.parent_hash,
                    self.timestamp,
                    self.miner,
                    self.state_root,
                    self.tx_root,
                    self.receipts_root,
                    self.gas_used,
                    self.gas_limit,
                    self.extra,
                ]
            ),
        )

    def block_hash(self) -> bytes:
        return sha256(b"zl-block", self.hash_without_seal(), self.seal)

    def to_wire(self) -> bytes:
        """Canonical gossip encoding of the header (seal included)."""
        return encode(
            [
                self.number,
                self.parent_hash,
                self.timestamp,
                self.miner,
                self.state_root,
                self.tx_root,
                self.receipts_root,
                self.gas_used,
                self.gas_limit,
                self.extra,
                self.seal,
            ]
        )

    @classmethod
    def from_wire(cls, wire: bytes) -> "BlockHeader":
        """Inverse of :meth:`to_wire`; rejects malformed bytes loudly."""
        try:
            fields = decode(wire)
        except (ValueError, TypeError) as exc:
            raise InvalidBlockError(f"malformed header wire: {exc}") from exc
        if not isinstance(fields, list) or len(fields) != 11:
            raise InvalidBlockError("header wire must carry 11 fields")
        (number, parent_hash, timestamp, miner, state_root, tx_root,
         receipts_root, gas_used, gas_limit, extra, seal) = fields
        for name, value, kind in (
            ("number", number, int), ("parent_hash", parent_hash, bytes),
            ("timestamp", timestamp, int), ("miner", miner, bytes),
            ("state_root", state_root, bytes), ("tx_root", tx_root, bytes),
            ("receipts_root", receipts_root, bytes),
            ("gas_used", gas_used, int), ("gas_limit", gas_limit, int),
            ("extra", extra, bytes), ("seal", seal, bytes),
        ):
            if not isinstance(value, kind):
                raise InvalidBlockError(f"header field {name} has the wrong type")
        return cls(
            number=number, parent_hash=parent_hash, timestamp=timestamp,
            miner=miner, state_root=state_root, tx_root=tx_root,
            receipts_root=receipts_root, gas_used=gas_used,
            gas_limit=gas_limit, extra=extra, seal=seal,
        )


def transactions_root(transactions: List[SignedTransaction]) -> bytes:
    """Merkle commitment over the block's ordered transactions.

    Backed by the binary trie in :mod:`repro.chain.txtrie` so light
    clients can check inclusion with a logarithmic branch.
    """
    from repro.chain.txtrie import transactions_merkle_root

    return transactions_merkle_root([stx.tx_hash for stx in transactions])


@dataclass(frozen=True)
class Block:
    """A sealed block."""

    header: BlockHeader
    transactions: tuple

    @cached_property
    def block_hash(self) -> bytes:
        return self.header.block_hash()

    @property
    def number(self) -> int:
        return self.header.number

    def __len__(self) -> int:
        return len(self.transactions)

    def to_wire(self) -> bytes:
        """Canonical gossip encoding: header wire + each tx's wire."""
        return encode(
            [self.header.to_wire()]
            + [stx.to_wire() for stx in self.transactions]
        )

    @classmethod
    def from_wire(cls, wire: bytes) -> "Block":
        """Inverse of :meth:`to_wire`; rejects malformed bytes loudly."""
        from repro.errors import InvalidTransactionError

        try:
            parts = decode(wire)
        except (ValueError, TypeError) as exc:
            raise InvalidBlockError(f"malformed block wire: {exc}") from exc
        if (
            not isinstance(parts, list)
            or not parts
            or not all(isinstance(part, bytes) for part in parts)
        ):
            raise InvalidBlockError("block wire must be a list of byte strings")
        header = BlockHeader.from_wire(parts[0])
        try:
            transactions = tuple(
                SignedTransaction.from_wire(part) for part in parts[1:]
            )
        except InvalidTransactionError as exc:
            raise InvalidBlockError(f"malformed block transaction: {exc}") from exc
        return cls(header=header, transactions=transactions)
