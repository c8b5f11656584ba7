"""Binary Merkle commitments over a block's ordered contents.

Replaces a flat hash so light clients can verify transaction (and
receipt) inclusion against just a header (footnote 12: "requesters and
workers can even run on top of so-called light-weight nodes, which
eventually allows them receive and send messages only related to
crowdsourcing tasks").

The generic helpers (:func:`merkle_root`, :func:`merkle_branch`,
:func:`branch_root`) parameterize the leaf domain-separation prefix so
the transaction trie and the receipts trie (``chain/receipts.py``)
share one tree shape without cross-proof confusion: a tx-trie branch
can never validate against a receipts root because the leaf prefixes
differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.hashing import sha256

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
_EMPTY_ROOT = sha256(b"zl-empty-tx-trie")


def _leaf(payload: bytes, prefix: bytes = _LEAF_PREFIX) -> bytes:
    return sha256(b"zl-trie-leaf", prefix, payload)


def _node(left: bytes, right: bytes) -> bytes:
    return sha256(b"zl-trie-node", _NODE_PREFIX, left, right)


def merkle_root(
    leaves: Sequence[bytes],
    leaf_prefix: bytes = _LEAF_PREFIX,
    empty_root: bytes = _EMPTY_ROOT,
) -> bytes:
    """The Merkle root over ordered leaf payloads.

    Odd levels duplicate the last node (Bitcoin-style padding); an
    empty sequence commits to the domain's fixed sentinel root.
    """
    if not leaves:
        return empty_root
    level = [_leaf(payload, leaf_prefix) for payload in leaves]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def merkle_branch(
    leaves: Sequence[bytes], index: int, leaf_prefix: bytes = _LEAF_PREFIX
) -> Tuple[bytes, ...]:
    """Sibling path proving ``leaves[index]`` under :func:`merkle_root`."""
    if not 0 <= index < len(leaves):
        raise IndexError("leaf index out of range")
    level = [_leaf(payload, leaf_prefix) for payload in leaves]
    siblings: List[bytes] = []
    position = index
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        siblings.append(level[position ^ 1])
        level = [_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        position >>= 1
    return tuple(siblings)


def branch_root(
    leaf_payload: bytes,
    index: int,
    siblings: Sequence[bytes],
    leaf_prefix: bytes = _LEAF_PREFIX,
) -> bytes:
    """Fold a sibling path back up to the root it claims."""
    node = _leaf(leaf_payload, leaf_prefix)
    position = index
    for sibling in siblings:
        if position & 1:
            node = _node(sibling, node)
        else:
            node = _node(node, sibling)
        position >>= 1
    return node


def transactions_merkle_root(tx_hashes: Sequence[bytes]) -> bytes:
    """The Merkle root of a block's ordered transaction hashes."""
    return merkle_root(tx_hashes)


@dataclass(frozen=True)
class InclusionProof:
    """A Merkle branch proving one transaction sits in a block."""

    tx_hash: bytes
    index: int
    siblings: Tuple[bytes, ...]

    def compute_root(self) -> bytes:
        return branch_root(self.tx_hash, self.index, self.siblings)


def prove_inclusion(tx_hashes: Sequence[bytes], index: int) -> InclusionProof:
    """Build the branch for ``tx_hashes[index]``."""
    if not 0 <= index < len(tx_hashes):
        raise IndexError("transaction index out of range")
    return InclusionProof(
        tx_hash=tx_hashes[index],
        index=index,
        siblings=merkle_branch(tx_hashes, index),
    )


def verify_inclusion(root: bytes, proof: InclusionProof) -> bool:
    """Check a branch against a header's transaction root."""
    return proof.compute_root() == root
