"""World state: the address → account map with snapshot support.

Two rollback mechanisms coexist:

* :meth:`snapshot` deep-copies the whole state — used per *block*
  (miners build on a scratch copy, importers re-execute against the
  parent state).
* :meth:`begin_transaction`/:meth:`commit_transaction`/
  :meth:`rollback_transaction` maintain a *stack* of copy-on-write
  journal frames that record preimages of only the accounts a single
  transaction touches — used per *tx* by the VM, where a full clone
  would make execution cost scale with total account count instead of
  touched account count.  ``begin_transaction`` returns a
  :class:`JournalHandle`; nested frames are legal and must close in
  LIFO order.

The state root is a content hash used by block validation to assert
that every node executed identically — the "correct computation"
property of the ideal public ledger.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.crypto.hashing import sha256
from repro.errors import ChainError
from repro.serialization import encode
from repro.chain.account import Account


class JournalHandle:
    """One open copy-on-write journal frame: first-touch account
    preimages (``None`` marks an account created inside the window)."""

    __slots__ = ("preimages", "journaled")

    def __init__(self) -> None:
        self.preimages: List[Tuple[bytes, Optional[Account]]] = []
        self.journaled: Set[bytes] = set()


class WorldState:
    """The full ledger state."""

    def __init__(self) -> None:
        self._accounts: Dict[bytes, Account] = {}
        self._frames: List[JournalHandle] = []

    # ----- account access -----------------------------------------------------

    def account(self, address: bytes) -> Account:
        """Fetch (creating lazily) the account at ``address``.

        The returned object is mutable, so the open journal frame
        records its preimage on first touch.
        """
        account = self._accounts.get(address)
        if self._frames:
            top = self._frames[-1]
            if address not in top.journaled:
                top.journaled.add(address)
                top.preimages.append(
                    (address, account.clone() if account is not None else None)
                )
        if account is None:
            account = self._accounts[address] = Account()
        return account

    def has_account(self, address: bytes) -> bool:
        return address in self._accounts

    def balance_of(self, address: bytes) -> int:
        account = self._accounts.get(address)
        return account.balance if account else 0

    def nonce_of(self, address: bytes) -> int:
        account = self._accounts.get(address)
        return account.nonce if account else 0

    def accounts(self) -> Iterator[Tuple[bytes, Account]]:
        return iter(self._accounts.items())

    # ----- mutation -------------------------------------------------------------

    def credit(self, address: bytes, amount: int) -> None:
        if amount < 0:
            raise ChainError("cannot credit a negative amount")
        self.account(address).balance += amount

    def debit(self, address: bytes, amount: int) -> None:
        if amount < 0:
            raise ChainError("cannot debit a negative amount")
        account = self.account(address)
        if account.balance < amount:
            raise ChainError(
                f"insufficient balance at 0x{address.hex()}: "
                f"{account.balance} < {amount}"
            )
        account.balance -= amount

    def transfer(self, source: bytes, destination: bytes, amount: int) -> None:
        self.debit(source, amount)
        self.credit(destination, amount)

    # ----- snapshots --------------------------------------------------------------

    def snapshot(self) -> "WorldState":
        """A deep, independent copy of the whole state."""
        clone = WorldState()
        clone._accounts = {addr: acct.clone() for addr, acct in self._accounts.items()}
        return clone

    # ----- tx journal --------------------------------------------------------------

    def begin_transaction(self) -> JournalHandle:
        """Open a journal frame: preimages are recorded on first touch.

        Unlike :meth:`snapshot` this is O(accounts touched), not
        O(accounts total).  Frames nest — each ``begin`` pushes a new
        frame and returns its handle, so nested VM windows do not trip
        over a single global journal.  Frames must close innermost-first.
        """
        frame = JournalHandle()
        self._frames.append(frame)
        return frame

    def commit_transaction(self, handle: Optional[JournalHandle] = None) -> None:
        """Keep the frame's changes; fold its bookkeeping into the parent."""
        frame = self._pop_frame(handle, "commit")
        if self._frames:
            parent = self._frames[-1]
            for address, preimage in frame.preimages:
                if address not in parent.journaled:
                    parent.journaled.add(address)
                    parent.preimages.append((address, preimage))

    def rollback_transaction(self, handle: Optional[JournalHandle] = None) -> None:
        """Undo every change made since the matching :meth:`begin_transaction`."""
        frame = self._pop_frame(handle, "roll back")
        for address, preimage in reversed(frame.preimages):
            if preimage is None:
                self._accounts.pop(address, None)
            else:
                self._accounts[address] = preimage

    def journal_depth(self) -> int:
        return len(self._frames)

    def _pop_frame(self, handle: Optional[JournalHandle], action: str) -> JournalHandle:
        if not self._frames:
            raise ChainError(f"no open state journal to {action}")
        if handle is not None and handle is not self._frames[-1]:
            raise ChainError(
                f"cannot {action} a non-innermost journal frame "
                "(frames close in LIFO order)"
            )
        return self._frames.pop()

    # ----- integrity ----------------------------------------------------------------

    def state_root(self) -> bytes:
        """A canonical content hash over all accounts.

        Contract storage may contain arbitrary picklable values, so the
        root hashes a stable ``repr``-based rendering of storage — good
        enough for cross-node execution-equality checks in this
        simulation.
        """
        items = []
        for address in sorted(self._accounts):
            account = self._accounts[address]
            storage_repr = repr(sorted(account.storage.items(), key=lambda kv: kv[0]))
            items.append(
                encode(
                    [
                        address,
                        account.balance,
                        account.nonce,
                        account.contract_name or "",
                        storage_repr,
                    ]
                )
            )
        return sha256(b"state-root", *items)

    def total_supply(self) -> int:
        """Sum of all balances (conserved modulo mint/burn — a test invariant)."""
        return sum(account.balance for account in self._accounts.values())


class LaneState(WorldState):
    """Nothing in the package builds this class.  It remains only
    because ``zlbench/layers.py`` wraps ``LaneState.state_root`` by
    name, which requires the method to be defined here; the next change
    to zlbench drops that target and this class together."""

    def state_root(self) -> bytes:
        raise ChainError("lane overlays have no standalone state root")
