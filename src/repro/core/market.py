"""Open-market infrastructure: board deployment and the court.

The marketplace contract (:mod:`repro.contracts.marketplace`) is
deployed once per market by an *operator* — any funded key; the board
holds no operator privileges afterwards — and names an *arbiter*, the
only party allowed to rule disputes.  Both roles live here, alongside
the board configuration defaults the engine and tests share.

The arbiter is deliberately thin: its verdict is computed from chain
data alone (the task contract's SNARK-proved reward vector and the
board's claim table), so any observer can re-derive every ruling —
the court adds no trusted quality judgment, only a signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import observability as obs
from repro.chain.receipts import Receipt
from repro.chain.transaction import encode_call, encode_create
from repro.contracts.marketplace import PPM, DisputeVerdict
from repro.core.anonymity import OneTaskAccount, derive_one_task_account
from repro.core.protocol import ZebraLancerSystem
from repro.errors import ProtocolError

#: Board configuration defaults (block counts / token amounts).
DEFAULT_BID_WINDOW = 8
DEFAULT_ATTACH_WINDOW = 600
DEFAULT_CLAIM_WINDOW = 8
DEFAULT_DISPUTE_BOND = 400
DEFAULT_REP_HALF_LIFE = 64
DEFAULT_MIN_STAKE = 10


def board_config(
    bid_window: int = DEFAULT_BID_WINDOW,
    attach_window: int = DEFAULT_ATTACH_WINDOW,
    claim_window: int = DEFAULT_CLAIM_WINDOW,
    dispute_bond: int = DEFAULT_DISPUTE_BOND,
    rep_half_life: int = DEFAULT_REP_HALF_LIFE,
    min_stake: int = DEFAULT_MIN_STAKE,
) -> dict:
    """A marketplace config dict (the contract validates every field).

    ``attach_window`` defaults generously: the Algorithm-1 phases run
    *between* matching and attachment when the engine drives them, so
    the window must outlast a full engine run (default 512 rounds at
    one block per round).
    """
    return {
        "bid_window": bid_window,
        "attach_window": attach_window,
        "claim_window": claim_window,
        "dispute_bond": dispute_bond,
        "rep_half_life": rep_half_life,
        "min_stake": min_stake,
    }


def deploy_marketplace(
    system: ZebraLancerSystem,
    arbiter: bytes,
    config: Optional[dict] = None,
    seed: bytes = b"marketplace-operator",
) -> bytes:
    """Deploy one board; returns its address."""
    receipt = system.transact(
        derive_one_task_account(seed, "board-operator"),
        None,
        encode_create(
            "ZebraLancerMarketplace",
            [system.registry_address, arbiter, config or board_config()],
        ),
    )
    if not receipt.success or receipt.contract_address is None:
        raise ProtocolError(f"board deployment failed: {receipt.error}")
    obs.count("market.deployments")
    return receipt.contract_address


@dataclass
class Ruling:
    """One decided dispute, in replayable terms."""

    listing_id: int
    verdict: DisputeVerdict
    claimed: int
    rewarded: int


class Arbiter:
    """The court key behind a board's dispute flow.

    ``decide`` is a pure function of chain state: a dispute is *upheld*
    exactly when a majority of the claimed slots earned zero task
    reward (the committed policy judgment says the work was junk), and
    the workers keep a bonus share proportional to the rewarded
    fraction.  Frivolous disputes — every claimed slot rewarded — are
    rejected outright, which is what makes griefing cost the bond.
    """

    def __init__(self, system: ZebraLancerSystem, seed: bytes = b"market-court") -> None:
        self.system = system
        self.account: OneTaskAccount = derive_one_task_account(seed, "arbiter")
        self.rulings: list[Ruling] = []

    @property
    def address(self) -> bytes:
        return self.account.address

    def decide(self, board_address: bytes, listing_id: int) -> DisputeVerdict:
        """Derive the verdict for a disputed listing from chain data."""
        node = self.system.node
        listing = node.call(board_address, "get_listing", [listing_id])
        if listing["dispute"] is None:
            raise ProtocolError("nothing to rule: the listing is not disputed")
        rewards = node.call(listing["task"], "get_rewards")
        claimed = sorted(listing["claims"])
        rewarded = sum(
            1
            for answer_index in claimed
            if answer_index < len(rewards) and rewards[answer_index] > 0
        )
        if not claimed:
            upheld, share = True, 0
        else:
            # Upheld when the rewarded claims are NOT the majority.
            upheld = rewarded * 2 <= len(claimed)
            share = rewarded * PPM // len(claimed)
        verdict = DisputeVerdict(
            listing_id=listing_id,
            upheld=upheld,
            worker_share_ppm=share if upheld else PPM,
            rationale=(
                f"{rewarded}/{len(claimed)} claimed slots rewarded by the "
                f"committed policy"
            ),
        )
        self.rulings.append(
            Ruling(
                listing_id=listing_id,
                verdict=verdict,
                claimed=len(claimed),
                rewarded=rewarded,
            )
        )
        return verdict

    def rule(self, board_address: bytes, listing_id: int) -> Receipt:
        """Decide and anchor the verdict (settlement happens in-call)."""
        verdict = self.decide(board_address, listing_id)
        receipt = self.system.transact(
            self.account,
            board_address,
            encode_call("rule_dispute", [listing_id, verdict.to_wire()]),
        )
        if not receipt.success:
            raise ProtocolError(f"ruling rejected: {receipt.error}")
        obs.count("market.rulings")
        return receipt
