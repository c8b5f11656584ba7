"""The per-layer cost ledger: which public functions make up each layer
of ``repro``, and how a traced run's spans become per-layer metrics.

A layer's self time is the summed self time of its spans: time spent
in its own code, not in a child layer it called.  Names follow
``<layer>.<what>``; ``*_calls`` are counts, ``*self_s`` exclusive
seconds and other ``*_s`` inclusive seconds.  Which end-to-end metric
and workload each one should move is listed in ``README.md``.

Work inside fork-pool children is not seen here.  The pool entry point
``fanout_map`` is its own ledger line (the parent-side wait), and the
items it hands to children are counted from the parent: RSA keygen
jobs as ``crypto.rsa.keygen_calls``, proving jobs as
``zksnark.prove_calls``.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
from typing import Any, Dict, Iterable, List, Tuple

from tracing import Patcher, Recorder, resolve

#: Root spans around the benchmark's own set-up and run calls.
BENCH = "bench"
FORK_WAIT = "core.engine.fork_wait"


def _keccak_bytes(rec: Recorder, args, kwargs, result) -> None:
    rec.add("keccak.bytes", len(args[0]))


def _mempool_add(rec: Recorder, args, kwargs, result) -> None:
    if result is False:
        rec.add("mempool.rejected")


def _created_block(rec: Recorder, args, kwargs, result) -> None:
    rec.add("node.txs_created", len(result.transactions))


def _prove_many(rec: Recorder, args, kwargs, result) -> None:
    # Base-class fallbacks re-enter prove_many; count the outermost batch.
    if rec.parent_key() != ("zksnark", "prove_many"):
        rec.add("zksnark.batches")
        rec.add("zksnark.batch_jobs", len(args[1]))


def _forks(args, kwargs) -> bool:
    """Whether ``fanout_map(worker, items, jobs, chunked)`` forks.

    Only then is its span a fork-pool wait; an in-process map is the
    caller's own work (Groth16's MSMs at ``jobs=1``) and stays in the
    caller's self time.
    """
    items, jobs = args[1], args[2]
    return jobs > 1 and len(items) > 1


def _fanout(rec: Recorder, args, kwargs, result) -> None:
    from repro.core.engine import _KeygenJob
    from repro.zksnark.backend import BatchProveJob

    worker, items = args[0], args[1]
    if isinstance(worker, BatchProveJob):
        rec.add("fork.prove", len(items))
    elif isinstance(worker, _KeygenJob):
        rec.add("fork.rsa_keygen", len(items))


def _class(path: str) -> type:
    owner, attr = resolve("repro." + path)
    return getattr(owner, attr)


def _contract_methods(cls_path: str) -> List[str]:
    cls = _class(cls_path)
    return [
        f"{cls_path}.{name}"
        for name, value in vars(cls).items()
        if getattr(value, "__contract_visibility__", None) in ("external", "view")
    ]


#: (layer, op, "module:qualname" under ``repro``, probe); see ``_FILTERS``.
_STATIC_TARGETS: List[Tuple[str, str, str, Any]] = [
    ("crypto.keccak", "hash", "crypto.keccak:keccak_256", _keccak_bytes),
    ("crypto.ecdsa", "sign", "crypto.ecdsa:ECDSAKeyPair.sign", None),
    ("crypto.ecdsa", "recover", "crypto.ecdsa:recover_public_key", None),
    ("crypto.rsa", "keygen", "crypto.rsa:RSAKeyPair.generate", None),
    ("crypto.rsa", "encrypt", "crypto.rsa:RSAPublicKey.encrypt", None),
    ("crypto.rsa", "decrypt", "crypto.rsa:RSAKeyPair.decrypt", None),
    ("crypto.oaep", "encode", "crypto.oaep:oaep_encode", None),
    ("crypto.oaep", "decode", "crypto.oaep:oaep_decode", None),
    ("anonauth", "auth", "anonauth.scheme:AnonymousAuthScheme.auth", None),
    ("anonauth", "auth", "anonauth.scheme:AnonymousAuthScheme.auth_tag_link", None),
    ("anonauth", "verify", "anonauth.scheme:AnonymousAuthScheme.verify", None),
    ("anonauth", "verify", "anonauth.scheme:AnonymousAuthScheme.verify_tag_link", None),
    ("anonauth", "link", "anonauth.scheme:AnonymousAuthScheme.link", None),
    ("chain.vm", "tx", "chain.vm:VM.execute_transaction", None),
    ("chain.state", "clone", "chain.account:Account.clone", None),
    ("chain.state", "root", "chain.state:WorldState.state_root", None),
    ("chain.state", "root", "chain.state:LaneState.state_root", None),
    ("chain.merkle", "root", "chain.txtrie:merkle_root", None),
    ("chain.node", "create", "chain.node:Node.create_block", _created_block),
    ("chain.node", "import", "chain.node:Node.import_block", None),
    ("chain.node", "submit", "chain.node:Node.submit_transaction", None),
    ("chain.mempool", "add", "chain.mempool:Mempool.add", _mempool_add),
    ("chain.mempool", "select", "chain.mempool:Mempool.select_for_block", None),
    ("chain.txsender", "broadcast", "chain.txsender:TxSender.broadcast", None),
    ("chain.txsender", "poll", "chain.txsender:TxSender.poll", None),
    ("chain.txsender", "service", "chain.txsender:TxSender.service", None),
    ("chain.network", "mine", "chain.network:Testnet.mine_block", None),
    ("chain.network", "gossip", "chain.network:Network.broadcast_transaction", None),
    ("chain.network", "gossip", "chain.network:Network.broadcast_block", None),
    ("chain.network", "tick", "chain.network:Network.tick", None),
    # ShardedChain.mine_block's own code is the relayer round: the shard
    # blocks and the beacon are child spans.
    ("chain.sharding", "relay", "chain.sharding:ShardedChain.mine_block", None),
    ("chain.sharding", "beacon_observe", "chain.sharding:Beacon.observe", None),
    ("chain.sharding", "send", "chain.sharding:ShardOutbox.send", None),
    ("chain.sharding", "deliver", "chain.sharding:ShardInbox.deliver", None),
    ("chain.sharding", "drain", "chain.sharding:ShardedChain.drain_cross_shard", None),
    ("chain.sharding", "in_flight",
     "chain.sharding:ShardedChain.in_flight_value", None),
    ("chain.sharding", "transfer",
     "chain.sharding:ShardedChain.transfer_transaction", None),
    ("serialization", "encode", "serialization:encode", None),
    ("serialization", "decode", "serialization:decode", None),
    ("core.engine", "run", "core.engine:ProtocolEngine.run", None),
    (FORK_WAIT, "wait", "zksnark.backend:fanout_map", _fanout),
    ("core.worker", "prepare", "core.worker:Worker.prepare_submission", None),
    ("core.worker", "board", "core.worker:Worker.discover_listings", None),
    ("core.worker", "board", "core.worker:Worker.place_bid", None),
    ("core.worker", "board", "core.worker:Worker.report_work", None),
    ("core.requester", "prepare", "core.requester:Requester.prepare_publish", None),
    ("core.requester", "prepare", "core.requester:Requester.prepare_reward", None),
    ("core.requester", "board", "core.requester:Requester.post_listing", None),
    ("core.requester", "board", "core.requester:Requester.match_listing", None),
    ("core.requester", "board", "core.requester:Requester.attach_listing_task", None),
    ("core.requester", "board", "core.requester:Requester.open_dispute", None),
    ("core.requester", "board", "core.requester:Requester.settle_listing", None),
    ("core.protocol", "register",
     "core.protocol:ZebraLancerSystem.register_participants", None),
    ("core.protocol", "send", "core.protocol:ZebraLancerSystem.send_reliable", None),
    ("core.protocol", "fund", "core.protocol:ZebraLancerSystem.fund_anonymous", None),
    ("core.protocol", "init", "core.protocol:ZebraLancerSystem.__init__", None),
    ("chain.network", "init", "chain.network:Testnet.__init__", None),
    ("chain.sharding", "init", "chain.sharding:ShardedChain.__init__", None),
    ("core.market", "rule", "core.market:Arbiter.rule", None),
    ("core.market", "deploy", "core.market:deploy_marketplace", None),
]

_BACKENDS = (
    "zksnark.backend:ProvingBackend",
    "zksnark.mock:MockBackend",
    "zksnark.groth16:Groth16Backend",
    "zksnark.service:ProvingService",
)
_SNARK_OPS = ("setup", "prove", "verify", "prove_many", "batch_verify")
_CONTRACTS = (
    ("contracts.task", "contracts.task:TaskContract"),
    ("contracts.marketplace", "contracts.marketplace:MarketplaceContract"),
    ("contracts.registry", "contracts.registry:RegistryContract"),
)


def targets() -> List[Tuple[str, str, str, Any]]:
    """Every wrapped callable, resolved against the loaded library."""
    out = list(_STATIC_TARGETS)
    for cls_path in _BACKENDS:
        cls = _class(cls_path)
        for op in _SNARK_OPS:
            # Only methods a class defines itself; abstract stubs never run.
            method = vars(cls).get(op)
            if method is None or getattr(method, "__isabstractmethod__", False):
                continue
            probe = _prove_many if op == "prove_many" else None
            out.append(("zksnark", op, f"{cls_path}.{op}", probe))
    for layer, cls_path in _CONTRACTS:
        out.extend(
            (layer, "method", path, None) for path in _contract_methods(cls_path)
        )
    return out


def load_library() -> None:
    """Import every ``repro`` module before patching.

    A module first imported while wrappers are installed would bind a
    wrapper that ``restore`` never sees, so every binding must exist
    before the first patch.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


#: Targets recorded only when a filter says so.
_FILTERS = {"zksnark.backend:fanout_map": _forks}


def install(patcher: Patcher) -> Patcher:
    load_library()
    for layer, op, path, probe in targets():
        patcher.patch("repro." + path, (layer, op), probe, _FILTERS.get(path))
    return patcher


#: The ledger's layers; ``BENCH`` self time is the unattributed rest.
LAYERS = (
    "crypto.keccak", "crypto.ecdsa", "crypto.rsa", "crypto.oaep", "zksnark",
    "anonauth", "chain.vm", "contracts.task", "contracts.marketplace",
    "contracts.registry", "chain.state", "chain.merkle", "chain.node",
    "chain.mempool", "chain.txsender", "chain.network", "chain.sharding",
    "serialization", "core.engine", FORK_WAIT, "core.worker", "core.requester",
    "core.protocol", "core.market",
)


class Ledger:
    """Aggregated spans of one traced cohort."""

    def __init__(self, recorder: Recorder) -> None:
        self.counters = dict(recorder.counters)
        self.calls: Dict[Tuple[str, str], int] = {}
        self.self_s: Dict[Tuple[str, str], float] = {}
        self.total_s: Dict[Tuple[str, str], float] = {}
        self.durations: Dict[Tuple[str, str], List[float]] = {}
        self.wall_s = 0.0
        keys = recorder.keys
        for key, (start, end, parent), own in zip(
            keys, recorder.spans, recorder.self_times()
        ):
            if parent < 0:
                self.wall_s += end - start
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + own
            self.total_s[key] = self.total_s.get(key, 0.0) + (end - start)
            self.durations.setdefault(key, []).append(end - start)
        self.round_s = _engine_rounds(recorder)

    def _sum(self, table: Dict, layer: str, ops: Iterable[str]) -> Any:
        ops = tuple(ops)
        return sum(
            value
            for (lay, op), value in table.items()
            if lay == layer and (not ops or op in ops)
        )

    def count(self, layer: str, *ops: str) -> int:
        return self._sum(self.calls, layer, ops)

    def own(self, layer: str, *ops: str) -> float:
        return self._sum(self.self_s, layer, ops)

    def inclusive(self, layer: str, *ops: str) -> float:
        return self._sum(self.total_s, layer, ops)


def _engine_rounds(recorder: Recorder) -> List[float]:
    """Wall time of each engine round: from one block mined by the
    engine's loop to the next (the first from the run's start, the
    last to its end)."""
    rounds: List[float] = []
    run_spans = [
        i for i, key in enumerate(recorder.keys) if key == ("core.engine", "run")
    ]
    for run in run_spans:
        run_start, run_end, _ = recorder.spans[run]
        marks = [run_start]
        for i, (start, end, parent) in enumerate(recorder.spans):
            if parent == run and recorder.keys[i] in (
                ("chain.network", "mine"),
                ("chain.sharding", "relay"),
            ):
                marks.append(end)
        marks.append(run_end)
        rounds.extend(b - a for a, b in zip(marks, marks[1:]))
    return rounds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(
    ledger: Ledger, context: Dict[str, float], untraced_wall_s: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced cohort.

    ``context`` holds what the workload read off the chain after the
    run: ``tasks``, ``rounds``, ``gas``, ``retries``, ``drain_blocks``.
    """
    c = ledger.counters
    blocks = ledger.count("chain.node", "create")
    txs_created = c.get("node.txs_created", 0)
    auth = ledger.durations.get(("anonauth", "auth"), [])
    out: Dict[str, float] = {
        "crypto.keccak.calls": ledger.count("crypto.keccak"),
        "crypto.keccak.bytes": c.get("keccak.bytes", 0),
        "crypto.ecdsa.sign_calls": ledger.count("crypto.ecdsa", "sign"),
        "crypto.ecdsa.sign_self_s": ledger.own("crypto.ecdsa", "sign"),
        "crypto.ecdsa.recover_calls": ledger.count("crypto.ecdsa", "recover"),
        "crypto.ecdsa.recover_self_s": ledger.own("crypto.ecdsa", "recover"),
        "crypto.rsa.keygen_calls": ledger.count("crypto.rsa", "keygen")
        + c.get("fork.rsa_keygen", 0),
        "crypto.oaep.calls": ledger.count("crypto.oaep"),
        "zksnark.setup_calls": ledger.count("zksnark", "setup"),
        "zksnark.setup_self_s": ledger.own("zksnark", "setup"),
        "zksnark.prove_calls": ledger.count("zksnark", "prove")
        + c.get("fork.prove", 0),
        "zksnark.prove_self_s": ledger.own("zksnark", "prove"),
        "zksnark.prove_batch_mean": _ratio(
            c.get("zksnark.batch_jobs", 0), c.get("zksnark.batches", 0)
        ),
        "zksnark.verify_calls": ledger.count("zksnark", "verify"),
        "zksnark.verify_self_s": ledger.own("zksnark", "verify"),
        "anonauth.auth_calls": len(auth),
        "anonauth.auth_s_p50": statistics.median(auth) if auth else 0.0,
        "anonauth.verify_calls": ledger.count("anonauth", "verify"),
        "anonauth.verify_self_s": ledger.own("anonauth", "verify"),
        "anonauth.link_self_s": ledger.own("anonauth", "link"),
        "chain.vm.tx_calls": ledger.count("chain.vm", "tx"),
        "chain.vm.gas_per_task": _ratio(context["gas"], context["tasks"]),
        "chain.state.clone_calls": ledger.count("chain.state", "clone"),
        "chain.state.clone_self_s": ledger.own("chain.state", "clone"),
        "chain.state.root_calls": ledger.count("chain.state", "root"),
        "chain.state.root_self_s": ledger.own("chain.state", "root"),
        "chain.merkle.root_calls": ledger.count("chain.merkle", "root"),
        "chain.node.blocks_created": blocks,
        "chain.node.create_block_s": ledger.inclusive("chain.node", "create"),
        "chain.node.import_calls": ledger.count("chain.node", "import"),
        "chain.node.import_block_s": ledger.inclusive("chain.node", "import"),
        "chain.node.txs_per_block": _ratio(txs_created, blocks),
        "chain.mempool.add_calls": ledger.count("chain.mempool", "add"),
        "chain.mempool.rejected": c.get("mempool.rejected", 0),
        "chain.mempool.select_self_s": ledger.own("chain.mempool", "select"),
        "chain.txsender.broadcasts": ledger.count("chain.txsender", "broadcast"),
        "chain.txsender.retries": context["retries"],
        "chain.txsender.poll_self_s": ledger.own("chain.txsender", "poll"),
        "chain.network.mine_block_s": ledger.inclusive("chain.network", "mine"),
        "chain.network.messages_per_tx": _ratio(
            ledger.count("chain.node", "submit", "import"), txs_created
        ),
        "chain.sharding.xshard_sends": ledger.count("chain.sharding", "send"),
        "chain.sharding.deliveries": ledger.count("chain.sharding", "deliver"),
        "chain.sharding.deliver_self_s": ledger.own("chain.sharding", "deliver"),
        "chain.sharding.beacon_observe_self_s": ledger.own(
            "chain.sharding", "beacon_observe"
        ),
        "chain.sharding.relay_self_s": ledger.own("chain.sharding", "relay"),
        "chain.sharding.drain_blocks": context.get("drain_blocks", 0),
        "serialization.encode_calls": ledger.count("serialization", "encode"),
        "serialization.decode_calls": ledger.count("serialization", "decode"),
        "core.engine.rounds": context["rounds"],
        "core.engine.round_s_p50": (
            statistics.median(ledger.round_s) if ledger.round_s else 0.0
        ),
        "core.engine.fork_wait_s": ledger.own(FORK_WAIT),
        "core.worker.prepare_self_s": ledger.own("core.worker", "prepare"),
        "core.requester.prepare_self_s": ledger.own("core.requester", "prepare"),
    }
    for layer in LAYERS:
        if layer != FORK_WAIT:
            out[f"{layer}.self_s"] = ledger.own(layer)
    out["trace.wall_s"] = ledger.wall_s
    out["trace.attributed_share"] = _ratio(
        ledger.wall_s - ledger.own(BENCH), ledger.wall_s
    )
    out["trace.overhead"] = _ratio(ledger.wall_s, untraced_wall_s) - 1.0
    return out


#: Per workload, the metrics that must be non-zero in a traced run: the
#: layers that do most of its work.  A zero means a wrapper missed the
#: code path (e.g. a name bound by ``from ... import`` was not patched).
MUST_BE_LIT: Dict[str, Tuple[str, ...]] = {
    "engine-mock": (
        "crypto.keccak.calls", "crypto.ecdsa.sign_calls",
        "crypto.ecdsa.recover_calls", "crypto.rsa.keygen_calls",
        "crypto.oaep.calls", "zksnark.prove_calls", "zksnark.verify_calls",
        "anonauth.auth_calls", "chain.vm.tx_calls", "contracts.task.self_s",
        "contracts.registry.self_s", "chain.state.clone_calls",
        "chain.state.root_calls", "chain.merkle.root_calls",
        "chain.node.blocks_created", "chain.node.import_calls",
        "chain.mempool.add_calls", "chain.txsender.broadcasts",
        "chain.network.mine_block_s", "serialization.encode_calls",
        "serialization.decode_calls", "core.engine.rounds",
        "core.engine.fork_wait_s", "core.worker.prepare_self_s",
        "core.requester.prepare_self_s",
    ),
    "engine-groth16": (
        "zksnark.setup_calls", "zksnark.prove_calls", "zksnark.verify_calls",
        "anonauth.auth_calls", "crypto.rsa.keygen_calls",
    ),
    "market-board": (
        "contracts.marketplace.self_s", "chain.state.clone_calls",
        "chain.state.root_calls", "crypto.ecdsa.recover_calls",
        "chain.node.import_calls", "chain.network.mine_block_s",
        "core.worker.self_s", "core.requester.self_s", "core.market.self_s",
    ),
    "shard-settle": (
        "chain.sharding.xshard_sends", "chain.sharding.deliveries",
        "chain.sharding.deliver_self_s", "chain.sharding.beacon_observe_self_s",
        "chain.sharding.relay_self_s", "chain.sharding.drain_blocks",
    ),
}


_COUNT_SUFFIXES = (
    "calls", "rejected", "broadcasts", "retries", "xshard_sends", "deliveries",
    "blocks_created", "rounds", "drain_blocks",
)


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    what = name.rsplit(".", 1)[1]
    if what.endswith(_COUNT_SUFFIXES):
        return "count"
    if what.endswith(("_s", "_s_p50")):
        return "s"
    return {
        "bytes": "bytes",
        "prove_batch_mean": "jobs/batch",
        "gas_per_task": "gas/task",
        "txs_per_block": "tx/block",
        "messages_per_tx": "msg/tx",
        "attributed_share": "ratio",
        "overhead": "ratio",
    }[what]


def dark_layers(workload: str, values: Dict[str, float]) -> List[str]:
    return [name for name in MUST_BE_LIT.get(workload, ()) if not values.get(name)]
