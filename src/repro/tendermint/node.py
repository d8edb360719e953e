"""Chains and full nodes: wiring state, consensus, RPC and WebSocket.

A :class:`Chain` owns the canonical state (application, mempool, stores,
consensus engine).  A :class:`ChainNode` is one machine's full node serving
that chain over RPC + WebSocket — the paper's deployment runs one full node
of *each* chain on every machine, and clients (Hermes, the CLI) talk to
their machine-local node.  Each node has its own serial RPC queue, which is
why two relayers on different machines do not contend on RPC but still race
on the chain itself.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Optional

from repro import calibration as cal
from repro.cosmos.app import GaiaApp
from repro.errors import RpcError, SimulationError
from repro.ibc.channel import ChannelOrder
from repro.ibc.module import CounterpartyChainInfo
from repro.sim.core import SHUTDOWN, Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.tendermint.consensus import CommittedBlockInfo, ConsensusEngine
from repro.tendermint.mempool import Mempool
from repro.tendermint.rpc import RpcServer
from repro.tendermint.store import BlockStore, TxIndexer
from repro.tendermint.validator import ValidatorSet
from repro.tendermint.websocket import BlockView, WebSocketServer
from repro.trace import NULL_TRACER, packet_key

#: Event kinds whose indexed entries a packet-data pull must scan, and the
#: calibration attribute holding the per-event scan cost.
_SCAN_COST_ATTR = {
    "send_packet": "rpc_scan_seconds_per_transfer_event",
    "write_acknowledgement": "rpc_scan_seconds_per_recv_event",
}



def _unreceived(ibc, port: str, channel: str, sequences: list[int]):
    """The sequences not yet received on a channel, and its receive counter
    if ORDERED (0 if UNORDERED).  Ordered channels write no receipts: the
    counter has passed every sequence they received."""
    if ibc.channels[(port, channel)].ordering == ChannelOrder.ORDERED:
        next_recv = ibc.next_sequence_recv[(port, channel)]
        return [s for s in sequences if s >= next_recv], next_recv
    return [s for s in sequences if not ibc.has_receipt(port, channel, s)], 0


@dataclass
class BroadcastResult:
    code: int
    log: str
    tx_hash: bytes

    @property
    def ok(self) -> bool:
        return self.code == 0


@dataclass
class TxLookupResult:
    found: bool
    code: int = 0
    log: str = ""
    height: int = 0
    gas_used: int = 0


class Chain:
    """One blockchain: canonical state plus its validator/simulation setup."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        chain_id: str,
        validator_hosts: list[str],
        rng: RngRegistry,
        calibration: Optional[cal.Calibration] = None,
        proof_mode: str = "merkle",
        tracer=NULL_TRACER,
    ):
        if not validator_hosts:
            raise SimulationError("a chain needs at least one validator host")
        self.env = env
        self.network = network
        self.chain_id = chain_id
        self.cal = calibration or cal.DEFAULT_CALIBRATION
        self.rng = rng
        self.tracer = tracer
        # Keyed: gossip routing is sampled from whichever RPC serve process
        # accepts the broadcast, so a sequential stream would assign draws
        # in event-heap tie order when two txs land at the same instant.
        self._gossip_rng = rng.keyed(f"gossip/{chain_id}")

        names = [f"{chain_id}-val{i}" for i in range(len(validator_hosts))]
        self.validators = ValidatorSet.with_names(names)
        self.validator_hosts = dict(zip(names, validator_hosts))

        self.app = GaiaApp(
            chain_id,
            calibration=self.cal,
            proof_mode=proof_mode,
            rng=rng.stream(f"gas/{chain_id}"),
        )
        self.mempool = Mempool(
            self.app,
            max_txs=self.cal.mempool_max_txs,
            tracer=tracer,
            chain_id=chain_id,
        )
        self.block_store = BlockStore()
        self.indexer = TxIndexer()
        self.engine = ConsensusEngine(
            env=env,
            network=network,
            chain_id=chain_id,
            validators=self.validators,
            validator_hosts=self.validator_hosts,
            app=self.app,
            mempool=self.mempool,
            block_store=self.block_store,
            indexer=self.indexer,
            rng=rng,
            calibration=self.cal,
            primary_host=validator_hosts[0],
        )
        self.nodes: dict[str, ChainNode] = {}
        self.engine.subscribe(self._trace_block)
        self.engine.subscribe(self._fanout_block)

    # ------------------------------------------------------------------

    def add_node(self, host: str) -> "ChainNode":
        if host in self.nodes:
            return self.nodes[host]
        node = ChainNode(self, host)
        self.nodes[host] = node
        return node

    def node(self, host: str) -> "ChainNode":
        node = self.nodes.get(host)
        if node is None:
            raise SimulationError(f"chain {self.chain_id} has no node on {host!r}")
        return node

    def start(self) -> None:
        self.engine.start()

    def stop(self) -> None:
        self.engine.stop()

    def shutdown(self) -> None:
        """Teardown: halt consensus immediately and kill in-flight RPC."""
        self.engine.shutdown()
        for node in self.nodes.values():
            node.rpc.processes.interrupt_all(SHUTDOWN)

    def counterparty_info(self) -> CounterpartyChainInfo:
        return CounterpartyChainInfo(
            chain_id=self.chain_id, validator_set=self.validators
        )

    @property
    def height(self) -> int:
        return self.engine.height

    def _trace_block(self, info: CommittedBlockInfo) -> None:
        """Record the block-inclusion span and per-packet commit marks.

        The block span runs from proposal (``header.time``, when reaped
        txs are *included*) to commit completion; each committed packet
        event becomes a ``commit/<kind>`` mark carrying the proposal time,
        so the aggregator can split submit-to-commit latency exactly.
        """
        if not self.tracer.enabled:
            return
        executed = info.executed
        track = f"{self.chain_id}/consensus"
        proposed = info.block.header.time
        self.tracer.record_span(
            "block",
            track,
            start=proposed,
            end=info.commit_time,
            height=executed.height,
            txs=len(executed.txs),
            msgs=executed.message_count,
            execution_seconds=executed.execution_seconds,
        )
        for item in executed.txs:
            if not item.ok:
                continue
            for event in item.result.events:
                packet = event.packet
                if packet is None or event.type not in cal.PACKET_EVENT_KINDS:
                    continue
                self.tracer.event(
                    f"commit/{event.type}",
                    track,
                    key=packet_key(
                        event.src_chain, packet.source_channel, packet.sequence
                    ),
                    chain=self.chain_id,
                    height=executed.height,
                    tx_hash=item.hash,
                    proposed=proposed,
                )

    def _fanout_block(self, info: CommittedBlockInfo) -> None:
        """Publish the block on every node's WebSocket server, all sharing
        one :class:`BlockView`."""
        view = BlockView(self.chain_id, info.executed)
        for node in self.nodes.values():
            node.websocket.publish_block(view)

    def gossip_delay(self, from_host: str) -> float:
        """Delay until a tx submitted at ``from_host`` reaches proposers."""
        hosts = list(self.validator_hosts.values())
        validator_host = hosts[
            self._gossip_rng.index(
                self.env.now, len(hosts), salt=zlib.crc32(from_host.encode())
            )
        ]
        return self.network.delay(from_host, validator_host) + 0.05


class ChainNode:
    """A full node on one machine: serial RPC server + WebSocket server."""

    def __init__(self, chain: Chain, host: str):
        self.chain = chain
        self.host = host
        self.rpc = RpcServer(
            chain.env, chain.network, host, calibration=chain.cal,
            tracer=chain.tracer,
        )
        self.rpc.trace_track = f"{chain.chain_id}/{host}/rpc"
        self.websocket = WebSocketServer(
            chain.env, chain.network, host, chain.chain_id, calibration=chain.cal,
            tracer=chain.tracer,
        )
        self._register_handlers()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def set_crashed(self, crashed: bool) -> None:
        """Take the full node down (up): RPC refuses new requests and every
        WebSocket subscription is severed.  Consensus participation of any
        co-hosted validator is handled separately by the fault injector via
        :meth:`ConsensusEngine.set_silent`."""
        self.rpc.set_crashed(crashed)
        self.websocket.set_crashed(crashed)

    # ------------------------------------------------------------------
    # RPC handlers: (params) -> (service_seconds, result_fn)
    # ------------------------------------------------------------------

    def _register_handlers(self) -> None:
        register = self.rpc.register
        register("status", self._h_status)
        register("account", self._h_account)
        register("broadcast_tx_sync", self._h_broadcast)
        register("tx", self._h_tx_lookup)
        register("pull_packet_data", self._h_pull_packet_data)
        register("prove_packets", self._h_prove_packets)
        register("unreceived_packets", self._h_unreceived_packets)
        register("unreceived_acks", self._h_unreceived_acks)
        register("commitments", self._h_commitments)
        register("packets_by_sequence", self._h_packets_by_sequence)
        register("acks_by_sequence", self._h_acks_by_sequence)
        register("block_info", self._h_block_info)
        register("balance", self._h_balance)

    def _h_status(self, params: dict[str, Any]):
        def result():
            return {
                "chain_id": self.chain.chain_id,
                "height": self.chain.engine.height,
                "time": self.chain.env.now,
            }

        return self.chain.cal.rpc_base_seconds, result

    def _h_account(self, params: dict[str, Any]):
        address = params["address"]

        def result():
            return {"sequence": self.chain.app.account_sequence(address)}

        return self.chain.cal.rpc_base_seconds, result

    def _h_balance(self, params: dict[str, Any]):
        address, denom = params["address"], params["denom"]

        def result():
            return {"balance": self.chain.app.bank.balance(address, denom)}

        return self.chain.cal.rpc_base_seconds, result

    def _h_broadcast(self, params: dict[str, Any]):
        tx = params["tx"]
        c = self.chain.cal
        service = (
            c.rpc_broadcast_base_seconds
            + c.rpc_broadcast_seconds_per_msg * getattr(tx, "msg_count", 1)
        )

        def result():
            response = self.chain.mempool.add(
                tx,
                now=self.chain.env.now,
                gossip_delay=self.chain.gossip_delay(self.host),
            )
            return BroadcastResult(
                code=response.code, log=response.log, tx_hash=tx.hash
            )

        return service, result

    def _h_tx_lookup(self, params: dict[str, Any]):
        tx_hash = params["tx_hash"]

        def result():
            executed = self.chain.indexer.get_tx(tx_hash)
            if executed is None:
                return TxLookupResult(found=False)
            return TxLookupResult(
                found=True,
                code=executed.result.code,
                log=executed.result.log,
                height=executed.height,
                gas_used=executed.result.gas_used,
            )

        return self.chain.cal.rpc_tx_lookup_seconds, result

    def _h_pull_packet_data(self, params: dict[str, Any]):
        """THE bottleneck query: packet data + proofs for one transaction.

        Service time scales with the number of same-kind events indexed at
        the transaction's height — the tx_search-style scan the paper blames
        for 69 % of large-batch processing time.
        """
        height = params["height"]
        tx_hash = params["tx_hash"]
        kind = params["kind"]
        cost_attr = _SCAN_COST_ATTR.get(kind)
        if cost_attr is None:
            raise RpcError(f"cannot pull packet data for event kind {kind!r}")
        per_event = getattr(self.chain.cal, cost_attr)
        events_at_height = self.chain.indexer.events_at(height).get(kind, 0)
        # Failed transactions (e.g. a losing relayer's redundant packets)
        # are indexed too and inflate the scan.
        failed = self.chain.indexer.failed_message_count_at(height)
        service = self.chain.cal.rpc_base_seconds + per_event * (
            events_at_height + failed
        )

        def result():
            return self._collect_packet_data(height, tx_hash, kind)

        return service, result

    def _collect_packet_data(
        self, height: int, tx_hash: bytes, kind: str
    ) -> dict[str, Any]:
        executed = self.chain.indexer.get_tx(tx_hash)
        if executed is None:
            return {"entries": []}
        return {
            "entries": [
                {"packet": event.packet, "src_chain": event.src_chain, "ack": event.ack}
                for event in executed.result.events
                if event.type == kind and event.packet is not None
            ]
        }

    def _h_prove_packets(self, params: dict[str, Any]):
        """Per-transaction proof fetch, served at one consistent height.

        Mirrors Hermes's ``abci_query(prove=true)`` calls: the returned
        proofs and the signed header come from the same committed state,
        so a client update built from this response always verifies them.
        ``kind`` names what each sequence's proof shows: its ``commitment``
        (recv), its ``ack`` (acknowledgement), or its ``absence`` at the
        receiving end (timeout).  A sequence with nothing to prove (no
        commitment, no ack, or already received) gets no proof.
        """
        port, channel = params["port"], params["channel"]
        sequences = params["sequences"]
        kind = params["kind"]
        if kind not in ("commitment", "ack", "absence"):
            raise RpcError(f"unknown proof kind {kind!r}")
        service = self.chain.cal.rpc_base_seconds + 2e-4 * len(sequences)

        def result():
            ibc = self.chain.app.ibc
            header = self.chain.engine.latest_signed_header
            proofs: dict[int, Any] = {}
            next_recv = 0
            if kind == "commitment":
                for sequence in sequences:
                    if ibc.has_commitment(port, channel, sequence):
                        proofs[sequence] = ibc.prove_commitment(
                            port, channel, sequence
                        )
            elif kind == "ack":
                for sequence in sequences:
                    if ibc.acknowledgement_for(port, channel, sequence) is not None:
                        proofs[sequence] = ibc.prove_acknowledgement(
                            port, channel, sequence
                        )
            else:
                unreceived, next_recv = _unreceived(ibc, port, channel, sequences)
                if not next_recv:
                    proofs = {
                        s: ibc.prove_unreceived(port, channel, s) for s in unreceived
                    }
                elif unreceived:
                    # One proof of the receive counter serves every
                    # sequence it has not passed.
                    proofs = dict.fromkeys(
                        unreceived, ibc.prove_next_sequence_recv(port, channel)
                    )
            return {
                "proofs": proofs,
                "signed_header": header,
                "proof_height": header.height if header else 0,
                "next_sequence_recv": next_recv,
            }

        return service, result

    def _h_unreceived_packets(self, params: dict[str, Any]):
        port, channel = params["port"], params["channel"]
        sequences = params["sequences"]
        service = self.chain.cal.rpc_base_seconds + 2e-5 * len(sequences)

        def result():
            return _unreceived(self.chain.app.ibc, port, channel, sequences)[0]

        return service, result

    def _h_unreceived_acks(self, params: dict[str, Any]):
        """Sequences whose commitments still exist (acks not yet relayed)."""
        port, channel = params["port"], params["channel"]
        sequences = params["sequences"]
        service = self.chain.cal.rpc_base_seconds + 2e-5 * len(sequences)

        def result():
            ibc = self.chain.app.ibc
            return [s for s in sequences if ibc.has_commitment(port, channel, s)]

        return service, result

    def _h_commitments(self, params: dict[str, Any]):
        pending = self.chain.app.ibc.pending_commitments(
            params["port"], params["channel"]
        )
        service = self.chain.cal.rpc_base_seconds + 1e-5 * len(pending)
        return service, lambda: pending

    def _h_packets_by_sequence(self, params: dict[str, Any]):
        """Packet-clearing fetch: reconstruct pending packets by sequence.

        In the real system this is a tx_search over history, so the service
        time uses the transfer-event scan cost per requested sequence.  It
        returns the packets only; the relayer proves the ones it relays
        per transaction with ``prove_packets``.
        """
        port, channel = params["port"], params["channel"]
        sequences = params["sequences"]
        c = self.chain.cal
        service = c.rpc_base_seconds + (
            c.rpc_scan_seconds_per_transfer_event * 2 * len(sequences)
        )

        def result():
            ibc = self.chain.app.ibc
            packets = []
            for sequence in sequences:
                packet = ibc.sent_packet(port, channel, sequence)
                if packet is not None and ibc.has_commitment(port, channel, sequence):
                    packets.append(packet)
            return packets

        return service, result

    def _h_acks_by_sequence(self, params: dict[str, Any]):
        """Ack-clearing fetch: written acknowledgements for given packets.

        ``port``/``channel`` identify the *destination* end (where the
        acks were written).  Costs scale like a recv-event history scan.
        """
        port, channel = params["port"], params["channel"]
        sequences = params["sequences"]
        c = self.chain.cal
        service = c.rpc_base_seconds + (
            c.rpc_scan_seconds_per_recv_event * len(sequences)
        )

        def result():
            ibc = self.chain.app.ibc
            acks = {}
            for sequence in sequences:
                ack = ibc.acknowledgement_for(port, channel, sequence)
                if ack is not None:
                    acks[sequence] = ack
            return {"acks": acks}

        return service, result

    def _h_block_info(self, params: dict[str, Any]):
        """Bulk per-height query used by the analysis tooling.

        This is the query the paper's §V complains about: hundreds of
        thousands of output lines per block, seconds of service time —
        service scales with the full indexed event payload.
        """
        height = params["height"]
        event_bytes = self.chain.indexer.event_bytes_at(height)
        service = (
            self.chain.cal.rpc_base_seconds
            + self.chain.cal.rpc_seconds_per_response_byte * event_bytes
        )

        def result():
            block = self.chain.block_store.block(height)
            executed = self.chain.block_store.executed(height)
            if block is None or executed is None:
                return None
            return {
                "height": height,
                "time": block.header.time,
                "tx_hashes": [tx.hash for tx in block.data.txs],
                "message_count": executed.message_count,
                "event_bytes": event_bytes,
                "tx_results": [
                    (t.hash, t.result.code, t.result.gas_used) for t in executed.txs
                ],
            }

        return service, result
