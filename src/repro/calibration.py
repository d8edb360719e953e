"""Calibration of the simulated Gaia/Tendermint/Hermes stack.

Every tunable is one field of :class:`Calibration`, and its derivation from
a number the paper reports sits on the field, so that the simulation
reproduces the *shapes* of the paper's tables and figures;
``python -m repro check paper`` verifies the resulting behaviour against
the paper's values.
Each component reads the run's instance (``chain.cal``), never a copy, so
an ablation overrides a field once and every consumer sees it.  The few
module constants below are values no experiment varies; none restates a
field.

The paper's testbed: Intel i7-9700 3 GHz, 16 GB RAM, HDD, Debian 11, 200 ms
enforced RTT, two Gaia v7.0.3 chains with 5 validators each, Hermes 1.0.0,
>=5 s block interval, 100 transfer messages per transaction.
"""

from __future__ import annotations

from dataclasses import field, fields, replace

from repro.errors import WorkloadError, from_wire, to_wire
from repro.sim.records import dataclass

#: Relative gas-variance bounds the paper reports (1 %, 4.1 %, 7.6 %) — the
#: simulation draws per-message gas uniformly within these bands.
GAS_JITTER_TRANSFER = 0.01
GAS_JITTER_RECV = 0.041
GAS_JITTER_ACK = 0.076

#: Approximate wire size of one IBC message inside a transaction.
TX_BYTES_PER_MSG = 300
TX_BYTES_OVERHEAD = 350

#: The supervisor hands parsed batches to the direction workers one at a
#: time; each hand-off after the first costs this much.  A block whose
#: frame feeds two workers (hub blocks: recv + forward + write_ack in one
#: tx) therefore wakes them at strictly different instants, so their
#: follow-up queries never tie for the serial RPC slot.
RELAYER_BATCH_HANDOFF_SECONDS = 5e-6

# Deployment defaults (paper §III-C / §III-D).
DEFAULT_VALIDATORS = 5
DEFAULT_RTT = 0.200
DEFAULT_TIMEOUT_BLOCKS = 100  # packet timeout offset in destination heights

#: The packet events IBC emits, one per packet lifecycle boundary;
#: ``Calibration.event_bytes`` states each one's indexed size.
PACKET_EVENT_KINDS = (
    "send_packet",
    "recv_packet",
    "write_acknowledgement",
    "acknowledge_packet",
    "timeout_packet",
)

#: Fields that count things, so must be at least one.
_AT_LEAST_ONE = (
    "max_msgs_per_tx",
    "mempool_max_txs",
    "rpc_workers",
    "rpc_overload_client_threshold",
)
#: Fields a zero would divide by or spin on.
_POSITIVE = (
    "rpc_overload_scale",
    "relayer_confirm_poll_seconds",
    "cli_confirm_poll_seconds",
)


@dataclass(frozen=True)
class Calibration:
    """Every tunable of a run, overridable per experiment (for ablations).

    The defaults reproduce the paper's deployment; ablation benchmarks
    override single fields (e.g. ``rpc_workers=4`` for the parallel-RPC
    what-if).  ``max_msgs_per_tx`` and ``min_block_interval`` are the
    tool's ``msgs_per_tx`` / ``block_interval`` parameters: an experiment
    fills them from its config, so they never travel in a calibration
    document.
    """

    # -- Message model (paper §IV-A, "Hermes Relayer" paragraph) -----------

    #: Maximum IBC messages per transaction — the Hermes limit the paper uses.
    max_msgs_per_tx: int = field(default=100, metadata={"wire": None})

    # -- Tendermint consensus timing ---------------------------------------

    #: The paper configures a minimum 5 s interval between consecutive
    #: blocks (``timeout_commit``-style wait after each commit).
    min_block_interval: float = field(default=5.0, metadata={"wire": None})

    #: Base consensus latency (propose + two voting rounds) for 5 validators
    #: and a small payload: ~25 ms per the HotStuff measurements the paper
    #: cites.
    consensus_base_latency: float = 0.025

    #: Per-message execution cost in DeliverTx.  Drives the Fig. 7
    #: block-interval growth: at 13 000 RPS a block can carry ~65 000
    #: messages; with 90 us per message that adds ~5.9 s of execution,
    #: doubling the block interval — matching Fig. 7's roughly 2x interval
    #: growth at the top of the sweep.
    deliver_tx_seconds_per_msg: float = 90e-6

    #: Superlinear block-execution term (event indexing + goleveldb writes
    #: on the testbed's 7200RPM HDDs grow worse than linearly with block
    #: size).  Fitted to Fig. 6 / Fig. 7: with interval T(B) = 5s +
    #: consensus + exec and exec = overhead + 90us*B + 4.1e-8*B^2, the
    #: committed throughput B/T(B) passes through the paper's anchors:
    #: ~200 TFPS @ 250 RPS, peak ~961 TFPS near 3 000 RPS, ~830 @ 4 000,
    #: ~499 @ 9 000.
    indexing_seconds_per_msg_sq: float = 4.1e-8

    #: Fixed per-block processing overhead (BeginBlock/EndBlock/Commit, disk).
    block_overhead_seconds: float = 0.05

    #: Proposer's cut-off: transactions arriving within this window before
    #: the proposal are not included (models gossip/reap timing).
    proposal_cutoff_seconds: float = 0.05

    #: Mempool capacity in transactions (Tendermint default is 5 000).
    mempool_max_txs: int = 5_000

    #: Block gas limit.  Gaia's consensus params allow large blocks; the
    #: paper commits up to ~75 000 transfer messages in one block (§V
    #: websocket experiment: 1 000 txs x 100 transfers), so the limit must
    #: admit ~100k messages' worth of transfer gas: 100 000 x 36 692 = 3.7e9.
    block_max_gas: int = 4_000_000_000
    #: Maximum block size in bytes (Tendermint's hard cap ~21 MB; we allow
    #: the §V experiment's 1 000-tx block: 1 000 x (350 + 100 x 300) = ~30 MB).
    block_max_bytes: int = 34 * 1024 * 1024

    # -- Tendermint RPC service times — THE bottleneck (paper §IV-B) -------
    # The RPC server processes queries one at a time ("Tendermint is unable
    # to process queries in parallel").  Service time grows with the amount
    # of event data scanned/serialised.
    #
    # Calibration anchors (Fig. 12, 5 000 transfers in one block):
    #   * "transfer data pull" = 110 s.  Hermes issues one packet-data query
    #     per source transaction (50 of them), and each tx_search-style query
    #     scans the whole height's indexed events: 50 x 5 000 x c_t = 110 s
    #     => c_t = 0.44 ms per transfer-event scanned.
    #   * "recv data pull" = 207 s on the destination chain:
    #     50 x 5 000 x c_r = 207 s => c_r = 0.828 ms per recv-event scanned.
    #   These quadratic-in-block-occupancy costs are what produce Fig. 13's
    #   U-shape and the Fig. 8 saturation, so they are modelled structurally
    #   in ``tendermint/node.py`` (cost = base + events_in_scope x per-event
    #   cost).

    #: Concurrent RPC service slots: 1 is the paper's finding (serial); the
    #: parallel-RPC ablation sets more.
    rpc_workers: int = 1

    #: Fixed cost of any RPC query (routing, JSON envelope).
    rpc_base_seconds: float = 0.003

    #: Per-event scan/serialisation cost for packet-data queries, by the kind
    #: of event being scanned (see derivation above).
    rpc_scan_seconds_per_transfer_event: float = 0.44e-3
    rpc_scan_seconds_per_recv_event: float = 0.828e-3

    #: Serialisation cost per response byte for bulk queries (block contents).
    rpc_seconds_per_response_byte: float = 6e-9

    #: Cost of broadcast_tx_sync: CheckTx runs synchronously; grows with tx
    #: size.
    rpc_broadcast_base_seconds: float = 0.004
    rpc_broadcast_seconds_per_msg: float = 0.10e-3

    #: Cost of a /tx confirmation lookup (indexed by hash).  Together with
    #: the 2.5 s CLI poll interval this pins the Table I collapse:
    #: per-account poll load saturates the serial RPC at (R/20 accounts) x
    #: (0.005/2.5) = R*1e-4, i.e. utilisation 1.0 at exactly 10 000 RPS —
    #: where the paper first sees submission failures.
    rpc_tx_lookup_seconds: float = 0.005

    #: Client-side request timeout.  When the serial RPC queue exceeds this,
    #: the client sees ``failed tx: no confirmation`` / dropped requests —
    #: the mechanism behind Table I's submission collapse above 10 000 RPS.
    rpc_client_timeout_seconds: float = 10.0

    #: Maximum outstanding requests the RPC server will queue before shedding.
    rpc_max_queue: int = 1_200

    # Connection-pressure overload (Table I's collapse above 10 000 RPS).
    #
    # Every workload account is a separate client process holding
    # connections to the node (Tendermint's default ``max_open_connections``
    # is 900, and typical file-descriptor ulimits are 1024).  Closed-loop
    # request queueing alone cannot reproduce the observed cliff — clients
    # self-throttle — so we model connection-table pressure directly: once
    # the number of *distinct active clients* exceeds a threshold, new
    # requests are refused with a probability that rises steeply.  The four
    # fields are calibrated to Table I: at 10 000 RPS (500 accounts) ~80 % of
    # requests still get through, at 11 000 (550) ~39 %, and by 14 000 (700)
    # ~8.5 %.  This is an explicitly empirical surrogate for OS-level
    # connection exhaustion (documented in DESIGN.md / EXPERIMENTS.md).
    rpc_overload_client_threshold: int = 450
    rpc_overload_scale: float = 0.35
    rpc_overload_max_shed: float = 0.95
    rpc_client_activity_window: float = 10.0

    #: Tendermint WebSocket maximum frame size (16 MB), per the paper.
    websocket_max_frame_bytes: int = 16 * 1024 * 1024

    # -- Hermes relayer and CLI timing -------------------------------------

    #: CPU time for Hermes to build (encode + attach proof) one IBC message.
    #: Anchor: Fig. 12 shows recv build+broadcast+confirm-minus-pull = ~54 s
    #: for 5 000 messages across 50 txs; after subtracting broadcast round
    #: trips and two ~8 s block-commit waits, building contributes ~35 s =>
    #: ~7 ms/msg (proof queries are folded into this figure as light-client
    #: verification).
    relayer_build_seconds_per_msg: float = 7e-3

    #: CPU time to sign and encode one transaction (independent of msg count
    #: beyond the per-msg build cost above).
    relayer_sign_seconds_per_tx: float = 8e-3

    #: Time for Hermes to parse one event out of a WebSocket notification.
    relayer_event_parse_seconds: float = 20e-6

    #: Interval at which Hermes polls /tx for confirmation of submitted txs
    #: (its timeout-packet scan runs at twice this interval).
    relayer_confirm_poll_seconds: float = 1.0

    #: Workload-connector (CLI) cost to prepare one 100-msg transfer tx.
    cli_prepare_seconds_per_tx: float = 6e-3

    #: Workload-connector confirmation poll interval per account.
    cli_confirm_poll_seconds: float = 2.5

    # -- Gas model (paper §IV-A) -------------------------------------------

    #: Average gas per 100-message transaction, from the paper: 3 669 161 gas
    #: for transfers, 7 238 699 for receives, 3 107 462 for acknowledgements.
    gas_per_transfer_msg: int = 36_692  # 3_669_161 / 100, rounded
    gas_per_recv_msg: int = 72_387  # 7_238_699 / 100
    gas_per_ack_msg: int = 31_075  # 3_107_462 / 100
    #: Fixed per-transaction gas overhead (signature verification etc.).
    gas_tx_overhead: int = 50_000
    #: Gas price used in the paper's Hermes configuration: a transaction's
    #: fee is its gas limit times this.
    gas_price: float = 0.01

    # -- Event sizes (paper §V, "Transaction data collection" and
    # "WebSocket space limit") ----------------------------------------------

    #: Approximate indexed-event bytes per packet event kind.  Derived from
    #: the paper's observation that a block with 2 000 transfer messages
    #: returns 331 706 lines (~166 lines/msg) while the same count of recv
    #: messages returns 579 919 lines (~290 lines/msg): recv data is ~1.75x
    #: larger.  With ~2 000 000 IBC transfer events needed to overflow a
    #: 16 MB frame in the paper's §V experiment (100 000 transfers
    #: overflowed it comfortably), we put a transfer event at 400 bytes and
    #: scale the rest by line ratio.
    event_bytes: dict[str, int] = field(
        default_factory=lambda: {
            "send_packet": 400,
            "recv_packet": 700,
            "write_acknowledgement": 700,
            "acknowledge_packet": 300,
            "timeout_packet": 300,
        }
    )

    def __post_init__(self) -> None:
        """Range checks, so a bad value fails here and not mid-run."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, (int, float)) and not value >= 0:
                raise WorkloadError(f"{spec.name} must be >= 0, got {value!r}")
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise WorkloadError(f"{name} must be >= 1")
        for name in _POSITIVE:
            if getattr(self, name) == 0:
                raise WorkloadError(f"{name} must be > 0")
        if self.rpc_overload_max_shed > 1:
            raise WorkloadError("rpc_overload_max_shed must be <= 1")
        missing = [k for k in PACKET_EVENT_KINDS if k not in self.event_bytes]
        if missing:
            raise WorkloadError(f"event_bytes lacks {', '.join(missing)}")
        if any(size < 0 for size in self.event_bytes.values()):
            raise WorkloadError("event_bytes sizes must be >= 0")

    def with_overrides(self, **kwargs: object) -> "Calibration":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def to_dict(self) -> dict:
        """Wire form: every tunable but the two paper parameters, by field
        name (``event_bytes`` nests)."""
        return to_wire(self)

    @classmethod
    def from_dict(cls, data: object) -> "Calibration":
        """Exact inverse of :meth:`to_dict`.  Missing keys fall back to the
        defaults above, so documents written by older library versions
        keep loading; a key naming one of the two paper parameters is
        unknown, like any other."""
        return from_wire(cls, data, "calibration", defaults=True)


#: The default calibration used throughout the library.
DEFAULT_CALIBRATION = Calibration()
