"""Unit tests: Journal mechanics and DirectionWorker helpers."""

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.cosmos.journal import Journal


def test_journal_rollback_order_is_reverse():
    """Two writes to one key roll back to the oldest value, a key that was
    absent before its first write is removed, a removed key and an
    attribute come back, and rollback closes the transaction."""
    journal = Journal()
    state = {"a": 1, "c": 4}

    class Holder:
        height = 5

    holder = Holder()
    journal.begin()
    journal.put(state, "a", 2)
    journal.put(state, "a", 3)
    journal.add(state, "b", 9)
    assert journal.pop(state, "c") == 4
    journal.assign(holder, "height", 6)
    assert (state, holder.height, len(journal)) == ({"a": 3, "b": 9}, 6, 5)
    journal.rollback()
    assert state == {"a": 1, "c": 4}
    assert holder.height == 5
    assert len(journal) == 0 and not journal.open


def test_journal_commit_discards_undos():
    journal = Journal()
    state = {"a": 1}
    journal.begin()
    journal.put(state, "a", 2)
    journal.add(state, "b", 5)
    journal.commit()
    assert not journal.open
    journal.rollback()  # nothing left to undo
    assert state == {"a": 2, "b": 5}


def test_journal_records_nothing_outside_a_transaction():
    """A keeper's writes with no transaction open stand, and a transaction
    opened afterwards has nothing to undo."""
    from repro.cosmos.bank import BankKeeper

    journal = Journal()
    bank = BankKeeper(journal=journal)
    assert bank.journal is journal
    bank.mint("alice", "x", 10)
    bank.send("alice", "bob", "x", 4)
    journal.begin()
    assert len(journal) == 0
    journal.rollback()
    assert (bank.balance("alice", "x"), bank.balance("bob", "x")) == (6, 4)


def test_journal_records_a_keepers_writes_inside_a_transaction():
    from repro.cosmos.bank import BankKeeper

    journal = Journal()
    bank = BankKeeper(journal=journal)
    bank.mint("alice", "x", 10)
    journal.begin()
    bank.send("alice", "bob", "x", 4)
    assert len(journal) == 2  # one (column, index, previous) per balance
    journal.rollback()
    assert (bank.balance("alice", "x"), bank.balance("bob", "x")) == (10, 0)


def test_keepers_built_bare_get_a_journal_of_their_own():
    """Outside an application a keeper still writes through a journal;
    the application hands all of its keepers one."""
    from repro.cosmos.app import GaiaApp
    from repro.cosmos.bank import BankKeeper

    assert isinstance(BankKeeper().journal, Journal)
    app = GaiaApp("journal-chain")
    assert app.bank.journal is app.ibc.journal is app.journal


def test_nested_state_rollback_composition():
    """Bank, store and IBC state roll back together: a deliver_tx whose
    last message fails leaves the bank's balances and supply, the IBC
    module's sequence and commitment tables and the store's pending data
    (and dirty flag) exactly as they were."""
    from repro.cosmos.app import TRANSFER_DENOM
    from repro.cosmos.tx import MsgSend
    from repro.ibc.msgs import MsgTransfer
    from repro.ibc.packet import Height
    from repro.ibc.transfer import escrow_address
    from tests.ibc_harness import IbcPair

    pair = IbcPair()
    app, user = pair.a.app, pair.user
    user.gas_price = 0  # no fee: a failed tx must then leave no trace at all
    sender = user.wallet.address
    escrow = escrow_address("transfer", pair.chan_a)

    def transfer(amount):
        return MsgTransfer(
            source_port="transfer",
            source_channel=pair.chan_a,
            denom=TRANSFER_DENOM,
            amount=amount,
            sender=sender,
            receiver=pair.receiver.address,
            timeout_height=Height(0, pair.b.height + 100),
            signer=sender,
        )

    msgs = [transfer(30), MsgSend(sender, "bob", TRANSFER_DENOM, 5), transfer(7)]

    def state():
        return (
            {
                who: app.bank.balance(who, TRANSFER_DENOM)
                for who in (sender, escrow, "bob")
            },
            app.bank.supply(TRANSFER_DENOM),
            dict(app.ibc.next_sequence_send),
            {
                (*channel, sequence): commitment
                for channel, seqs in app.ibc._commitments.items()
                for sequence, commitment in seqs.items()
            },
            dict(app.store._data),
            bool(app.store._changed or app.store._merged),
        )

    before = state()
    assert before[-1] is False  # committed: a failed tx must not dirty it
    result = app.deliver_tx(user.build([*msgs, transfer(10**30)], gas_limit=10**9))
    assert not result.ok
    assert state() == before
    # Alone, the same messages commit: the rollback above undid real writes.
    assert app.deliver_tx(user.build(msgs, gas_limit=10**9)).ok
    balances, _, _, commitments, data, dirty = state()
    assert balances == {
        sender: before[0][sender] - 42,
        escrow: before[0][escrow] + 37,
        "bob": 5,
    }
    assert len(commitments) == len(before[3]) + 2 and dirty
    for who, amount in balances.items():
        key = f"balances/{who}/{TRANSFER_DENOM}".encode()
        assert data[key] == str(amount).encode()


# -- worker ownership/batching helpers -------------------------------------------


def make_worker(
    member=None, calibration=DEFAULT_CALIBRATION, clear_interval=0
):
    """A DirectionWorker with inert dependencies, for pure-logic tests."""
    from repro.relayer.logging import RelayerLog
    from repro.relayer.worker import DirectionWorker, PathEnd
    from repro.sim import Environment
    from tests.conftest import solo_seat

    env = Environment()

    class _Endpoint:
        cal = calibration

        class factory:
            class wallet:
                address = "addr"

    return DirectionWorker(
        env=env,
        src=_Endpoint(),
        dst=_Endpoint(),
        src_end=PathEnd("a", "c", "conn", "transfer", "channel-0"),
        dst_end=PathEnd("b", "c", "conn", "transfer", "channel-0"),
        clear_interval=clear_interval,
        pull_concurrency=1,
        log=RelayerLog(env, "unit"),
        heights={},
        member=member or solo_seat(env),
    )


def _batch(hashes):
    from repro.ibc.packet import Height, Packet
    from repro.relayer.events import WorkBatch
    from repro.tendermint.websocket import EventDescriptor

    batch = WorkBatch(chain_id="a", height=5, kind="send_packet",
                      routing_channel="channel-0")
    for i, tx_hash in enumerate(hashes):
        batch.events.append(
            EventDescriptor(
                type="send_packet",
                height=5,
                tx_hash=tx_hash,
                packet=Packet(
                    sequence=i + 1,
                    source_port="transfer",
                    source_channel="channel-0",
                    destination_port="transfer",
                    destination_channel="channel-0",
                    data=b"{}",
                    timeout_height=Height(0, 100),
                    timeout_timestamp=0.0,
                ),
            )
        )
    return batch


def _tracked(worker, batch):
    """The sequences ``worker``'s recv stage tracks in its ledger for
    ``batch`` (the data pull finds nothing, so nothing is relayed)."""

    def query(method, **params):
        assert method == "pull_packet_data"
        return {"entries": []}
        yield  # a generator, like the endpoint's RPC query

    worker.src.query = query
    worker.processes.spawn(worker._relay_recv_batch(batch), name="recv")
    worker.env.run()
    return sorted(worker.ledger.packets)


def test_uncoordinated_worker_owns_everything():
    batch = _batch([bytes([i]) * 32 for i in range(10)])
    assert _tracked(make_worker(), batch) == list(range(1, 11))


def test_worker_ownership_is_the_member_filter():
    """A fleet member's policy filter is the one ownership rule: whatever
    ``filter_batch`` keeps is exactly what the worker tracks and relays."""
    batch = _batch([bytes([i]) * 32 for i in range(10)])

    class _EvenSequences:
        def filter_batch(self, batch):
            kept = _batch([])
            kept.events = [e for e in batch.events if e.packet.sequence % 2 == 0]
            return kept

    worker = make_worker(member=_EvenSequences())
    assert _tracked(worker, batch) == [2, 4, 6, 8, 10]


def test_work_batch_tx_hash_order_preserved():
    hashes = [b"\x03" * 32, b"\x01" * 32, b"\x03" * 32, b"\x02" * 32]
    batch = _batch(hashes)
    assert batch.tx_hashes == [b"\x03" * 32, b"\x01" * 32, b"\x02" * 32]
    assert len(batch.events_for_tx(b"\x03" * 32)) == 2


def test_clear_cadence_follows_the_block_interval():
    """``clear_interval`` counts blocks of the run's own interval: with 1 s
    blocks and ``clear_interval=2`` the worker scans every 2 s — not every
    10 s, as when a module constant fixed the block at 5 s."""
    worker = make_worker(
        calibration=DEFAULT_CALIBRATION.with_overrides(min_block_interval=1.0),
        clear_interval=2,
    )
    scans = []

    def query(method, **params):
        scans.append((worker.env.now, method))
        return []
        yield  # a generator, like the endpoint's RPC query

    worker.src.query = query
    worker.processes.spawn(worker._clear_loop(), name="clear")
    worker.env.run(until=9)
    assert scans == [(t, "commitments") for t in (2.0, 4.0, 6.0, 8.0)]


# -- packet ledger ---------------------------------------------------------------

#: Per leg, the legs in flight that refuse its claim.
_REFUSED_BY = {
    "recv": {"recv", "timeout"},
    "ack": {"ack"},
    "timeout": {"recv", "ack", "timeout"},
}


def _packet(seq, timeout_height=None):
    from repro.ibc.packet import Height, Packet

    return Packet(
        sequence=seq,
        source_port="transfer",
        source_channel="channel-0",
        destination_port="transfer",
        destination_channel="channel-0",
        data=b"{}",
        timeout_height=timeout_height or Height(0, 100),
        timeout_timestamp=0.0,
    )


def _scan_expired(pending, in_flight, dst_height):
    """The full pending scan the ledger's timeout heap replaces, as a
    reference: ``pending`` excludes packets reported received."""
    return sorted(
        (
            p
            for p in pending.values()
            if not p.timeout_height.is_zero
            and p.timeout_height.revision_height <= dst_height
            and p.sequence not in in_flight
        ),
        key=lambda p: p.sequence,
    )


@pytest.mark.parametrize("seed", range(8))
def test_timeout_index_matches_full_pending_scan(seed):
    """Random tracking, claims, releases, settlements, received reports and
    a monotonic destination height against a model of the ledger: every
    claim is granted or refused as the leg rules say, and every overdue
    poll returns exactly the full scan's packets in the same order,
    including overdue packets that stay tracked (in flight) and sequences
    that are settled and tracked again."""
    import random

    from repro.ibc.packet import Height
    from repro.relayer.worker import PacketLedger

    rng = random.Random(seed)
    ledger = PacketLedger()
    timeouts = [Height.zero(), Height(1, 0)] + [Height(0, h) for h in range(1, 60)]
    packets = {seq: _packet(seq, rng.choice(timeouts)) for seq in range(1, 121)}
    pending: dict = {}  # tracked packets
    received: set = set()
    flight: dict = {}  # sequence -> legs in flight
    dst_height = 0
    polled = 0
    for _step in range(400):
        for seq in rng.sample(sorted(packets), rng.randint(0, 4)):
            ledger.track(packets[seq])
            pending.setdefault(seq, packets[seq])
        for seq in rng.sample(sorted(packets), 3):
            leg = rng.choice(sorted(_REFUSED_BY))
            legs = flight.setdefault(seq, set())
            if leg in legs:
                settled = leg != "recv" and rng.random() < 0.5
                ledger.release(leg, [seq], settled=settled)
                legs.discard(leg)
                if settled:
                    pending.pop(seq, None)
                    received.discard(seq)
            else:
                granted = ledger.claim(leg, [packets[seq]])
                assert bool(granted) == (not legs & _REFUSED_BY[leg])
                legs.update([leg] if granted else [])
                assert ledger.busy(leg, seq) == bool(legs & _REFUSED_BY[leg])
        if pending and rng.random() < 0.3:
            seq = rng.choice(sorted(pending))
            ledger.received([seq])
            received.add(seq)
        dst_height += rng.choice((0, 0, 1, 2))
        got = ledger.overdue(dst_height)
        want = _scan_expired(
            {s: p for s, p in pending.items() if s not in received},
            {s for s, legs in flight.items() if legs},
            dst_height,
        )
        assert [p.sequence for p in got] == [p.sequence for p in want]
        assert all(a is b for a, b in zip(got, want))
        polled += bool(want)
    assert set(ledger.packets) == set(pending)
    assert polled > 50  # the comparison ran on non-empty expiries


def test_ack_claim_is_not_blocked_by_a_recv_in_flight():
    """The ack event proves the recv executed: an ack claim goes through
    while the packet's recv is in flight, a second ack claim does not,
    and a recv or timeout claim waits for both."""
    from repro.relayer.worker import PacketLedger

    ledger, packet = PacketLedger(), _packet(1)
    ledger.track(packet)
    assert ledger.claim("recv", [packet]) == [packet]
    assert ledger.claim("ack", [packet]) == [packet]
    assert ledger.claim("ack", [packet]) == []
    assert ledger.claim("timeout", [packet]) == []
    ledger.release("recv", [1])
    assert ledger.busy("ack", 1) and not ledger.busy("recv", 1)
    assert ledger.claim("timeout", [packet]) == []  # the ack is still in flight
    ledger.release("ack", [1], settled=True)
    assert ledger.packets == {} and not ledger.busy("timeout", 1)


def test_a_packet_reported_received_leaves_the_timeout_heap():
    """Once the destination reports a packet received it is never overdue
    again, whether the report comes before or after its timeout height,
    while it stays tracked for its ack."""
    from repro.ibc.packet import Height
    from repro.relayer.worker import PacketLedger

    ledger = PacketLedger()
    early, late = _packet(1, Height(0, 5)), _packet(2, Height(0, 5))
    ledger.track(early)
    ledger.track(late)
    ledger.received([1])  # before its timeout height
    assert ledger.overdue(5) == [late]
    ledger.received([2])  # after: it was already overdue
    assert ledger.overdue(6) == []
    assert sorted(ledger.packets) == [1, 2]


def _leg_worker(confirmed):
    """A worker whose endpoints prove every sequence, accept every
    broadcast and resolve its confirmation 10 s later as ``confirmed``
    (a ``TxLookupResult``, or ``None`` for a lapsed window)."""
    from types import SimpleNamespace

    from repro.relayer.endpoint import SubmittedTx

    worker = make_worker()
    env = worker.env
    submits = []

    def prove(method, sequences=(), **params):
        assert method == "prove_packets"
        return {
            "signed_header": SimpleNamespace(height=7),
            "proofs": {s: b"proof" for s in sequences},
            "proof_height": 7,
            "next_sequence_recv": 0,
        }
        yield

    def submit_msgs(msgs, label, prepend_msg=None, packet_src_chain=None):
        entry = SubmittedTx(
            tx=SimpleNamespace(hash=b"tx"),
            broadcast=SimpleNamespace(ok=True),
            packet_keys=tuple(
                ("a", m.packet.source_channel, m.packet.sequence) for m in msgs
            ),
        )
        submits.append((env.now, label, [m.packet.sequence for m in msgs]))
        return [entry]
        yield

    def confirm_txs(submitted, label):
        yield env.timeout(10.0)
        for entry in submitted:
            entry.confirmed = confirmed
        return submitted

    for endpoint in (worker.src, worker.dst):
        endpoint.chain_id = endpoint.factory.wallet.address
        endpoint.query = prove
        endpoint.submit_msgs = submit_msgs
        endpoint.confirm_txs = confirm_txs
    return worker, submits


def _run_leg(worker, leg, packets, acks=None):
    for packet in packets:
        worker.ledger.track(packet)
    worker.processes.spawn(worker._relay_leg(leg, packets, acks), name=leg)


def test_recv_stays_in_flight_until_its_confirmation_resolves():
    """A submitted recv keeps its claim through the confirmation window:
    another pass's recv claim is refused and the packet is not overdue,
    until the confirmation resolves and the claim is released."""
    from repro.ibc.packet import Height
    from repro.tendermint.node import TxLookupResult

    worker, submits = _leg_worker(TxLookupResult(found=True, code=0))
    packet = _packet(1, Height(0, 3))
    _run_leg(worker, "recv", [packet])
    worker.env.run(until=5.0)
    assert [label for _t, label, _s in submits] == ["recv"]
    assert worker.ledger.claim("recv", [packet]) == []
    assert worker.ledger.overdue(10) == []
    worker.env.run(until=20.0)
    assert not worker.ledger.busy("recv", 1)
    assert worker.ledger.overdue(10) == [packet]  # still tracked: no ack yet


@pytest.mark.parametrize(
    "outcome, settles",
    [
        ("executed", True),
        ("redundant", True),
        ("failed", False),
        ("lapsed", False),
    ],
)
def test_ack_confirmation_settles_or_returns_the_packet(outcome, settles):
    """An ack that executed or was redundant settles its packet; one that
    failed otherwise, or whose confirmation window lapsed, returns it to
    tracked, free for the next claim."""
    from repro.ibc.packet import Acknowledgement
    from repro.tendermint.node import TxLookupResult

    confirmed = {
        "executed": TxLookupResult(found=True, code=0),
        "redundant": TxLookupResult(
            found=True, code=5, log="packet messages are redundant: ack"
        ),
        "failed": TxLookupResult(found=True, code=5, log="out of gas"),
        "lapsed": None,
    }[outcome]
    worker, _submits = _leg_worker(confirmed)
    packet = _packet(1)
    _run_leg(worker, "ack", [packet], {1: Acknowledgement(success=True, result="AQ==")})
    worker.env.run(until=5.0)
    assert worker.ledger.busy("ack", 1) and 1 in worker.ledger.packets
    worker.env.run(until=20.0)
    assert not worker.ledger.busy("ack", 1)
    assert (1 in worker.ledger.packets) == (not settles)
    if not settles:
        assert worker.ledger.claim("ack", [packet]) == [packet]
