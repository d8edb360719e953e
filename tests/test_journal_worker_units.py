"""Unit tests: Journal mechanics and DirectionWorker helpers."""

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.cosmos.journal import Journal, Journaled


def test_journal_rollback_order_is_reverse():
    """Two writes to one key roll back to the oldest value, and a key that
    was absent before its first write is removed."""
    journal = Journal()
    state = {"a": 1}
    journal.record_kv(state, "a", state["a"])
    state["a"] = 2
    journal.record_kv(state, "a", state["a"])
    state["a"] = 3
    journal.record_kv(state, "b", None)
    state["b"] = 9
    journal.rollback()
    assert state == {"a": 1}
    assert len(journal) == 0


def test_journal_commit_discards_undos():
    journal = Journal()
    state = {"a": 1}
    journal.record_kv(state, "a", state["a"])
    state["a"] = 2
    journal.record_kv(state, "b", None)
    state["b"] = 5
    journal.commit()
    journal.rollback()  # nothing left to undo
    assert state == {"a": 2, "b": 5}


def test_journaled_mixin_noop_without_journal():
    """A keeper with no journal attached records nothing: its writes
    stand, and a journal attached afterwards has nothing to undo."""
    from repro.cosmos.bank import BankKeeper

    bank = BankKeeper()
    assert isinstance(bank, Journaled) and bank.journal is None
    bank.mint("alice", "x", 10)
    bank.send("alice", "bob", "x", 4)
    journal = Journal()
    bank.journal = journal
    assert len(journal) == 0
    journal.rollback()
    assert (bank.balance("alice", "x"), bank.balance("bob", "x")) == (6, 4)


def test_journaled_mixin_records_when_attached():
    from repro.cosmos.bank import BankKeeper

    bank = BankKeeper()
    bank.mint("alice", "x", 10)
    journal = Journal()
    bank.journal = journal
    bank.send("alice", "bob", "x", 4)
    assert len(journal) == 2  # one (column, index, previous) per balance
    journal.rollback()
    assert (bank.balance("alice", "x"), bank.balance("bob", "x")) == (10, 0)


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
            dict(app.ibc._commitments),
            dict(app.store._data),
            app.store._dirty,
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
    member=None, calibration=DEFAULT_CALIBRATION, clear_interval=100
):
    """A DirectionWorker with inert dependencies, for pure-logic tests."""
    from repro.relayer.config import RelayerConfig
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
        config=RelayerConfig(clear_interval=clear_interval),
        log=RelayerLog(env, "unit"),
        heights={},
        member=member or solo_seat(env),
    )


def _batch(hashes):
    from repro.ibc.packet import Height, Packet
    from repro.relayer.events import PacketEvent, WorkBatch

    batch = WorkBatch(chain_id="a", height=5, kind="send_packet",
                      routing_channel="channel-0")
    for i, tx_hash in enumerate(hashes):
        batch.events.append(
            PacketEvent(
                kind="send_packet",
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


def test_uncoordinated_worker_owns_everything():
    worker = make_worker()
    batch = _batch([bytes([i]) * 32 for i in range(10)])
    assert len(worker._owned(batch)) == 10


def test_worker_ownership_is_the_member_filter():
    """A fleet member's policy filter is the one ownership rule: whatever
    ``filter_batch`` keeps is exactly what the worker relays."""
    batch = _batch([bytes([i]) * 32 for i in range(10)])

    class _EvenSequences:
        def filter_batch(self, batch):
            kept = _batch([])
            kept.events = [e for e in batch.events if e.packet.sequence % 2 == 0]
            return kept

    owned = make_worker(member=_EvenSequences())._owned(batch)
    assert [e.packet.sequence for e in owned.events] == [2, 4, 6, 8, 10]


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


# -- timeout index ---------------------------------------------------------------


def _scan_expired(pending, in_flight, dst_height):
    """The full pending scan the timeout index replaces, as a reference."""
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
    """Random arrivals, settlements, in-flight marks and a monotonic
    destination height: every poll returns exactly the full scan's packets
    in the same order, including overdue packets that stay pending (in
    flight, or reported received) and sequences that leave and re-enter."""
    import random

    from repro.ibc.packet import Height, Packet

    rng = random.Random(seed)
    worker = make_worker()
    timeouts = [Height.zero(), Height(1, 0)] + [Height(0, h) for h in range(1, 60)]
    packets = {
        seq: Packet(
            sequence=seq,
            source_port="transfer",
            source_channel="channel-0",
            destination_port="transfer",
            destination_channel="channel-0",
            data=b"{}",
            timeout_height=rng.choice(timeouts),
            timeout_timestamp=0.0,
        )
        for seq in range(1, 121)
    }
    dst_height = 0
    polled = 0
    for _step in range(400):
        for seq in rng.sample(sorted(packets), rng.randint(0, 4)):
            worker._add_pending(packets[seq])
        if worker.pending and rng.random() < 0.5:
            count = min(len(worker.pending), rng.randint(1, 3))
            for seq in rng.sample(sorted(worker.pending), count):
                del worker.pending[seq]
        for seq in rng.sample(sorted(packets), 3):
            if seq in worker._in_flight:
                worker._in_flight.discard(seq)
            elif rng.random() < 0.5:
                worker._in_flight.add(seq)
        dst_height += rng.choice((0, 0, 1, 2))
        got = worker._timeouts.expired(
            worker.pending, worker._in_flight, dst_height
        )
        want = _scan_expired(worker.pending, worker._in_flight, dst_height)
        assert [p.sequence for p in got] == [p.sequence for p in want]
        assert all(a is b for a, b in zip(got, want))
        polled += bool(want)
    assert polled > 50  # the comparison ran on non-empty expiries
