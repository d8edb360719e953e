"""Tests for the scaling extensions (per-relayer channels, coordinated relayers)."""

import pytest

from repro.errors import SchemaError, WorkloadError
from repro.framework import ExperimentConfig, FleetConfig
# These tests introspect post-run testbed state, so they drive the
# engine directly; the public entrypoint is repro.run_experiment.
from repro.framework.runner import _ExperimentEngine
from repro.relayer.events import WorkBatch, batches_from_notification
from repro.relayer.worker import DirectionWorker


def test_multichannel_config_validation():
    """Per-relayer channels are the ``channel`` policy, not a channel
    count: the old knob is an unknown key, and any fleet size is valid."""
    with pytest.raises(SchemaError, match="num_channels"):
        ExperimentConfig.from_dict({"num_relayers": 2, "num_channels": 2})
    for k in (0, 1, 3):
        ExperimentConfig(num_relayers=k, relayer=FleetConfig(policy="channel"))


def test_ordered_channel_experiment_end_to_end():
    """The framework can run on an ORDERED channel; deliveries stay in
    sequence order and transfers still complete."""
    config = ExperimentConfig(
        input_rate=20,
        measurement_blocks=4,
        seed=43,
        channel_ordering="ordered",
        drain_seconds=40.0,
    )
    runner = _ExperimentEngine(config)
    report = runner.run()
    assert report.window.acks > 0
    path = runner.testbed.path
    from repro.ibc.channel import ChannelOrder

    end = runner.testbed.chain_a.app.ibc.channels[
        ("transfer", path.a.channel_id)
    ]
    assert end.ordering is ChannelOrder.ORDERED
    with pytest.raises(WorkloadError):
        ExperimentConfig(channel_ordering="sideways")


def test_channel_policy_opens_every_channel_with_the_configured_ordering():
    """Each relayer's extra channel is opened with ``channel_ordering``,
    not the handshake's UNORDERED default, on both chains."""
    from repro.ibc.channel import ChannelOrder

    config = ExperimentConfig(
        input_rate=10,
        measurement_blocks=2,
        num_relayers=2,
        relayer=FleetConfig(policy="channel"),
        channel_ordering="ordered",
        seed=5,
    )
    runner = _ExperimentEngine(config)
    runner.run()
    for chain in (runner.testbed.chain_a, runner.testbed.chain_b):
        ends = chain.app.ibc.channels
        assert sorted(channel for _, channel in ends) == [
            "channel-0", "channel-1"
        ]
        assert {end.ordering for end in ends.values()} == {ChannelOrder.ORDERED}


def test_channel_policy_opens_one_channel_per_seat():
    """Policy ``channel`` at K=3: three channels on the edge's one
    connection, relayer *i* relays channel *i* alone, and every channel
    carries completed transfers."""
    config = ExperimentConfig(
        input_rate=45,
        measurement_blocks=8,
        num_relayers=3,
        relayer=FleetConfig(policy="channel"),
        seed=15,
        drain_seconds=60.0,
    )
    runner = _ExperimentEngine(config)
    report = runner.run()
    testbed = runner.testbed
    channels = [p.a.channel_id for p in testbed.paths]
    assert channels == ["channel-0", "channel-1", "channel-2"]
    assert len({p.a.connection_id for p in testbed.paths}) == 1
    assert len({p.b.connection_id for p in testbed.paths}) == 1
    for i, relayer in enumerate(testbed.relayers):
        assert relayer.member.index == i
        assert relayer.path is testbed.paths[i]
        assert {w.src_end.channel_id for w in relayer.workers} == {
            testbed.paths[i].a.channel_id, testbed.paths[i].b.channel_id
        }
    # Every channel carried packets and they completed, without races.
    ibc_a = testbed.chain_a.app.ibc
    for path in testbed.paths:
        assert ibc_a.next_sequence_send[("transfer", path.a.channel_id)] > 1
    assert report.window.acks > 0
    assert report.errors.get("packet_messages_redundant", 0) == 0
    # The receiver holds THREE distinct voucher denominations (§IV-A
    # caveat: per-channel tokens are not fungible with each other).
    balances = testbed.chain_b.app.bank.balances(testbed.receiver.address)
    vouchers = [d for d in balances if d.startswith("ibc/")]
    assert len(vouchers) == 3


def test_coordinated_relayers_do_not_duplicate():
    config = ExperimentConfig(
        input_rate=60,
        measurement_blocks=8,
        num_relayers=2,
        relayer=FleetConfig(policy="shard"),
        seed=15,
        drain_seconds=90.0,
    )
    runner = _ExperimentEngine(config)
    report = runner.run()
    # No redundant deliveries at all with static partitioning.
    assert report.errors.get("packet_messages_redundant", 0) == 0
    # And the work was actually split: both relayers submitted recv txs.
    recv_counts = [
        relayer.log.count("recv_broadcast")
        for relayer in runner.testbed.relayers
    ]
    assert all(count > 0 for count in recv_counts)
    assert report.window.acks > 0


def test_ownership_partition_is_exhaustive_and_disjoint():
    """Every tx hash is owned by exactly one coordinated instance."""
    import hashlib

    total = 3
    hashes = [hashlib.sha256(bytes([i])).digest() for i in range(200)]
    owners = {
        h: [
            idx
            for idx in range(total)
            if int.from_bytes(h[:4], "big") % total == idx
        ]
        for h in hashes
    }
    assert all(len(owner) == 1 for owner in owners.values())
    counts = [0] * total
    for (owner,) in owners.values():
        counts[owner] += 1
    assert all(count > 30 for count in counts)  # roughly balanced


def test_batches_split_per_channel():
    """The supervisor routes per (kind, channel), so one block's events on
    two channels become two batches of the events' own packet objects."""
    from repro.ibc.packet import Height, Packet
    from repro.tendermint.abci import (
        AbciEvent,
        ExecutedBlock,
        ExecutedTx,
        ResponseDeliverTx,
    )
    from repro.tendermint.websocket import BlockNotification, BlockView

    def event(channel, seq):
        packet = Packet(
            sequence=seq,
            source_port="transfer",
            source_channel=channel,
            destination_port="transfer",
            destination_channel=channel,
            data=b"{}",
            timeout_height=Height(0, 100),
            timeout_timestamp=0.0,
        )
        return AbciEvent(
            type="send_packet", size_bytes=100, packet=packet, src_chain="x"
        )

    class _Tx:
        def __init__(self, hash):
            self.hash = hash

    events = [
        event("channel-0", 1),
        event("channel-1", 2),
        # A packet-less event of a subscribed kind yields no work.
        AbciEvent(type="send_packet", size_bytes=100),
        event("channel-0", 3),
    ]
    txs = [
        ExecutedTx(
            tx=_Tx(bytes([i + 1]) * 32),
            height=5,
            index=i,
            result=ResponseDeliverTx(events=[e]),
        )
        for i, e in enumerate(events)
    ]
    block = ExecutedBlock(
        height=5, time=1.0, txs=txs, end_block_events=[], app_hash=b"",
        execution_seconds=0.0,
    )
    notification = BlockNotification(BlockView("x", block), frozenset({"send_packet"}))
    batches = batches_from_notification(notification)
    by_channel = {b.routing_channel: len(b) for b in batches}
    assert by_channel == {"channel-0": 2, "channel-1": 1}
    relayed = [e for b in batches for e in b.events]
    expected = [events[0], events[3], events[1]]
    assert all(e.packet is d.packet for e, d in zip(relayed, expected, strict=True))
    assert {e.src_chain for e in relayed} == {"x"}
