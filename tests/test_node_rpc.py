"""Integration tests for the full node's RPC handlers (on the DES testbed)."""

import pytest

from repro.cosmos.tx import TxFactory
from repro.errors import RpcError
from repro.ibc.channel import ChannelOrder
from repro.tendermint.rpc import RpcClient


def client_for(harness, node) -> RpcClient:
    return RpcClient(harness.env, harness.network, "m0", node.rpc)


def call(harness, client, method, **params):
    process = harness.env.process(client.call(method, **params), name="rpc-test")
    return harness.env.run_until_complete(process, limit=1e7)


def test_status_reports_height(bootstrapped):
    h = bootstrapped
    client = client_for(h, h.node_a)
    status = call(h, client, "status")
    assert status["chain_id"] == "chain-a"
    assert status["height"] == h.chain_a.engine.height >= 1


def test_account_and_balance_queries(bootstrapped):
    h = bootstrapped
    client = client_for(h, h.node_a)
    account = call(h, client, "account", address=h.user.address)
    assert account["sequence"] == h.chain_a.app.account_sequence(h.user.address)
    balance = call(
        h, client, "balance", address=h.user.address, denom="uatom"
    )
    assert balance["balance"] > 0


def test_broadcast_and_lookup_roundtrip(bootstrapped):
    h = bootstrapped
    client = client_for(h, h.node_a)
    cli = h.cli()
    msgs = cli.build_transfer_msgs(
        count=2, amount=1, timeout_blocks=100,
        current_dst_height=h.chain_b.engine.height,
    )
    factory = TxFactory(h.user, h.chain_a.cal)
    factory.resync_sequence(h.chain_a.app.account_sequence(h.user.address))
    tx = factory.build(msgs, gas_limit=10**7)
    result = call(h, client, "broadcast_tx_sync", tx=tx)
    assert result.ok

    # Not yet committed.
    lookup = call(h, client, "tx", tx_hash=tx.hash)
    assert not lookup.found

    # After a couple of blocks it is.
    def wait():
        yield h.env.timeout(15.0)

    h.run_process(wait())
    lookup = call(h, client, "tx", tx_hash=tx.hash)
    assert lookup.found and lookup.code == 0
    assert lookup.height >= 1


def test_pull_packet_data_returns_entries_and_scan_cost(bootstrapped):
    h = bootstrapped
    cli = h.cli()

    def flow():
        submission = yield from cli.ft_transfer(count=5, amount=1)
        ok = yield from cli.wait_confirmation(submission)
        assert ok
        return submission

    submission = h.run_process(flow())
    height = submission.confirmed.height
    client = client_for(h, h.node_a)
    t0 = h.env.now
    response = call(
        h, client, "pull_packet_data",
        height=height, tx_hash=submission.tx.hash, kind="send_packet",
    )
    elapsed = h.env.now - t0
    assert len(response["entries"]) == 5
    # Scan cost: base + events-at-height x per-event transfer cost.
    events = h.chain_a.indexer.events_at(height).get("send_packet", 0)
    assert events >= 5
    assert elapsed >= 0.003 + 0.44e-3 * events


def test_pull_packet_data_unknown_kind_errors(bootstrapped):
    h = bootstrapped
    client = client_for(h, h.node_a)
    with pytest.raises(RpcError, match="kind"):
        call(
            h, client, "pull_packet_data",
            height=1, tx_hash=b"\x00" * 32, kind="weird_kind",
        )


def test_prove_packets_header_matches_proofs(bootstrapped):
    h = bootstrapped
    cli = h.cli()

    def flow():
        submission = yield from cli.ft_transfer(count=3, amount=1)
        yield from cli.wait_confirmation(submission)
        return submission

    h.run_process(flow())
    path = h.path
    pending = h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id)
    # Some packets may already be relayed; prove whatever is pending or the
    # first few sequences.
    sequences = pending or [1, 2, 3]
    client = client_for(h, h.node_a)
    proven = call(
        h, client, "prove_packets",
        port="transfer", channel=path.a.channel_id,
        sequences=sequences, kind="commitment",
    )
    header = proven["signed_header"]
    assert proven["proof_height"] == header.height
    # Proofs verify against the header's root (merkle mode).
    from repro.ibc import keys
    from repro.ibc.proofs import verify_membership

    for sequence, proof in proven["proofs"].items():
        value = h.chain_a.app.ibc.store.get(
            keys.packet_commitment_path("transfer", path.a.channel_id, sequence)
        )
        verify_membership(
            header.root,
            keys.packet_commitment_path("transfer", path.a.channel_id, sequence),
            value,
            proof,
        )


def test_prove_packets_absence_on_unordered_channel(bootstrapped):
    """Every sequence without a receipt gets an absence proof that verifies
    against the response header; received sequences get none."""
    h = bootstrapped
    cli = h.cli()

    def flow():
        submission = yield from cli.ft_transfer(count=2, amount=1)
        yield from cli.wait_confirmation(submission)
        yield h.env.timeout(40.0)

    h.run_process(flow())
    path = h.path
    proven = call(
        h, client_for(h, h.node_b), "prove_packets",
        port="transfer", channel=path.b.channel_id,
        sequences=[1, 2, 999], kind="absence",
    )
    assert set(proven["proofs"]) == {999}
    assert proven["next_sequence_recv"] == 0
    header = proven["signed_header"]
    assert proven["proof_height"] == header.height
    from repro.ibc import keys
    from repro.ibc.proofs import verify_non_membership

    verify_non_membership(
        header.root,
        keys.packet_receipt_path("transfer", path.b.channel_id, 999),
        proven["proofs"][999],
    )


def test_prove_packets_absence_on_ordered_channel(harness):
    """An ordered channel answers with its receive counter: one proof of it
    for every sequence the counter has not passed, and the counter itself in
    the response.  ``unreceived_packets`` reads the same counter."""
    h = harness

    def flow():
        h.path = yield from h.relayer.establish_path(ordering=ChannelOrder.ORDERED)
        h.relayer.start()
        cli = h.cli()
        submission = yield from cli.ft_transfer(count=2, amount=1)
        yield from cli.wait_confirmation(submission)
        yield h.env.timeout(40.0)

    h.run_process(flow())
    path = h.path
    assert h.chain_b.app.ibc.next_sequence_recv[("transfer", path.b.channel_id)] == 3
    client_b = client_for(h, h.node_b)
    proven = call(
        h, client_b, "prove_packets",
        port="transfer", channel=path.b.channel_id,
        sequences=[1, 2, 3, 4], kind="absence",
    )
    assert set(proven["proofs"]) == {3, 4}
    assert proven["proofs"][3] is proven["proofs"][4]
    assert proven["next_sequence_recv"] == 3
    unreceived = call(
        h, client_b, "unreceived_packets",
        port="transfer", channel=path.b.channel_id, sequences=[1, 2, 3, 4],
    )
    assert unreceived == [3, 4]


def test_prove_packets_unknown_kind_errors_before_service(bootstrapped):
    h = bootstrapped
    client = client_for(h, h.node_a)
    with pytest.raises(RpcError, match="kind"):
        call(
            h, client, "prove_packets",
            port="transfer", channel=h.path.a.channel_id,
            sequences=[1], kind="weird_kind",
        )
    # Rejected before any service time was charged.
    assert "prove_packets" not in h.node_a.rpc.stats.by_method


def test_unreceived_packets_filters(bootstrapped):
    h = bootstrapped
    cli = h.cli()

    def flow():
        submission = yield from cli.ft_transfer(count=4, amount=1)
        yield from cli.wait_confirmation(submission)
        # Give the relayer time to deliver.
        yield h.env.timeout(40.0)

    h.run_process(flow())
    path = h.path
    client_b = client_for(h, h.node_b)
    unreceived = call(
        h, client_b, "unreceived_packets",
        port="transfer", channel=path.b.channel_id, sequences=[1, 2, 3, 4, 999],
    )
    assert 999 in unreceived  # never sent
    assert all(s not in unreceived for s in (1, 2, 3, 4))  # delivered


def test_block_info_costs_scale_with_events(bootstrapped):
    h = bootstrapped
    cli = h.cli()

    def flow():
        submission = yield from cli.ft_transfer(count=50, amount=1)
        yield from cli.wait_confirmation(submission)
        return submission

    submission = h.run_process(flow())
    busy_height = submission.confirmed.height
    client = client_for(h, h.node_a)

    t0 = h.env.now
    info = call(h, client, "block_info", height=busy_height)
    busy_elapsed = h.env.now - t0
    assert info["message_count"] >= 50
    assert submission.tx.hash in info["tx_hashes"]

    # An empty block must be cheaper to query.
    empty_height = next(
        height
        for height in range(1, h.chain_a.block_store.latest_height + 1)
        if h.chain_a.indexer.message_count_at(height) == 0
    )
    t0 = h.env.now
    call(h, client, "block_info", height=empty_height)
    assert h.env.now - t0 < busy_elapsed


def test_block_info_missing_height_returns_none(bootstrapped):
    h = bootstrapped
    client = client_for(h, h.node_a)
    assert call(h, client, "block_info", height=99999) is None
