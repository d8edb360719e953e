"""RPC server/client tests (the serial bottleneck) and WebSocket limits."""
# repro-lint: disable-file=R003 -- tests drive env.run() directly; handles unused

import random

import pytest

from repro import calibration as cal
from repro.errors import RpcError, RpcOverloadedError, RpcTimeoutError
from repro.sim import EMPTY, Environment, Network, RngRegistry
from repro.tendermint.rpc import RpcClient, RpcRequest, RpcServer
from repro.tendermint.websocket import WebSocketServer
from repro.tendermint.abci import AbciEvent, ExecutedBlock, ExecutedTx, ResponseDeliverTx
from repro.ibc.packet import Height, Packet


@pytest.fixture
def net(env):
    rng = RngRegistry(77)
    network = Network(env, rng, default_rtt=0.0)
    network.add_host("server")
    network.add_host("client")
    return network


def make_server(env, net, **overrides) -> RpcServer:
    calibration = cal.DEFAULT_CALIBRATION.with_overrides(**overrides)
    server = RpcServer(env, net, "server", calibration=calibration)
    server.register("echo", lambda p: (p.get("service", 0.01), lambda: p.get("value")))

    def failing(params):
        def boom():
            raise RpcError("handler exploded")

        return 0.001, boom

    server.register("fail", failing)
    return server


def call(env, client, method, **params):
    process = env.process(client.call(method, **params), name="caller")
    return env.run_until_complete(process)


def test_basic_call_roundtrip(env, net):
    server = make_server(env, net)
    client = RpcClient(env, net, "client", server)
    assert call(env, client, "echo", value=42) == 42
    assert server.stats.served == 1


def test_unknown_method_errors(env, net):
    server = make_server(env, net)
    client = RpcClient(env, net, "client", server)
    with pytest.raises(RpcError, match="unknown method"):
        call(env, client, "nope")


def test_handler_error_propagates(env, net):
    server = make_server(env, net)
    client = RpcClient(env, net, "client", server)
    with pytest.raises(RpcError, match="exploded"):
        call(env, client, "fail")


def test_serial_server_queues_requests(env, net):
    """The paper's central claim: queries are processed one at a time."""
    server = make_server(env, net)
    client = RpcClient(env, net, "client", server)
    done = []

    def caller(tag):
        yield from client.call("echo", value=tag, service=1.0)
        done.append((tag, env.now))

    for tag in range(3):
        env.process(caller(tag), name=f"c{tag}")
    env.run()
    times = [t for _tag, t in done]
    assert times == pytest.approx([1.0, 2.0, 3.0])


def test_parallel_rpc_ablation(env, net):
    """With rpc_workers=3 the same three queries finish together — the
    what-if the paper's bottleneck analysis implies."""
    server = make_server(env, net, rpc_workers=3)
    client = RpcClient(env, net, "client", server)
    done = []

    def caller(tag):
        yield from client.call("echo", value=tag, service=1.0)
        done.append(env.now)

    for tag in range(3):
        env.process(caller(tag), name=f"c{tag}")
    env.run()
    assert done == pytest.approx([1.0, 1.0, 1.0])


def test_client_timeout_on_slow_server(env, net):
    server = make_server(env, net)
    client = RpcClient(env, net, "client", server, timeout=0.5)
    with pytest.raises(RpcTimeoutError):
        call(env, client, "echo", service=2.0)
    assert client.timeouts == 1


def test_server_still_burns_time_on_abandoned_requests(env, net):
    """Timed-out requests keep consuming server capacity (goodput decay)."""
    server = make_server(env, net)
    fast_client = RpcClient(env, net, "client", server)
    impatient = RpcClient(env, net, "client", server, timeout=0.1)
    outcome = {}

    def impatient_caller():
        try:
            yield from impatient.call("echo", service=5.0)
        except RpcTimeoutError:  # repro-lint: disable=R002
            outcome["timed_out_at"] = env.now

    def patient_caller():
        yield env.timeout(0.2)
        yield from fast_client.call("echo", value="ok", service=0.1)
        outcome["done_at"] = env.now

    env.process(impatient_caller(), name="i")
    env.process(patient_caller(), name="p")
    env.run()
    assert outcome["timed_out_at"] == pytest.approx(0.1)
    # The patient call had to wait behind the abandoned 5 s job.
    assert outcome["done_at"] == pytest.approx(5.1)


def test_queue_cap_sheds(env, net):
    server = make_server(env, net, rpc_max_queue=2)
    client = RpcClient(env, net, "client", server, timeout=100.0)
    results = []

    def caller(tag):
        try:
            yield from client.call("echo", value=tag, service=1.0)
            results.append(("ok", tag))
        except RpcOverloadedError:
            results.append(("shed", tag))

    for tag in range(4):
        env.process(caller(tag), name=f"c{tag}")
    env.run()
    assert ("shed", 2) in results and ("shed", 3) in results
    assert server.stats.shed == 2


def test_overload_sheds_by_client_pressure(env, net):
    """Above the client threshold, new requests get connection-refused —
    the Table I collapse mechanism."""
    server = make_server(
        env, net, rpc_overload_client_threshold=5, rpc_overload_scale=0.4
    )
    refused = []

    def one_client(i):
        client = RpcClient(env, net, "client", server, client_id=f"acct-{i}")
        for _ in range(5):
            try:
                yield from client.call("echo", service=0.001)
            except RpcOverloadedError:
                refused.append(i)
            yield env.timeout(0.5)

    for i in range(20):
        env.process(one_client(i), name=f"acct{i}")
    env.run()
    assert len(refused) > 5
    assert any("connection refused" not in "" for _ in [0])  # sanity no-op
    assert server.stats.shed == len(refused)


def test_no_shedding_below_threshold(env, net):
    server = make_server(env, net)
    clients = [
        RpcClient(env, net, "client", server, client_id=f"c{i}") for i in range(10)
    ]

    def caller(client):
        yield from client.call("echo", service=0.001)

    for client in clients:
        env.process(caller(client), name=client.client_id)
    env.run()
    assert server.stats.shed == 0


@pytest.mark.parametrize("seed", range(5))
def test_active_clients_matches_a_brute_force_scan(env, net, seed):
    """Last-seen order with expiry from the front counts exactly the
    clients a scan over every client ever seen would."""
    window = 1.0
    server = make_server(env, net, rpc_client_activity_window=window)
    rng = random.Random(seed)
    last_seen: dict[str, float] = {}

    def arrivals():
        for _ in range(300):
            yield env.timeout(rng.choice([0.0, 0.05, 0.3, 1.0, 2.5]))
            if rng.random() < 0.8:
                client = f"c{rng.randrange(15)}"
                server.submit(
                    RpcRequest(
                        request_id=0,
                        method="echo",
                        params={"service": 0.001},
                        reply_host="client",
                        response=env.event(),
                        enqueued_at=env.now,
                        client_id=client,
                    )
                )
                last_seen[client] = env.now
            cutoff = env.now - window
            expected = sum(1 for seen in last_seen.values() if seen >= cutoff)
            assert server.active_clients() == expected

    env.run_until_complete(env.process(arrivals(), name="arrivals"))


# -- WebSocket ------------------------------------------------------------------


def _packet(sequence):
    return Packet(
        sequence=sequence,
        source_port="transfer",
        source_channel="channel-0",
        destination_port="transfer",
        destination_channel="channel-0",
        data=b"{}",
        timeout_height=Height(0, 100),
        timeout_timestamp=0.0,
    )


def _block_with_events(height, n_events, bytes_per_event, kinds=("send_packet",)):
    """A one-tx block whose ``i``-th event has kind ``kinds[i % len(kinds)]``
    and carries packet ``i``."""
    events = [
        AbciEvent(
            type=kinds[i % len(kinds)],
            size_bytes=bytes_per_event,
            packet=_packet(i),
            src_chain="ws-chain",
        )
        for i in range(n_events)
    ]

    class _FakeTx:
        hash = b"\x01" * 32
        size_bytes = 100
        msg_count = n_events

    tx = ExecutedTx(
        tx=_FakeTx(),
        height=height,
        index=0,
        result=ResponseDeliverTx(code=0, events=events),
    )
    return ExecutedBlock(
        height=height,
        time=float(height),
        txs=[tx],
        end_block_events=[],
        app_hash=b"",
        execution_seconds=0.0,
    )


def test_subscription_receives_events(env, net):
    server = WebSocketServer(env, net, "server", "ws-chain")
    sub = server.subscribe("client", event_types={"send_packet"})
    server.publish_block(_block_with_events(1, 3, 100))
    env.run()
    notification = sub.queue.try_get()
    assert notification.ok
    assert len(notification.events) == 3
    assert notification.height == 1


def test_oversized_frame_fails_subscription(env, net):
    """Frames over 16 MB raise 'Failed to collect events' and latch."""
    server = WebSocketServer(env, net, "server", "ws-chain")
    sub = server.subscribe("client")
    big = _block_with_events(1, 100_000, 400)  # 40 MB of event data
    server.publish_block(big)
    env.run()
    notification = sub.queue.try_get()
    assert not notification.ok
    assert notification.error.size > server.cal.websocket_max_frame_bytes
    assert sub.failed


def test_failed_subscription_stays_silent(env, net):
    """After the failure, later (small) blocks never arrive — the paper's
    observation that subsequent transfers also get stuck."""
    server = WebSocketServer(env, net, "server", "ws-chain")
    sub = server.subscribe("client")
    server.publish_block(_block_with_events(1, 100_000, 400))
    server.publish_block(_block_with_events(2, 1, 100))
    env.run()
    first = sub.queue.try_get()
    assert not first.ok
    assert sub.queue.try_get() is EMPTY  # nothing else delivered
    assert sub.failures == 2


def test_resubscribe_recovers(env, net):
    server = WebSocketServer(env, net, "server", "ws-chain")
    sub = server.subscribe("client")
    server.publish_block(_block_with_events(1, 100_000, 400))
    env.run()
    sub.queue.try_get()
    server.resubscribe(sub)
    server.publish_block(_block_with_events(2, 2, 100))
    env.run()
    notification = sub.queue.try_get()
    assert notification.ok and notification.height == 2


def test_event_type_filter(env, net):
    server = WebSocketServer(env, net, "server", "ws-chain")
    sub = server.subscribe("client", event_types={"other_type"})
    server.publish_block(_block_with_events(1, 3, 100))
    env.run()
    notification = sub.queue.try_get()
    assert notification.ok and notification.events == []


def test_failed_txs_events_not_delivered(env, net):
    server = WebSocketServer(env, net, "server", "ws-chain")
    sub = server.subscribe("client")
    block = _block_with_events(1, 3, 100)
    block.txs[0].result.code = 1  # failed tx
    server.publish_block(block)
    env.run()
    notification = sub.queue.try_get()
    assert notification.events == []


def test_frame_size_tracked_without_subscribers(env, net):
    """``max_frame_bytes`` is the envelope plus the OK txs' event bytes,
    whether or not the server has a subscription."""
    bare = WebSocketServer(env, net, "server", "ws-chain")
    watched = WebSocketServer(env, net, "server", "ws-chain")
    watched.subscribe("client")
    failed = _block_with_events(3, 50, 1000)
    failed.txs[0].result.code = 1
    for server in (bare, watched):
        server.publish_block(_block_with_events(1, 4, 100))
        assert server.max_frame_bytes == 200 + 4 * 100
        server.publish_block(_block_with_events(2, 2, 100))
        server.publish_block(failed)
        assert server.max_frame_bytes == 200 + 4 * 100
    assert bare.subscriptions == []


def test_event_type_filter_selects_only_subscribed_kinds(env, net):
    server = WebSocketServer(env, net, "server", "ws-chain")
    wanted = {"send_packet", "write_acknowledgement"}
    filtered = server.subscribe("client", event_types=wanted)
    everything = server.subscribe("client")
    kinds = ("send_packet", "recv_packet", "write_acknowledgement")
    server.publish_block(_block_with_events(1, 6, 100, kinds=kinds))
    env.run()
    some = filtered.queue.try_get()
    assert [d.type for d in some.events] == [
        "send_packet", "write_acknowledgement"
    ] * 2
    assert [d.packet.sequence for d in some.events] == [0, 2, 3, 5]
    assert [d.type for d in everything.queue.try_get().events] == list(kinds) * 2


def test_latched_subscription_yields_nothing_while_others_receive(env, net):
    server = WebSocketServer(env, net, "server", "ws-chain")
    latched = server.subscribe("client")
    healthy = server.subscribe("client")
    server.publish_block(_block_with_events(1, 100_000, 400))
    env.run()
    latched.queue.try_get()
    healthy.queue.try_get()
    server.resubscribe(healthy)
    server.publish_block(_block_with_events(2, 3, 100))
    env.run()
    assert latched.queue.try_get() is EMPTY
    assert latched.failures == 2
    assert len(healthy.queue.try_get().events) == 3


def test_notification_events_reference_the_event_packets(env, net):
    server = WebSocketServer(env, net, "server", "ws-chain")
    sub = server.subscribe("client", event_types={"send_packet"})
    block = _block_with_events(4, 3, 100)
    server.publish_block(block)
    env.run()
    notification = sub.queue.try_get()
    events = block.txs[0].result.events
    assert len(notification.events) == len(events)
    for descriptor, event in zip(notification.events, events):
        assert descriptor.packet is event.packet
        assert descriptor.src_chain == "ws-chain"
        assert (descriptor.height, descriptor.tx_hash) == (4, block.txs[0].hash)
