"""Tests for the Analysis module's data connector and calibration plumbing."""

import pytest

from repro import calibration as cal
from repro.framework.connectors import CrossChainDataConnector


def test_data_connector_collects_blocks(bootstrapped):
    h = bootstrapped
    cli = h.cli()

    def workload():
        submission = yield from cli.ft_transfer(count=10, amount=1)
        ok = yield from cli.wait_confirmation(submission)
        assert ok
        yield h.env.timeout(30.0)
        return submission

    submission = h.run_process(workload())

    connector = CrossChainDataConnector(
        h.env,
        nodes={"chain-a": h.node_a, "chain-b": h.node_b},
        host="m0",
    )
    heights = list(range(1, h.chain_a.block_store.latest_height + 1))

    def collect():
        return (yield from connector.collect_blocks("chain-a", heights))

    blocks = h.run_process(collect())
    assert len(blocks) == len(heights)
    busy = [b for b in blocks if b.message_count > 0]
    assert busy, "the workload block must appear"
    target = next(b for b in blocks if submission.tx.hash in b.tx_hashes)
    assert target.height == submission.confirmed.height
    # Busy blocks cost more to collect than empty ones (§V's challenge).
    empty = [b for b in blocks if b.message_count == 0]
    if empty:
        assert max(b.query_seconds for b in busy) > min(
            e.query_seconds for e in empty
        )


def test_data_connector_skips_missing_heights(bootstrapped):
    h = bootstrapped
    connector = CrossChainDataConnector(
        h.env, nodes={"chain-a": h.node_a}, host="m0"
    )

    def collect():
        return (yield from connector.collect_blocks("chain-a", [1, 99999]))

    blocks = h.run_process(collect())
    assert [b.height for b in blocks] == [1]


# -- calibration ----------------------------------------------------------------


def test_calibration_overrides_are_copies():
    base = cal.DEFAULT_CALIBRATION
    changed = base.with_overrides(rpc_workers=4, min_block_interval=7.0)
    assert changed.rpc_workers == 4
    assert changed.min_block_interval == 7.0
    assert base.rpc_workers == 1
    assert base.min_block_interval == 5.0


def test_calibration_anchors_match_paper_derivations():
    """Pin the documented derivations so edits to calibration.py that break
    the paper anchors fail loudly."""
    c = cal.DEFAULT_CALIBRATION
    # Fig. 12 anchors: 50 tx-queries scanning 5 000 events each.
    transfer_pull = 50 * (c.rpc_base_seconds + 5000 * c.rpc_scan_seconds_per_transfer_event)
    recv_pull = 50 * (c.rpc_base_seconds + 5000 * c.rpc_scan_seconds_per_recv_event)
    assert transfer_pull == pytest.approx(110, rel=0.05)
    assert recv_pull == pytest.approx(207, rel=0.05)
    # Gas: 100-message transaction averages.
    assert 100 * c.gas_per_transfer_msg == pytest.approx(3_669_161, rel=0.001)
    assert 100 * c.gas_per_recv_msg == pytest.approx(7_238_699, rel=0.001)
    assert 100 * c.gas_per_ack_msg == pytest.approx(3_107_462, rel=0.001)
    # The 16 MB WebSocket limit.
    assert c.websocket_max_frame_bytes == 16 * 1024 * 1024
    # The serial RPC.
    assert c.rpc_workers == 1
    # Block throughput fit: T(B) = interval + consensus + exec must pass
    # near the paper's Fig. 6 anchors.
    def tput(batch):
        exec_s = (
            c.block_overhead_seconds
            + c.deliver_tx_seconds_per_msg * batch
            + c.indexing_seconds_per_msg_sq * batch**2
        )
        return batch / (c.min_block_interval + 0.5 + exec_s)

    assert tput(15_000) == pytest.approx(961, rel=0.15)  # 3 000 RPS peak
    assert tput(45_000) == pytest.approx(499, rel=0.15)  # 9 000 RPS


def test_event_bytes_ratio_matches_paper():
    """Recv event data is ~1.75x transfer event data (§V line counts)."""
    sizes = cal.DEFAULT_CALIBRATION.event_bytes
    ratio = sizes["recv_packet"] / sizes["send_packet"]
    assert ratio == pytest.approx(579_919 / 331_706, rel=0.05)
