"""IBC packet life-cycle tests over a direct two-chain pair (Fig. 2 / Fig. 3)."""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmos.app import TRANSFER_DENOM
from repro.errors import PacketTimeoutError, from_wire, to_wire
from repro.ibc.channel import ChannelOrder
from repro.ibc.msgs import (
    MsgAcknowledgement,
    MsgRecvPacket,
    MsgTimeout,
    MsgTransfer,
    MsgUpdateClient,
)
from repro.ibc import packet as packet_module
from repro.ibc.packet import Height, Packet
from repro.ibc.transfer import escrow_address
from repro.tendermint.crypto import sha256

from tests.ibc_harness import BLOCK_INTERVAL, IbcPair


@pytest.fixture(scope="module")
def pair() -> IbcPair:
    """One channel pair shared by the read-only flow tests."""
    return IbcPair()


def fresh_pair(**kwargs) -> IbcPair:
    return IbcPair(**kwargs)


# -- happy path ---------------------------------------------------------------


def test_full_transfer_cycle_moves_tokens(pair):
    before = pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM)
    packet = pair.relay_full_cycle(amount=25)
    after = pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM)
    assert before - after == 25
    voucher = pair.voucher_denom()
    assert pair.b.bank.balance(pair.receiver.address, voucher) >= 25
    # Commitment cleared on the source after the ack (Fig. 2 step 6).
    assert not pair.a.ibc.has_commitment("transfer", pair.chan_a, packet.sequence)


def test_escrow_holds_locked_tokens(pair):
    escrow = escrow_address("transfer", pair.chan_a)
    before = pair.a.bank.balance(escrow, TRANSFER_DENOM)
    pair.relay_full_cycle(amount=7)
    assert pair.a.bank.balance(escrow, TRANSFER_DENOM) == before + 7


def test_sequences_are_consecutive(pair):
    p1 = pair.transfer()
    p2 = pair.transfer()
    assert p2.sequence == p1.sequence + 1
    pair.relay_recv([p1, p2])
    pair.relay_ack([p1, p2])


def test_receipt_written_on_destination(pair):
    packet = pair.transfer()
    pair.relay_recv([packet])
    assert pair.b.ibc.has_receipt("transfer", pair.chan_b, packet.sequence)
    pair.relay_ack([packet])


def test_events_emitted_along_the_way():
    pair = fresh_pair()
    packet = pair.transfer()
    recv_result = pair.relay_recv([packet])
    types = [e.type for e in recv_result.events]
    assert "recv_packet" in types
    assert "write_acknowledgement" in types
    ack_result = pair.relay_ack([packet])
    assert "acknowledge_packet" in [e.type for e in ack_result.events]


def test_round_trip_token_returns_home():
    """A voucher sent back over the same channel unwinds to the original."""
    pair = fresh_pair()
    pair.relay_full_cycle(amount=50)
    voucher = pair.voucher_denom()

    # Receiver on B sends the voucher back to the user on A.
    receiver_factory = pair.b.fund_wallet(pair.receiver, tokens=0)
    msg = MsgTransfer(
        source_port="transfer",
        source_channel=pair.chan_b,
        denom=voucher,
        amount=50,
        sender=pair.receiver.address,
        receiver=pair.user.wallet.address,
        timeout_height=Height(0, pair.a.height + 100),
    )
    result = pair.exec_ok(pair.b, receiver_factory, [msg])
    back = next(e.packet for e in result.events if e.type == "send_packet")
    assert (back.source_channel, back.destination_channel) == (
        pair.chan_b,
        pair.chan_a,
    )
    # Voucher burned on B.
    assert pair.b.bank.balance(pair.receiver.address, voucher) == 0
    # Relay B -> A.
    header_b = pair.b.signed_header()
    user_before = pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM)
    pair.exec_ok(
        pair.a,
        pair.relayer_a,
        [
            MsgUpdateClient(client_id=pair.client_on_a, header=header_b),
            MsgRecvPacket(
                packet=back,
                proof_commitment=pair.b.ibc.prove_commitment(
                    "transfer", pair.chan_b, back.sequence
                ),
                proof_height=header_b.height,
            ),
        ],
    )
    # Un-escrowed back to the original holder on A.
    assert (
        pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM)
        == user_before + 50
    )


# -- redundancy (the two-relayer race) ------------------------------------------


def test_duplicate_recv_fails_with_redundant_error():
    pair = fresh_pair()
    packet = pair.transfer()
    pair.relay_recv([packet])
    result = pair.exec_expect_fail(
        pair.b, pair.relayer_b, pair.recv_msgs([packet])
    )
    assert "redundant" in result.log


def test_duplicate_ack_fails_with_redundant_error():
    pair = fresh_pair()
    packet = pair.transfer()
    pair.relay_recv([packet])
    pair.relay_ack([packet])
    result = pair.exec_expect_fail(pair.a, pair.relayer_a, pair.ack_msgs([packet]))
    assert "redundant" in result.log


def test_redundant_tx_is_atomic_no_partial_state():
    """A tx with one fresh and one already-received packet fails whole,
    leaving the fresh packet unreceived (SDK atomicity)."""
    pair = fresh_pair()
    p1 = pair.transfer()
    p2 = pair.transfer()
    pair.relay_recv([p1])
    result = pair.exec_expect_fail(pair.b, pair.relayer_b, pair.recv_msgs([p2, p1]))
    assert "redundant" in result.log
    assert not pair.b.ibc.has_receipt("transfer", pair.chan_b, p2.sequence)
    # The fresh packet can still be relayed afterwards.
    pair.relay_recv([p2])


def test_failed_tx_still_increments_sequence_and_is_indexed():
    pair = fresh_pair()
    packet = pair.transfer()
    pair.relay_recv([packet])
    seq_before = pair.b.app.account_sequence(pair.relayer_b.wallet.address)
    pair.exec_expect_fail(pair.b, pair.relayer_b, pair.recv_msgs([packet]))
    assert (
        pair.b.app.account_sequence(pair.relayer_b.wallet.address)
        == seq_before + 1
    )


# -- proofs ----------------------------------------------------------------------


def test_recv_with_wrong_proof_rejected():
    pair = fresh_pair()
    p1 = pair.transfer()
    p2 = pair.transfer()
    header = pair.a.signed_header()
    msgs = [
        MsgUpdateClient(client_id=pair.client_on_b, header=header),
        MsgRecvPacket(
            packet=p1,
            # Proof for the WRONG sequence.
            proof_commitment=pair.a.ibc.prove_commitment(
                "transfer", pair.chan_a, p2.sequence
            ),
            proof_height=header.height,
        ),
    ]
    result = pair.exec_expect_fail(pair.b, pair.relayer_b, msgs)
    assert "Proof" in result.log or "proof" in result.log


def test_recv_without_client_update_rejected():
    """Without a consensus state at the proof height, verification fails."""
    pair = fresh_pair()
    packet = pair.transfer()
    header = pair.a.signed_header()
    msgs = [
        MsgRecvPacket(
            packet=packet,
            proof_commitment=pair.a.ibc.prove_commitment(
                "transfer", pair.chan_a, packet.sequence
            ),
            proof_height=header.height,  # never installed on B
        )
    ]
    result = pair.exec_expect_fail(pair.b, pair.relayer_b, msgs)
    assert "consensus state" in result.log


def test_forged_packet_data_rejected():
    """Tampering with packet data invalidates the stored commitment proof."""
    pair = fresh_pair()
    packet = pair.transfer(amount=1)
    forged = replace(
        packet,
        data=packet.data.replace(b'"amount": "1"', b'"amount": "9999"'),
    )
    header = pair.a.signed_header()
    msgs = [
        MsgUpdateClient(client_id=pair.client_on_b, header=header),
        MsgRecvPacket(
            packet=forged,
            proof_commitment=pair.a.ibc.prove_commitment(
                "transfer", pair.chan_a, packet.sequence
            ),
            proof_height=header.height,
        ),
    ]
    result = pair.exec_expect_fail(pair.b, pair.relayer_b, msgs)
    assert "proof" in result.log.lower()


# -- the destination trusts the packet's fields, never its identity ---------------
#
# A relayer hands the destination chain the very object the source chain's
# event carried.  These tests pin that only the fields count: an equal copy
# goes through, and a copy with one field altered is rejected on both legs,
# in both proof modes.

PROOF_MODES = ("merkle", "stub")
TAMPERED_FIELDS = ("data", "sequence", "timeout_height")


def _tampered(packet, field):
    if field == "data":
        forged = replace(
            packet, data=packet.data.replace(b'"amount": "1"', b'"amount": "9999"')
        )
    elif field == "sequence":
        forged = replace(packet, sequence=packet.sequence + 1)
    else:
        forged = replace(packet, timeout_height=packet.timeout_height.add(50))
    assert getattr(forged, field) != getattr(packet, field)
    return forged


@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_field_copy_of_packet_is_received_and_acknowledged(proof_mode):
    pair = fresh_pair(proof_mode=proof_mode)
    packet = pair.transfer(amount=1)
    copy = replace(packet)
    assert copy == packet and copy is not packet
    pair.relay_recv([copy])
    assert pair.b.ibc.has_receipt("transfer", pair.chan_b, packet.sequence)
    pair.relay_ack([replace(packet)])
    assert not pair.a.ibc.has_commitment("transfer", pair.chan_a, packet.sequence)


@pytest.mark.parametrize("field", TAMPERED_FIELDS)
@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_tampered_packet_rejected_by_recv(proof_mode, field):
    pair = fresh_pair(proof_mode=proof_mode)
    packet = pair.transfer(amount=1)
    pair.transfer(amount=1)  # so a forged sequence names a live commitment
    forged = _tampered(packet, field)
    header = pair.a.signed_header()
    msgs = [
        MsgUpdateClient(client_id=pair.client_on_b, header=header),
        MsgRecvPacket(
            packet=forged,
            proof_commitment=pair.a.ibc.prove_commitment(
                "transfer", pair.chan_a, packet.sequence
            ),
            proof_height=header.height,
        ),
    ]
    result = pair.exec_expect_fail(pair.b, pair.relayer_b, msgs)
    assert "proof" in result.log.lower()
    for sequence in (packet.sequence, forged.sequence):
        assert not pair.b.ibc.has_receipt("transfer", pair.chan_b, sequence)
    pair.relay_recv([packet])  # the genuine packet still goes through


@pytest.mark.parametrize("field", TAMPERED_FIELDS)
@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_tampered_packet_rejected_by_acknowledge(proof_mode, field):
    pair = fresh_pair(proof_mode=proof_mode)
    packet = pair.transfer(amount=1)
    sibling = pair.transfer(amount=1)
    pair.relay_recv([packet, sibling])
    forged = _tampered(packet, field)
    header = pair.b.signed_header()
    msgs = [
        MsgUpdateClient(client_id=pair.client_on_a, header=header),
        MsgAcknowledgement(
            packet=forged,
            acknowledgement=pair.b.ibc.acknowledgement_for(
                "transfer", pair.chan_b, packet.sequence
            ),
            proof_acked=pair.b.ibc.prove_acknowledgement(
                "transfer", pair.chan_b, packet.sequence
            ),
            proof_height=header.height,
        ),
    ]
    pair.exec_expect_fail(pair.a, pair.relayer_a, msgs)
    for sent in (packet, sibling):
        assert pair.a.ibc.has_commitment("transfer", pair.chan_a, sent.sequence)
    pair.relay_ack([packet])  # the genuine packet still settles


# -- the commitment kept on a packet never vouches for a forged copy ----------------
#
# ``Packet.commitment()`` is computed once per packet object and kept on it.
# ``copy.copy`` carries the kept value over, and ``object.__setattr__`` can
# then rewrite a frozen field under it: the copy must still be judged by its
# own fields, on every leg and in both proof modes.

FORGED_FIELDS = ("data", "sequence", "timeout_height", "timeout_timestamp")


def _forged_copy(packet, field):
    packet.commitment()
    forged = copy.copy(packet)
    assert forged._commitment is packet._commitment  # the inherited value
    if field == "data":
        value = packet.data.replace(b'"amount": "1"', b'"amount": "9999"')
    elif field == "sequence":
        value = packet.sequence + 1
    elif field == "timeout_height":
        value = packet.timeout_height.add(50)
    else:
        value = packet.timeout_timestamp + 10**6
    object.__setattr__(forged, field, value)
    assert getattr(forged, field) != getattr(packet, field)
    return forged


@pytest.mark.parametrize("field", FORGED_FIELDS)
@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_forged_copy_rejected_by_recv(proof_mode, field):
    pair = fresh_pair(proof_mode=proof_mode)
    packet = pair.transfer(amount=1)
    pair.transfer(amount=1)  # so a forged sequence names a live commitment
    forged = _forged_copy(packet, field)
    update, recv = pair.recv_msgs([packet])
    result = pair.exec_expect_fail(
        pair.b, pair.relayer_b, [update, replace(recv, packet=forged)]
    )
    assert "proof" in result.log.lower()
    for sequence in (packet.sequence, forged.sequence):
        assert not pair.b.ibc.has_receipt("transfer", pair.chan_b, sequence)
    pair.relay_recv([packet])  # the genuine packet still goes through


@pytest.mark.parametrize("field", FORGED_FIELDS)
@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_forged_copy_rejected_by_acknowledge(proof_mode, field):
    pair = fresh_pair(proof_mode=proof_mode)
    packet = pair.transfer(amount=1)
    sibling = pair.transfer(amount=1)
    pair.relay_recv([packet, sibling])
    forged = _forged_copy(packet, field)
    update, ack = pair.ack_msgs([packet])
    pair.exec_expect_fail(pair.a, pair.relayer_a, [update, replace(ack, packet=forged)])
    for sent in (packet, sibling):
        assert pair.a.ibc.has_commitment("transfer", pair.chan_a, sent.sequence)
    pair.relay_ack([packet])  # the genuine packet still settles


@pytest.mark.parametrize("field", FORGED_FIELDS)
@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_forged_copy_rejected_by_timeout(proof_mode, field):
    pair = fresh_pair(proof_mode=proof_mode)
    before = _sender_balance(pair)
    packet = pair.transfer(amount=1, timeout_blocks=1)
    sibling = pair.transfer(amount=1, timeout_blocks=1)
    pair.b.make_block([])
    pair.b.make_block([])
    forged = _forged_copy(packet, field)
    update, timeout = pair.timeout_msgs([packet])
    pair.exec_expect_fail(
        pair.a, pair.relayer_a, [update, replace(timeout, packet=forged)]
    )
    assert _sender_balance(pair) == before - 2  # nothing refunded
    for sent in (packet, sibling):
        assert pair.a.ibc.has_commitment("transfer", pair.chan_a, sent.sequence)
    pair.exec_ok(pair.a, pair.relayer_a, pair.timeout_msgs([packet]))
    assert _sender_balance(pair) == before - 1


def test_kept_commitment_is_not_part_of_the_packet():
    packet = Packet(
        sequence=7,
        source_port="transfer",
        source_channel="channel-0",
        destination_port="transfer",
        destination_channel="channel-1",
        data=b'{"amount": "1"}',
        timeout_height=Height(0, 40),
        timeout_timestamp=0.0,
    )
    fresh = replace(packet)
    commitment = packet.commitment()
    assert packet._commitment is not None and fresh._commitment is None
    assert packet == fresh and hash(packet) == hash(fresh)
    assert repr(packet) == repr(fresh) and "commitment" not in repr(packet)
    wire = to_wire(packet)
    assert wire == to_wire(fresh) and "_commitment" not in wire
    assert from_wire(Packet, wire, "packet") == packet
    assert replace(packet, data=b"other").commitment() != commitment
    assert fresh.commitment() == commitment
    assert pickle.loads(pickle.dumps(packet)).commitment() == commitment


# -- the last commitment, shared by the packets of one transaction ---------------
#
# A packet without a kept commitment reuses the last one computed in the
# process when its data and both timeouts are the very objects it was
# computed from.  Each case below checks the memo against the formula.


def _direct_commitment(packet) -> bytes:
    return sha256(
        f"{packet.timeout_timestamp}/{packet.timeout_height}".encode()
        + sha256(packet.data)
    )


def _packet(data, height, stamp, sequence=1) -> Packet:
    return Packet(
        sequence=sequence,
        source_port="transfer",
        source_channel="channel-0",
        destination_port="transfer",
        destination_channel="channel-1",
        data=data,
        timeout_height=height,
        timeout_timestamp=stamp,
    )


def test_shared_memo_tells_equal_timestamps_apart():
    """``0``, ``0.0`` and ``-0.0`` are equal but format differently in the
    preimage, so each gets its own commitment, in any order."""
    data, height = b'{"amount": "1"}', Height(0, 40)
    packet_module.reset_caches()
    seen = {}
    for stamp in (0, 0.0, -0.0, 0, -0.0, 0.0, 0):
        packet = _packet(data, height, stamp)
        assert packet.commitment() == _direct_commitment(packet)
        seen[repr(stamp)] = packet.commitment()
    assert len(set(seen.values())) == 3


def test_shared_memo_hashes_once_per_shared_payload(monkeypatch):
    data, height, stamp = b'{"amount": "1"}', Height(0, 40), 0.0
    packet_module.reset_caches()
    calls = []
    real = packet_module.sha256
    monkeypatch.setattr(packet_module, "sha256", lambda b: calls.append(b) or real(b))
    packets = [_packet(data, height, stamp, sequence) for sequence in range(5)]
    assert len({p.commitment() for p in packets}) == 1
    assert len(calls) == 2
    # Equal but distinct data is a different object: hashed again, same value.
    twin = _packet(b"".join([b'{"amount": ', b'"1"}']), height, stamp)
    assert twin.data == data and twin.data is not data
    assert twin.commitment() == packets[0].commitment()
    assert len(calls) == 4
    packet_module.reset_caches()
    assert packet_module._last_commitment is None


def test_shared_memo_never_vouches_for_a_copy_with_other_fields():
    """``dataclasses.replace`` copies and the forged ``copy.copy`` cases
    above all get their own fields' commitment, memo warm or cold."""
    packet = _packet(b'{"amount": "1"}', Height(0, 40), 0.0)
    for warm in (True, False):
        if not warm:
            packet_module.reset_caches()
        base = packet.commitment()
        assert replace(packet).commitment() == base
        for changed in (
            replace(packet, data=b'{"amount": "9999"}'),
            replace(packet, timeout_height=Height(0, 41)),
            replace(packet, timeout_timestamp=-0.0),
            replace(packet, timeout_timestamp=0),
        ):
            assert changed.commitment() == _direct_commitment(changed) != base
        for field in FORGED_FIELDS:
            forged = _forged_copy(packet, field)
            assert forged.commitment() == _direct_commitment(forged)
            if field != "sequence":
                assert forged.commitment() != base


# Pools whose entries repeat by value but not always by identity.
_DATA_POOL = (b'{"a": 1}', b"".join([b'{"a": ', b"1}"]), b"other")
_HEIGHT_POOL = (Height(0, 40), Height(0, 40), Height(1, 40), Height.zero())
_STAMP_POOL = (0, 0.0, -0.0, float("0"), 7.5, float("7.5"))


@settings(max_examples=200, deadline=None)
@given(
    picks=st.lists(
        st.tuples(
            st.integers(0, len(_DATA_POOL) - 1),
            st.integers(0, len(_HEIGHT_POOL) - 1),
            st.integers(0, len(_STAMP_POOL) - 1),
            st.booleans(),
        ),
        max_size=20,
    )
)
def test_shared_memo_matches_the_formula_on_repeating_inputs(picks):
    packet_module.reset_caches()
    previous = None
    for data, height, stamp, reuse in picks:
        packet = _packet(_DATA_POOL[data], _HEIGHT_POOL[height], _STAMP_POOL[stamp])
        if reuse and previous is not None:
            packet = previous  # a packet asked twice keeps its own value
        assert packet.commitment() == _direct_commitment(packet)
        previous = packet


# -- timeouts (Fig. 3) -------------------------------------------------------------


def test_timed_out_packet_rejected_at_destination():
    pair = fresh_pair()
    packet = pair.transfer(timeout_blocks=1)
    pair.b.make_block([])  # destination passes the timeout height
    pair.b.make_block([])
    result = pair.exec_expect_fail(pair.b, pair.relayer_b, pair.recv_msgs([packet]))
    assert "timed out" in result.log


def test_timeout_refunds_sender():
    pair = fresh_pair()
    before = pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM)
    packet = pair.transfer(amount=33, timeout_blocks=1)
    assert pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM) == before - 33
    pair.b.make_block([])
    pair.b.make_block([])
    pair.exec_ok(pair.a, pair.relayer_a, pair.timeout_msgs([packet]))
    # OnPacketTimeout unlocked the escrowed tokens (Fig. 3).
    assert pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM) == before
    assert not pair.a.ibc.has_commitment("transfer", pair.chan_a, packet.sequence)


def test_timestamp_timeout_rejects_receive_and_refunds_sender():
    """Only ``timeout_timestamp`` set: the destination's block time, not
    its height, expires the packet."""
    pair = fresh_pair()
    before = pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM)
    deadline = pair.b.time + 2 * BLOCK_INTERVAL
    packet = pair.transfer(amount=33, timeout_blocks=None, timeout_timestamp=deadline)
    assert packet.timeout_height.is_zero
    assert not packet.timed_out(Height(0, 10**9), pair.b.time)
    while pair.b.time <= deadline:  # strictly past it, not merely at it
        pair.b.make_block([])
    _update, recv = pair.recv_msgs([packet])
    with pytest.raises(PacketTimeoutError):
        pair.b.ibc.recv_packets([recv], pair.b.ctx(), lambda msg: None, [])
    # MsgTimeout with the absence proof unlocks the escrow (Fig. 3).
    pair.exec_ok(pair.a, pair.relayer_a, pair.timeout_msgs([packet]))
    assert pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM) == before
    assert not pair.a.ibc.has_commitment("transfer", pair.chan_a, packet.sequence)


def test_timeout_before_expiry_rejected():
    pair = fresh_pair()
    packet = pair.transfer(timeout_blocks=1000)
    result = pair.exec_expect_fail(
        pair.a, pair.relayer_a, pair.timeout_msgs([packet])
    )
    assert "not past its timeout" in result.log


def test_timeout_after_receive_impossible():
    """Once received, the receipt's presence falsifies the absence proof."""
    pair = fresh_pair()
    packet = pair.transfer(timeout_blocks=3)
    pair.relay_recv([packet])
    for _ in range(4):
        pair.b.make_block([])
    # prove_unreceived would fail server-side; craft the message anyway
    # with a stale absence proof taken before the receive.
    import pytest as _pytest

    with _pytest.raises(KeyError):
        pair.b.ibc.store.prove_absence(
            __import__("repro.ibc.keys", fromlist=["keys"]).packet_receipt_path(
                "transfer", pair.chan_b, packet.sequence
            )
        )


def test_double_timeout_redundant():
    pair = fresh_pair()
    packet = pair.transfer(timeout_blocks=1)
    pair.b.make_block([])
    pair.b.make_block([])
    pair.exec_ok(pair.a, pair.relayer_a, pair.timeout_msgs([packet]))
    result = pair.exec_expect_fail(
        pair.a, pair.relayer_a, pair.timeout_msgs([packet])
    )
    assert "redundant" in result.log


# -- ordered channels ---------------------------------------------------------------


def test_ordered_channel_enforces_sequence_order():
    pair = fresh_pair(ordering=ChannelOrder.ORDERED)
    p1 = pair.transfer()
    p2 = pair.transfer()
    # Delivering p2 before p1 must fail on an ordered channel.
    result = pair.exec_expect_fail(pair.b, pair.relayer_b, pair.recv_msgs([p2]))
    assert "expects sequence" in result.log
    pair.relay_recv([p1])
    pair.relay_recv([p2])


def _sender_balance(pair):
    return pair.a.bank.balance(pair.user.wallet.address, TRANSFER_DENOM)


def _received_then_expired(pair, amount=10):
    """A packet received on B (voucher minted), after which B passes the
    packet's timeout height."""
    packet = pair.transfer(amount=amount, timeout_blocks=3)
    pair.relay_recv([packet])
    voucher = pair.b.bank.balance(pair.receiver.address, pair.voucher_denom())
    assert voucher == amount
    for _ in range(4):
        pair.b.make_block([])
    return packet


@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_ordered_timeout_forged_receive_claim_rejected(proof_mode):
    """An unproven ``next_sequence_recv`` cannot time out a packet B has
    received: the refund would create value B's voucher already holds."""
    pair = fresh_pair(proof_mode=proof_mode, ordering=ChannelOrder.ORDERED)
    before = _sender_balance(pair)
    packet = _received_then_expired(pair)
    update, _honest = pair.timeout_msgs([packet])
    for claimed in (packet.sequence + 1, packet.sequence):
        forged = MsgTimeout(
            packet=packet,
            proof_unreceived=None,
            proof_height=update.header.height,
            next_sequence_recv=claimed,
        )
        pair.exec_expect_fail(pair.a, pair.relayer_a, [update, forged])
    assert _sender_balance(pair) == before - 10  # no refund
    assert pair.a.ibc.has_commitment("transfer", pair.chan_a, packet.sequence)


@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_ordered_timeout_of_unreceived_packet_refunds(proof_mode):
    """A proven receive counter that has not reached the packet times it
    out and unlocks the escrow (ICS-04 ordered timeout)."""
    pair = fresh_pair(proof_mode=proof_mode, ordering=ChannelOrder.ORDERED)
    before = _sender_balance(pair)
    packet = pair.transfer(amount=10, timeout_blocks=1)
    pair.b.make_block([])
    pair.b.make_block([])
    pair.exec_ok(pair.a, pair.relayer_a, pair.timeout_msgs([packet]))
    assert _sender_balance(pair) == before
    assert not pair.a.ibc.has_commitment("transfer", pair.chan_a, packet.sequence)


@pytest.mark.parametrize("proof_mode", PROOF_MODES)
def test_ordered_received_packet_cannot_time_out(proof_mode):
    """B's proven counter has passed a received packet; understating the
    counter does not match the proof."""
    pair = fresh_pair(proof_mode=proof_mode, ordering=ChannelOrder.ORDERED)
    packet = _received_then_expired(pair)
    result = pair.exec_expect_fail(
        pair.a, pair.relayer_a, pair.timeout_msgs([packet])
    )
    assert "was received" in result.log
    update, honest = pair.timeout_msgs([packet])
    understated = replace(honest, next_sequence_recv=packet.sequence)
    pair.exec_expect_fail(pair.a, pair.relayer_a, [update, understated])
    assert pair.a.ibc.has_commitment("transfer", pair.chan_a, packet.sequence)


def test_unordered_channel_allows_any_order():
    pair = fresh_pair(ordering=ChannelOrder.UNORDERED)
    p1 = pair.transfer()
    p2 = pair.transfer()
    pair.relay_recv([p2])
    pair.relay_recv([p1])
    pair.relay_ack([p1, p2])


# -- misc --------------------------------------------------------------------------


def test_transfer_requires_positive_amount():
    pair = fresh_pair()
    msg = MsgTransfer(
        source_port="transfer",
        source_channel=pair.chan_a,
        denom=TRANSFER_DENOM,
        amount=0,
        sender=pair.user.wallet.address,
        receiver=pair.receiver.address,
        timeout_height=Height(0, 1000),
    )
    result = pair.exec_expect_fail(pair.a, pair.user, [msg])
    assert "positive" in result.log


def test_transfer_requires_funds():
    pair = fresh_pair()
    pauper = pair.a.fund_wallet(
        __import__("repro.cosmos.accounts", fromlist=["Wallet"]).Wallet.named(
            "direct-pauper"
        ),
        tokens=5,
    )
    msg = MsgTransfer(
        source_port="transfer",
        source_channel=pair.chan_a,
        denom=TRANSFER_DENOM,
        amount=10,
        sender=pauper.wallet.address,
        receiver=pair.receiver.address,
        timeout_height=Height(0, 1000),
    )
    result = pair.exec_expect_fail(pair.a, pauper, [msg])
    assert result.code == 5  # insufficient funds


def test_transfer_requires_some_timeout():
    pair = fresh_pair()
    msg = MsgTransfer(
        source_port="transfer",
        source_channel=pair.chan_a,
        denom=TRANSFER_DENOM,
        amount=1,
        sender=pair.user.wallet.address,
        receiver=pair.receiver.address,
        timeout_height=Height.zero(),
        timeout_timestamp=0.0,
    )
    result = pair.exec_expect_fail(pair.a, pair.user, [msg])
    assert "timeout" in result.log


def test_supply_conserved_across_cycles():
    """Escrowed supply on A always matches minted vouchers on B."""
    pair = fresh_pair()
    escrow = escrow_address("transfer", pair.chan_a)
    for amount in (5, 10, 15):
        pair.relay_full_cycle(amount=amount)
    voucher = pair.voucher_denom()
    assert pair.a.bank.balance(escrow, TRANSFER_DENOM) == 30
    assert pair.b.bank.supply(voucher) == 30
