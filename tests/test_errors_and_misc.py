"""Tests for the error hierarchy, keys validation, and packet encoding."""

import pytest

from repro import errors
from repro.ibc import keys
from repro.ibc.packet import Acknowledgement, Height, Packet


def test_error_hierarchy():
    assert issubclass(errors.SequenceMismatchError, errors.ChainError)
    assert issubclass(errors.RedundantPacketError, errors.PacketError)
    assert issubclass(errors.PacketError, errors.IbcError)
    assert issubclass(errors.RpcTimeoutError, errors.RpcError)
    assert issubclass(errors.WebSocketFrameTooLargeError, errors.RpcError)
    assert issubclass(errors.ChainError, errors.ReproError)


def test_sequence_mismatch_message_matches_cosmos():
    err = errors.SequenceMismatchError(expected=3, got=5, account="abc")
    assert "account sequence mismatch" in str(err)
    assert err.code == 32 and err.codespace == "sdk"


def test_redundant_packet_message_matches_hermes():
    err = errors.RedundantPacketError("packet 5 already received")
    assert "packet messages are redundant" in str(err)


def test_websocket_error_carries_sizes():
    err = errors.WebSocketFrameTooLargeError(size=20_000_000, limit=16_777_216)
    assert err.size == 20_000_000 and err.limit == 16_777_216


# -- ICS-24 keys -----------------------------------------------------------------


def test_identifier_validation():
    keys.validate_identifier("channel-0", "channel")
    keys.validate_identifier("07-tendermint-12", "client")
    with pytest.raises(errors.IbcError):
        keys.validate_identifier("", "channel")
    with pytest.raises(errors.IbcError):
        keys.validate_identifier("a", "channel")  # too short
    with pytest.raises(errors.IbcError):
        keys.validate_identifier("bad channel", "channel")  # space


def test_commitment_paths_are_distinct():
    paths = {
        keys.packet_commitment_path("transfer", "channel-0", 1),
        keys.packet_receipt_path("transfer", "channel-0", 1),
        keys.packet_acknowledgement_path("transfer", "channel-0", 1),
        keys.packet_commitment_path("transfer", "channel-0", 2),
        keys.packet_commitment_path("transfer", "channel-1", 1),
        keys.channel_path("transfer", "channel-0"),
        keys.connection_path("connection-0"),
        keys.client_state_path("07-tendermint-0"),
    }
    assert len(paths) == 8


def test_identifier_generators():
    assert keys.client_id(3) == "07-tendermint-3"
    assert keys.connection_id(0) == "connection-0"
    assert keys.channel_id(7) == "channel-7"


# -- packets ---------------------------------------------------------------------


def packet(seq=1, timeout_h=Height(0, 100), timeout_ts=0.0, data=b"xyz"):
    return Packet(
        sequence=seq,
        source_port="transfer",
        source_channel="channel-0",
        destination_port="transfer",
        destination_channel="channel-0",
        data=data,
        timeout_height=timeout_h,
        timeout_timestamp=timeout_ts,
    )


def test_commitment_binds_data_and_timeout():
    base = packet()
    assert base.commitment() == packet().commitment()
    assert base.commitment() != packet(data=b"abc").commitment()
    assert base.commitment() != packet(timeout_h=Height(0, 101)).commitment()
    assert base.commitment() != packet(timeout_ts=9.0).commitment()


def test_timed_out_by_height():
    p = packet(timeout_h=Height(0, 10))
    assert not p.timed_out(Height(0, 9), 0.0)
    assert p.timed_out(Height(0, 10), 0.0)  # reaching the height expires
    assert p.timed_out(Height(0, 11), 0.0)


def test_timed_out_by_timestamp():
    p = packet(timeout_h=Height.zero(), timeout_ts=50.0)
    assert not p.timed_out(Height(0, 10**9), 49.9)
    assert p.timed_out(Height(0, 0), 50.0)
    assert p.timed_out(Height(0, 0), 50.0 + 1e-6)  # and stays expired


def test_zero_timeouts_never_expire():
    p = packet(timeout_h=Height.zero(), timeout_ts=0.0)
    assert not p.timed_out(Height(0, 10**9), 10**9)


def test_height_ordering():
    assert Height(0, 5) < Height(0, 6)
    assert Height(0, 99) < Height(1, 0)
    assert Height(1, 2) <= Height(1, 2)
    assert Height(0, 5).add(3) == Height(0, 8)
    assert str(Height(2, 7)) == "2-7"


def test_acknowledgement_roundtrip():
    ok = Acknowledgement(success=True, result="AQ==")
    err = Acknowledgement(success=False, error="insufficient funds")
    assert Acknowledgement.decode(ok.encode()) == ok
    decoded = Acknowledgement.decode(err.encode())
    assert not decoded.success and "insufficient" in decoded.error
    assert ok.commitment() != err.commitment()
