"""ICS-24 host requirements: canonical commitment paths and identifiers.

Every IBC commitment lives at a standardised path inside the host chain's
provable store, so counterparty light clients can verify state with merkle
proofs.  The path layout below follows ICS-24's key specification.
"""

from __future__ import annotations

import re

from repro.errors import IbcError

_IDENTIFIER_RE = re.compile(r"^[a-zA-Z0-9._+\-#\[\]<>]{2,64}$")

DEFAULT_IBC_VERSION = "1"
TRANSFER_PORT = "transfer"
ICS20_VERSION = "ics20-1"


def validate_identifier(identifier: str, kind: str) -> str:
    """Validate a client/connection/channel/port identifier per ICS-24."""
    if not _IDENTIFIER_RE.match(identifier):
        raise IbcError(f"invalid {kind} identifier {identifier!r}")
    return identifier


def client_id(index: int) -> str:
    return f"07-tendermint-{index}"


def connection_id(index: int) -> str:
    return f"connection-{index}"


def channel_id(index: int) -> str:
    return f"channel-{index}"


# -- store paths (ICS-24 §Path space) ----------------------------------------


def client_state_path(client: str) -> bytes:
    return f"clients/{client}/clientState".encode()


def consensus_state_path(client: str, height: int) -> bytes:
    return f"clients/{client}/consensusStates/{height}".encode()


def connection_path(connection: str) -> bytes:
    return f"connections/{connection}".encode()


def channel_path(port: str, channel: str) -> bytes:
    return f"channelEnds/ports/{port}/channels/{channel}".encode()


def next_sequence_recv_path(port: str, channel: str) -> bytes:
    """The receive counter of an ORDERED channel, which proves (non-)receipt
    there: ordered channels write no per-packet receipts."""
    return f"nextSequenceRecv/ports/{port}/channels/{channel}".encode()


def packet_commitment_path(port: str, channel: str, sequence: int) -> bytes:
    return (
        f"commitments/ports/{port}/channels/{channel}/sequences/{sequence}".encode()
    )


def packet_receipt_path(port: str, channel: str, sequence: int) -> bytes:
    return f"receipts/ports/{port}/channels/{channel}/sequences/{sequence}".encode()


def packet_acknowledgement_path(port: str, channel: str, sequence: int) -> bytes:
    return f"acks/ports/{port}/channels/{channel}/sequences/{sequence}".encode()
