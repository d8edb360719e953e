"""ICS-04 channels: routes between modules over a connection.

Channels provide ordering, exactly-once delivery and permissioning for
packets.  ``ORDERED`` channels deliver packets strictly by sequence;
``UNORDERED`` channels (what the paper's experiments use) deliver in any
order and deduplicate via per-sequence receipts.
"""

from __future__ import annotations

import enum
import json

from repro.errors import ChannelError
from repro.sim.records import dataclass, record


class ChannelOrder(enum.Enum):
    ORDERED = "ORDER_ORDERED"
    UNORDERED = "ORDER_UNORDERED"


class ChannelState(enum.Enum):
    UNINITIALIZED = "UNINITIALIZED"
    INIT = "INIT"
    TRYOPEN = "TRYOPEN"
    OPEN = "OPEN"
    CLOSED = "CLOSED"


@dataclass(frozen=True)
class ChannelCounterparty:
    port_id: str
    channel_id: str = ""


@record
class ChannelEnd:
    """One chain's view of a channel: a value, so a handshake step stores
    a new end rather than changing the stored one."""

    port_id: str
    channel_id: str
    state: ChannelState
    ordering: ChannelOrder
    counterparty: ChannelCounterparty
    connection_hops: tuple[str, ...]
    version: str

    def encode(self) -> bytes:
        return json.dumps(
            {
                "state": self.state.value,
                "ordering": self.ordering.value,
                "counterparty_port_id": self.counterparty.port_id,
                "counterparty_channel_id": self.counterparty.channel_id,
                "connection_hops": list(self.connection_hops),
                "version": self.version,
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def decode(cls, port_id: str, channel_id: str, raw: bytes) -> "ChannelEnd":
        payload = json.loads(raw.decode())
        return cls(
            port_id=port_id,
            channel_id=channel_id,
            state=ChannelState(payload["state"]),
            ordering=ChannelOrder(payload["ordering"]),
            counterparty=ChannelCounterparty(
                port_id=payload["counterparty_port_id"],
                channel_id=payload["counterparty_channel_id"],
            ),
            connection_hops=tuple(payload["connection_hops"]),
            version=payload["version"],
        )

    def expect_state(self, *allowed: ChannelState) -> None:
        if self.state not in allowed:
            raise ChannelError(
                f"channel {self.port_id}/{self.channel_id} in state "
                f"{self.state.value}, expected one of {[s.value for s in allowed]}"
            )

    @property
    def is_open(self) -> bool:
        return self.state == ChannelState.OPEN

    @property
    def connection_id(self) -> str:
        if not self.connection_hops:
            raise ChannelError(
                f"channel {self.port_id}/{self.channel_id} has no connection hops"
            )
        return self.connection_hops[0]
