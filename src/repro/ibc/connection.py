"""ICS-03 connections: the authenticated pairing of two light clients.

A connection is opened by a four-step handshake (INIT → TRYOPEN → OPEN on
both ends).  Each step after the first carries a proof that the counterparty
recorded the previous step, verified through the local light client — this
is what makes the pairing trustless.
"""

from __future__ import annotations

import enum
import json
from repro.errors import ConnectionError_
from repro.ibc import keys
from repro.sim.records import dataclass


class ConnectionState(enum.Enum):
    UNINITIALIZED = "UNINITIALIZED"
    INIT = "INIT"
    TRYOPEN = "TRYOPEN"
    OPEN = "OPEN"


@dataclass(frozen=True)
class ConnectionCounterparty:
    client_id: str
    connection_id: str = ""


@dataclass
class ConnectionEnd:
    """One chain's view of a connection."""

    connection_id: str
    state: ConnectionState
    client_id: str
    counterparty: ConnectionCounterparty
    versions: tuple[str, ...] = (keys.DEFAULT_IBC_VERSION,)
    delay_period: float = 0.0

    def encode(self) -> bytes:
        """Canonical encoding committed to the provable store."""
        return json.dumps(
            {
                "state": self.state.value,
                "client_id": self.client_id,
                "counterparty_client_id": self.counterparty.client_id,
                "counterparty_connection_id": self.counterparty.connection_id,
                "versions": list(self.versions),
                "delay_period": self.delay_period,
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def decode(cls, connection_id: str, raw: bytes) -> "ConnectionEnd":
        payload = json.loads(raw.decode())
        return cls(
            connection_id=connection_id,
            state=ConnectionState(payload["state"]),
            client_id=payload["client_id"],
            counterparty=ConnectionCounterparty(
                client_id=payload["counterparty_client_id"],
                connection_id=payload["counterparty_connection_id"],
            ),
            versions=tuple(payload["versions"]),
            delay_period=payload["delay_period"],
        )

    def expect_state(self, *allowed: ConnectionState) -> None:
        if self.state not in allowed:
            raise ConnectionError_(
                f"connection {self.connection_id} in state {self.state.value}, "
                f"expected one of {[s.value for s in allowed]}"
            )

    @property
    def is_open(self) -> bool:
        return self.state == ConnectionState.OPEN
