"""Gas metering.

Message gas figures are calibrated to the paper's measurements: a 100-message
transaction consumes on average 3 669 161 gas for transfers, 7 238 699 for
receives and 3 107 462 for acknowledgements, varying by at most 1 %, 4.1 %
and 7.6 % respectively.  The per-message draw reproduces both the averages
and the variance bands.
"""

from __future__ import annotations

import random
from typing import Optional

from repro import calibration as cal
from repro.errors import OutOfGasError
from repro.sim.records import dataclass
from repro.sim.rng import RngRegistry


@dataclass(slots=True)
class GasMeter:
    """Tracks gas consumption for one transaction execution."""

    limit: int
    consumed: int = 0

    def consume(self, amount: int, descriptor: str = "") -> None:
        self.consumed += amount
        if self.consumed > self.limit:
            raise OutOfGasError(limit=self.limit, used=self.consumed)

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.consumed)


class GasSchedule:
    """Per-message gas costs with calibrated jitter."""

    __slots__ = ("cal", "_rng")

    def __init__(
        self,
        calibration: Optional[cal.Calibration] = None,
        rng: Optional[random.Random] = None,
    ):
        self.cal = calibration or cal.DEFAULT_CALIBRATION
        # Experiments inject a stream from the testbed's RngRegistry; a
        # default-constructed schedule still derives its jitter through the
        # registry so standalone uses replay deterministically too.
        if rng is None:
            rng = RngRegistry(0).stream("gas-schedule/default")
        self._rng = rng

    def _jittered(self, base: int, band: float) -> int:
        if band <= 0:
            return base
        return int(base * (1.0 + self._rng.uniform(-band, band)))

    def gas_for_msg(self, kind: str) -> int:
        """Sampled execution gas for one message of the given kind."""
        if kind == "transfer":
            return self._jittered(self.cal.gas_per_transfer_msg, cal.GAS_JITTER_TRANSFER)
        if kind == "recv_packet":
            return self._jittered(self.cal.gas_per_recv_msg, cal.GAS_JITTER_RECV)
        if kind in ("acknowledgement", "timeout"):
            return self._jittered(self.cal.gas_per_ack_msg, cal.GAS_JITTER_ACK)
        if kind == "update_client":
            return 80_000
        # Handshake and administrative messages.
        return 60_000

    def estimate_tx_gas(self, msg_kinds: list[str]) -> int:
        """Deterministic (jitter-free) estimate used for tx gas limits."""
        total = self.cal.gas_tx_overhead
        for kind in msg_kinds:
            if kind == "transfer":
                total += self.cal.gas_per_transfer_msg
            elif kind == "recv_packet":
                total += self.cal.gas_per_recv_msg
            elif kind in ("acknowledgement", "timeout"):
                total += self.cal.gas_per_ack_msg
            elif kind == "update_client":
                total += 80_000
            else:
                total += 60_000
        return total
