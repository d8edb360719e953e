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

    def consume(self, amount: int) -> None:
        self.consumed += amount
        if self.consumed > self.limit:
            raise OutOfGasError(limit=self.limit, used=self.consumed)

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.consumed)


#: Base gas and jitter band of the kinds without a calibrated figure:
#: handshake and administrative messages.
_FLAT_GAS = (60_000, 0.0)


class GasSchedule:
    """Per-message gas costs with calibrated jitter."""

    __slots__ = ("cal", "_rng", "_costs")

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
        c = self.cal
        #: kind -> (base gas, jitter band); other kinds cost ``_FLAT_GAS``.
        self._costs: dict[str, tuple[int, float]] = {
            "transfer": (c.gas_per_transfer_msg, cal.GAS_JITTER_TRANSFER),
            "recv_packet": (c.gas_per_recv_msg, cal.GAS_JITTER_RECV),
            "acknowledgement": (c.gas_per_ack_msg, cal.GAS_JITTER_ACK),
            "timeout": (c.gas_per_ack_msg, cal.GAS_JITTER_ACK),
            "update_client": (80_000, 0.0),
        }

    def gas_for_msg(self, kind: str) -> int:
        """Sampled execution gas for one message of the given kind."""
        base, band = self._costs.get(kind, _FLAT_GAS)
        if band <= 0:
            return base
        return int(base * (1.0 + self._rng.uniform(-band, band)))

    def charge(self, meter: GasMeter, kind: str, count: int = 1) -> None:
        """Bill ``count`` messages of ``kind`` to ``meter`` in one loop.

        Makes the draws of ``count`` :meth:`gas_for_msg` calls, in order,
        and adds each message's gas as :meth:`GasMeter.consume` would: the
        first message that takes the meter over its limit raises
        :class:`OutOfGasError` with the total up to and including it, and
        the messages after it draw nothing.  So billing a stretch of
        repeated messages at once moves the RNG stream and the meter
        exactly as billing them one at a time does.
        """
        base, band = self._costs.get(kind, _FLAT_GAS)
        # ``rng.uniform(-band, band)`` is ``lo + (hi - lo) * rng.random()``;
        # inlined, with the same operands, so each draw is bit-identical.
        lo = -band
        span = band - lo
        draw = self._rng.random
        consumed, limit = meter.consumed, meter.limit
        for _ in range(count):
            consumed += int(base * (1.0 + (lo + span * draw()))) if band > 0 else base
            if consumed > limit:
                meter.consumed = consumed
                raise OutOfGasError(limit=limit, used=consumed)
        meter.consumed = consumed

    def estimate_tx_gas(self, msg_kinds: list[str]) -> int:
        """Deterministic (jitter-free) estimate used for tx gas limits."""
        costs = self._costs
        total = self.cal.gas_tx_overhead
        for kind in msg_kinds:
            total += costs.get(kind, _FLAT_GAS)[0]
        return total
