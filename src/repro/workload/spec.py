"""The ``workload`` config section: a declarative traffic description.

Schema v6 of :class:`~repro.framework.config.ExperimentConfig` nests this
section; when present, the workload driver switches from the paper's
fixed account pool (§III-D) to the generator-driven engine
(:class:`repro.workload.engine.WorkloadEngine`): a large Zipf-skewed
sender population, a configurable arrival process, a mixed
messages-per-transaction distribution, and optional adversarial traffic
(mempool spam floods and §IV-A gas-griefing transactions).
"""

from __future__ import annotations

from typing import Any

from repro.errors import WorkloadError, from_wire, to_wire
from repro.sim.monitor import ordered_sum
from repro.sim.records import dataclass

#: Arrival-process names understood by :func:`repro.workload.arrivals.build_arrivals`.
ARRIVAL_PROCESSES = ("uniform", "diurnal", "bursty")

#: Default mixed payload distribution: mostly small transactions with a
#: tail of full 100-message batches (the Hermes CLI maximum, §III-D).
DEFAULT_PAYLOAD_MIX = ((1, 0.6), (5, 0.25), (20, 0.1), (100, 0.05))


@dataclass(frozen=True)
class WorkloadSpec:
    """Wire-format description of a generated workload."""

    #: Distinct prospective sender accounts (bulk-created at genesis).
    population: int = 1000
    #: Zipf exponent for sender activity (rank r is drawn ∝ r^-s).
    zipf_s: float = 1.1
    #: Arrival process: "uniform" (Poisson), "diurnal" (sinusoidal rate),
    #: or "bursty" (two-state MMPP).
    arrival: str = "uniform"
    #: Diurnal modulation depth in [0, 1] and period in seconds.
    diurnal_depth: float = 0.6
    diurnal_period: float = 600.0
    #: Bursty/MMPP: burst-to-baseline rate ratio and mean phase lengths.
    burst_intensity: float = 8.0
    burst_on_seconds: float = 20.0
    burst_off_seconds: float = 120.0
    #: Weighted (msgs_per_tx, weight) pairs; drawn per transaction.
    payload_mix: tuple[tuple[int, float], ...] = DEFAULT_PAYLOAD_MIX
    #: Stale-sequence spam floods per second (0 disables), and the number
    #: of replayed transactions per flood tick.
    spam_rate: float = 0.0
    spam_burst: int = 8
    #: §IV-A gas-griefing transactions per second (0 disables): full
    #: 100-message transfers submitted with a short gas limit.
    griefing_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.population < 1:
            raise WorkloadError("workload.population must be >= 1")
        if self.zipf_s <= 0:
            raise WorkloadError("workload.zipf_s must be positive")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise WorkloadError(
                f"unknown arrival process {self.arrival!r} "
                f"(one of {', '.join(ARRIVAL_PROCESSES)})"
            )
        if not 0.0 <= self.diurnal_depth <= 1.0:
            raise WorkloadError("workload.diurnal_depth must be in [0, 1]")
        if self.diurnal_period <= 0:
            raise WorkloadError("workload.diurnal_period must be positive")
        if self.burst_intensity < 1.0:
            raise WorkloadError("workload.burst_intensity must be >= 1")
        if self.burst_on_seconds <= 0 or self.burst_off_seconds <= 0:
            raise WorkloadError("workload burst phase lengths must be positive")
        mix = tuple(
            (int(msgs), float(weight)) for msgs, weight in self.payload_mix
        )
        if not mix:
            raise WorkloadError("workload.payload_mix must not be empty")
        for msgs, weight in mix:
            if not 1 <= msgs <= 100:
                raise WorkloadError(
                    f"payload size {msgs} outside the 1..100 msgs/tx range"
                )
            if weight <= 0:
                raise WorkloadError("payload weights must be positive")
        object.__setattr__(self, "payload_mix", mix)
        if self.spam_rate < 0 or self.griefing_rate < 0:
            raise WorkloadError("adversarial rates must be >= 0")
        if self.spam_burst < 1:
            raise WorkloadError("workload.spam_burst must be >= 1")

    # ------------------------------------------------------------------

    def mean_payload(self) -> float:
        """Mean messages per transaction under the payload mix."""
        total = ordered_sum(weight for _msgs, weight in self.payload_mix)
        return ordered_sum(msgs * weight for msgs, weight in self.payload_mix) / total

    def tx_rate(self, input_rate: float) -> float:
        """Transaction arrivals per second for a *transfer*-per-second
        input rate: the config's ``input_rate`` keeps meaning messages per
        second, whatever the payload mix."""
        return input_rate / self.mean_payload()

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return to_wire(self)

    @classmethod
    def from_dict(cls, data: Any) -> "WorkloadSpec":
        return from_wire(cls, data, "workload section", defaults=True)
