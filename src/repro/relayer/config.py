"""Relayer configuration, mirroring the Hermes settings the paper uses."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RelayerConfig:
    """Settings for one relayer instance.

    ``clear_interval`` is Hermes's packet-clearing cadence in blocks; the
    paper's §V WebSocket experiment sets it to 0 (disabled), which is what
    leaves 81.8 % of packets stuck after a frame-size failure.  Calibrated
    timings, the per-transaction message limit and the gas price are not
    settings here: the relayer reads them from its chains' calibration.
    Nor are the fixed Hermes behaviours no experiment varies (gas
    multiplier, confirmation window, retry and resubscribe backoffs):
    they are constants of :mod:`repro.relayer.endpoint` and
    :mod:`repro.relayer.supervisor`.
    """

    name: str = "hermes"
    #: Packet clear interval in blocks (0 disables clearing).
    clear_interval: int = 100
    #: Concurrent in-flight packet-data pulls.  Hermes is effectively 1
    #: (and Tendermint's serial RPC would serialise more anyway); the
    #: parallel-RPC ablation raises both sides.
    pull_concurrency: int = 1
    #: Retries (on top of the first attempt) for transient RPC failures
    #: (timeout / overload / node-down), with capped exponential backoff.
    #: 0 disables retries — Hermes 1.0.0's effective behaviour for queries,
    #: and the default so baseline experiments are unchanged.
    rpc_retry_attempts: int = 0
    #: Re-open a WebSocket subscription when the connection drops (the
    #: fault-injection disconnect, *not* the §V frame-limit latch).
    resubscribe_on_disconnect: bool = True
