"""Hermes-style IBC relayer: supervisor, workers, chain endpoints, CLI."""

from repro.relayer.cli import TransferSubmission, WorkloadCli
from repro.relayer.config import RelayerConfig
from repro.relayer.endpoint import ChainEndpoint, SubmittedTx
from repro.relayer.events import WorkBatch
from repro.relayer.fleet import Fleet, FleetConfig, FleetMember
from repro.relayer.handshake import HandshakeDriver
from repro.relayer.logging import LogRecord, RelayerLog, render_journal
from repro.relayer.relayer import Relayer
from repro.relayer.supervisor import Supervisor
from repro.relayer.worker import DirectionWorker, PathEnd, RelayPath

__all__ = [
    "ChainEndpoint",
    "DirectionWorker",
    "Fleet",
    "FleetConfig",
    "FleetMember",
    "HandshakeDriver",
    "LogRecord",
    "PathEnd",
    "Relayer",
    "RelayerConfig",
    "RelayerLog",
    "RelayPath",
    "SubmittedTx",
    "Supervisor",
    "TransferSubmission",
    "WorkBatch",
    "WorkloadCli",
    "render_journal",
]
