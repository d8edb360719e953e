"""repro — reproduction of "Analyzing the Performance of the
Inter-Blockchain Communication Protocol" (DSN 2023).

The package simulates the paper's entire testbed — Tendermint consensus,
Cosmos-SDK chains, the IBC protocol and a Hermes-style relayer — as a
deterministic discrete-event simulation, and implements the paper's
cross-chain performance evaluation framework on top of it.

The stable top-level surface is ``__all__`` below: configure with
:class:`ExperimentConfig`, execute with :func:`run_experiment`, sweep a
parameter grid with :func:`sweep` (optionally in parallel: ``workers=N``
fans points across worker processes, ``cache_dir`` caches completed
points on disk).  Everything else is importable from the subpackages but
carries no stability promise.

Quickstart::

    import repro

    config = repro.ExperimentConfig(input_rate=100, measurement_blocks=20)
    report = repro.run_experiment(config)
    print(report.summary())

A parameter grid, fanned across two worker processes::

    points = repro.sweep(config, "input_rate", [20, 40, 60, 80],
                         "transfer_tfps", workers=2)

Or, from a shell (see ``python -m repro --help``)::

    python -m repro --rate 100 --blocks 20
"""

# calibration must load before framework: repro.framework.config imports
# `repro.calibration` through the partially-initialised `repro` package.
from repro.calibration import Calibration, DEFAULT_CALIBRATION

__version__ = "2.0.0"

from repro.errors import ReproError, SchemaError
from repro.faults import FaultSchedule
from repro.framework import (
    ExperimentConfig,
    ExperimentReport,
    FleetConfig,
    TopologySpec,
    TraceReport,
    WorkloadSpec,
    run_experiment,
    sweep,
)

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "ExperimentConfig",
    "ExperimentReport",
    "FaultSchedule",
    "FleetConfig",
    "ReproError",
    "SchemaError",
    "TopologySpec",
    "TraceReport",
    "WorkloadSpec",
    "__version__",
    "run_experiment",
    "sweep",
]
