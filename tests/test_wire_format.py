"""The serializable experiment API: exact round trips, strict loading.

Configs and reports are the parallel executor's wire format; these tests
pin the two guarantees everything else builds on:

* ``to_dict``/``from_dict`` (and ``to_json``/``from_json``) are exact
  inverses — nested fault schedules and calibration overrides included —
  and re-serialization is *byte*-stable.
* Loaders are strict: unknown keys and foreign schema versions raise
  :class:`repro.SchemaError` with an error message naming the offender,
  so a typo'd parameter can never silently run a default experiment.
"""

import json

import pytest

from repro import Calibration, DEFAULT_CALIBRATION, SchemaError
from repro.faults import (
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    RpcBrownout,
    WsDisconnect,
    fault_from_dict,
    fault_to_dict,
)
from repro.framework import (
    ExperimentConfig,
    ExperimentReport,
    FleetConfig,
    run_experiment,
)

FAULTS = FaultSchedule(
    (
        NodeCrash("machine-1", at=6.0, duration=12.0),
        RpcBrownout("machine-0", at=4.0, duration=10.0, drop_probability=0.3),
        WsDisconnect("machine-0", at=18.0),
        LinkDegradation(
            "machine-0", "machine-1",
            at=2.0, duration=15.0, latency=0.3, jitter=0.05, loss=0.05,
        ),
    )
)


def full_config() -> ExperimentConfig:
    """A config exercising every nested structure the wire format carries."""
    return ExperimentConfig(
        input_rate=10,
        measurement_blocks=3,
        seed=23,
        drain_seconds=30.0,
        relayer=FleetConfig(rpc_retry_attempts=3),
        clear_interval=2,
        faults=FAULTS,
        calibration=DEFAULT_CALIBRATION.with_overrides(rpc_workers=2),
    )


# -- ExperimentConfig -------------------------------------------------------


def test_config_round_trip_exact():
    config = full_config()
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone == config
    assert clone.faults == FAULTS
    assert clone.calibration.rpc_workers == 2


def test_config_dict_survives_json():
    config = full_config()
    wire = json.dumps(config.to_dict())
    assert ExperimentConfig.from_dict(json.loads(wire)) == config


def test_config_missing_keys_take_defaults():
    config = ExperimentConfig.from_dict({"input_rate": 42.0})
    assert config.input_rate == 42.0
    assert config.measurement_blocks == ExperimentConfig().measurement_blocks


def test_config_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="input_rtae"):
        ExperimentConfig.from_dict({"input_rtae": 42.0})


def test_config_rejects_non_dict():
    with pytest.raises(SchemaError, match="must be a dict"):
        ExperimentConfig.from_dict([1, 2, 3])


# -- fault schedules --------------------------------------------------------


@pytest.mark.parametrize("fault", FAULTS.faults)
def test_fault_specs_round_trip(fault):
    assert fault_from_dict(fault_to_dict(fault)) == fault


def test_fault_schedule_round_trip():
    assert FaultSchedule.from_dict(FAULTS.to_dict()) == FAULTS


def test_fault_unknown_kind_rejected():
    with pytest.raises(SchemaError, match="disk_full"):
        fault_from_dict({"kind": "disk_full", "host": "machine-0", "at": 1.0})


def test_fault_unknown_key_rejected():
    spec = fault_to_dict(NodeCrash("machine-0", at=1.0, duration=2.0))
    spec["durration"] = 3.0
    with pytest.raises(SchemaError, match="durration"):
        fault_from_dict(spec)


# -- calibration ------------------------------------------------------------


def test_calibration_round_trip():
    calibration = DEFAULT_CALIBRATION.with_overrides(rpc_workers=4)
    assert Calibration.from_dict(calibration.to_dict()) == calibration


def test_calibration_rejects_unknown_keys():
    wire = DEFAULT_CALIBRATION.to_dict()
    wire["rcp_workers"] = 4
    with pytest.raises(SchemaError, match="rcp_workers"):
        Calibration.from_dict(wire)


# -- ExperimentReport -------------------------------------------------------


@pytest.fixture(scope="module")
def fault_report() -> ExperimentReport:
    """One real run covering timelines, faults and completion curves."""
    return run_experiment(full_config())


def test_report_schema_version_in_document(fault_report):
    document = fault_report.to_dict()
    assert document["schema_version"] == ExperimentReport.SCHEMA_VERSION == 6
    # schema_version leads the dump so humans see it first.
    assert next(iter(document)) == "schema_version"


def test_report_round_trip_byte_stable(fault_report):
    """The golden stability property: load then dump reproduces the exact
    bytes, including every derived section."""
    wire = fault_report.to_json()
    assert ExperimentReport.from_json(wire).to_json() == wire


def test_report_round_trip_byte_stable_chain_only():
    """Chain-only run: the optional sections (faults, completion latency)
    serialize as null and still round-trip byte-for-byte."""
    report = run_experiment(
        ExperimentConfig(input_rate=20, measurement_blocks=2, chain_only=True)
    )
    wire = report.to_json()
    assert report.faults is None
    assert ExperimentReport.from_json(wire).to_json() == wire


def test_report_reconstructs_structures(fault_report):
    clone = ExperimentReport.from_json(fault_report.to_json())
    assert clone.config == fault_report.config
    assert clone.window == fault_report.window
    assert clone.completion_curve == fault_report.completion_curve
    assert clone.timeline.phase_seconds == fault_report.timeline.phase_seconds
    assert clone.faults.windows == fault_report.faults.windows
    # The journal is host-side only: never serialized, absent after load.
    assert clone.journal is None


def test_report_rejects_foreign_schema_version(fault_report):
    document = fault_report.to_dict()
    document["schema_version"] = 1
    with pytest.raises(SchemaError, match="schema_version 1"):
        ExperimentReport.from_dict(document)


def test_report_rejects_unknown_keys(fault_report):
    document = fault_report.to_dict()
    document["extra_section"] = {}
    with pytest.raises(SchemaError, match="extra_section"):
        ExperimentReport.from_dict(document)


def test_report_rejects_missing_keys(fault_report):
    document = fault_report.to_dict()
    del document["window"]
    with pytest.raises(SchemaError, match="missing key.*window"):
        ExperimentReport.from_dict(document)


def test_report_rejects_invalid_json():
    with pytest.raises(SchemaError, match="not valid JSON"):
        ExperimentReport.from_json("{truncated")


# -- the trace section -------------------------------------------------------


@pytest.fixture(scope="module")
def traced_report() -> ExperimentReport:
    """A small run with lifecycle tracing enabled."""
    config = ExperimentConfig(
        input_rate=20, measurement_blocks=3, seed=7, tracing=True,
        drain_seconds=20.0,
    )
    return run_experiment(config)


def test_traced_report_round_trips_byte_stable(traced_report):
    assert traced_report.trace is not None
    assert traced_report.trace.completed > 0
    wire = traced_report.to_json()
    assert ExperimentReport.from_json(wire).to_json() == wire


def test_trace_section_reconstructs_exactly(traced_report):
    clone = ExperimentReport.from_json(traced_report.to_json())
    assert clone.trace == traced_report.trace
    assert clone.trace.stage_seconds == traced_report.trace.stage_seconds
    # The tracer itself is host-side only, like the journal.
    assert clone.tracer is None


def test_trace_section_rejects_unknown_keys(traced_report):
    document = traced_report.to_dict()
    document["trace"]["pull_shrae"] = 0.5
    with pytest.raises(SchemaError, match="pull_shrae"):
        ExperimentReport.from_dict(document)


def test_trace_section_rejects_missing_keys(traced_report):
    document = traced_report.to_dict()
    del document["trace"]["wall_seconds"]
    with pytest.raises(SchemaError, match="wall_seconds"):
        ExperimentReport.from_dict(document)


def test_untraced_report_serializes_null_trace(fault_report):
    """Tracing off: the section is null on the wire, None after load."""
    document = fault_report.to_dict()
    assert document["trace"] is None
    assert ExperimentReport.from_dict(document).trace is None


@pytest.mark.parametrize("version", [2, 3, 4])
def test_report_rejects_older_schema_versions(fault_report, version):
    """Only the current schema and the one before it load; documents from
    the pre-trace (2), pre-topology (3) and pre-fleet (4) eras are refused
    with an error naming what this library reads."""
    document = fault_report.to_dict()
    document["schema_version"] = version
    with pytest.raises(SchemaError, match="reads versions 5 and 6"):
        ExperimentReport.from_dict(document)


# -- the nested relayer config section ---------------------------------------


def test_nested_relayer_section_round_trips():
    config = ExperimentConfig(
        num_relayers=2,
        relayer=FleetConfig(policy="leader", rpc_retry_attempts=2),
    )
    wire = config.to_dict()
    assert wire["relayer"] == {
        "count": None,
        "policy": "leader",
        "rpc_retry_attempts": 2,
        "resubscribe_on_disconnect": True,
    }
    assert ExperimentConfig.from_dict(wire) == config


@pytest.mark.parametrize(
    "key", ["coordinate_relayers", "rpc_retry_attempts", "resubscribe_on_disconnect"]
)
def test_v4_flat_relayer_keys_rejected(key):
    """Pre-1.2 config documents spelled the relayer knobs as flat keys;
    they are unknown keys now, not silently migrated."""
    with pytest.raises(SchemaError, match=key):
        ExperimentConfig.from_dict({"num_relayers": 2, key: 1})


def test_mixing_flat_and_nested_relayer_keys_rejected():
    with pytest.raises(SchemaError, match="coordinate_relayers"):
        ExperimentConfig.from_dict(
            {
                "coordinate_relayers": True,
                "relayer": {"policy": "shard"},
            }
        )


def test_relayer_section_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="polciy"):
        ExperimentConfig.from_dict({"relayer": {"polciy": "shard"}})


# -- v5 -> v6 migration (workload engine: population/frames sections) ---------


def test_v5_report_document_still_loads(fault_report):
    """Reports written before the workload engine (schema 5) load with the
    population/frames sections absent, the submission split defaulted to
    zero, and re-serialize as the current schema."""
    document = fault_report.to_dict()
    document["schema_version"] = 5
    del document["population"]
    del document["frames"]
    for key in ("failed", "unconfirmed", "deferred"):
        del document["submission"][key]
    clone = ExperimentReport.from_dict(document)
    assert clone.population is None
    assert clone.frames is None
    assert clone.workload.failed_transfers == 0
    assert clone.workload.unconfirmed_transfers == 0
    assert clone.workload.deferred_transfers == 0
    assert clone.window == fault_report.window
    assert clone.to_dict()["schema_version"] == 6


def test_v5_document_rejects_population_key(fault_report):
    """A document claiming schema 5 must not smuggle in the v6 sections."""
    document = fault_report.to_dict()
    document["schema_version"] = 5
    del document["frames"]
    with pytest.raises(SchemaError, match="population"):
        ExperimentReport.from_dict(document)


def test_population_and_frames_sections_round_trip():
    """An engine-mode run carries the population/frames sections and they
    survive the round trip exactly."""
    from repro.framework import WorkloadSpec

    report = run_experiment(
        ExperimentConfig(
            input_rate=20,
            measurement_blocks=2,
            seed=11,
            workload=WorkloadSpec(population=40),
        )
    )
    assert report.population is not None
    assert report.population["population"] == 40
    assert report.frames is not None
    assert report.frames["limit_bytes"] > 0
    clone = ExperimentReport.from_json(report.to_json())
    assert clone.population == report.population
    assert clone.frames == report.frames


def test_fleet_section_round_trips(fault_report):
    """The default single-relayer run carries a K=1 fleet row that
    survives the round trip exactly."""
    assert fault_report.fleet is not None
    (row,) = fault_report.fleet
    assert row["count"] == 1
    assert row["policy"] == "none"
    clone = ExperimentReport.from_json(fault_report.to_json())
    assert clone.fleet == fault_report.fleet


# -- every section validates its own shape -----------------------------------


@pytest.fixture(scope="module")
def rich_report() -> ExperimentReport:
    """One run whose report carries every optional section: a fault
    schedule, a two-relayer fleet, lifecycle tracing and the workload
    engine (population/frames)."""
    from repro.framework import WorkloadSpec

    report = run_experiment(
        ExperimentConfig(
            input_rate=20,
            measurement_blocks=3,
            seed=7,
            drain_seconds=30.0,
            num_relayers=2,
            relayer=FleetConfig(rpc_retry_attempts=3),
            clear_interval=2,
            faults=FaultSchedule(
                (RpcBrownout("machine-0", at=4.0, duration=6.0, drop_probability=0.3),)
            ),
            tracing=True,
            workload=WorkloadSpec(population=40),
        )
    )
    assert report.faults.recovery_latency is not None
    assert report.fleet and report.trace.completed and report.population
    return report


#: Where the document keeps a keyed shape of its own: the top level, each
#: class-backed section (with the dataclasses nested inside them) and the
#: sections restated from the window.  ``config`` is left out on purpose —
#: its missing keys take defaults by design (see the config tests above) —
#: and the dict-valued fleet/population/frames sections are covered as
#: top-level values.
SECTION_PATHS = [
    (),
    ("submission",),
    ("window",),
    ("gas",),
    ("rpc",),
    ("timeline",),
    ("timeline", "steps", 0),
    ("faults",),
    ("faults", "recovery_latency"),
    ("trace",),
    ("throughput",),
    ("completion",),
    ("counts",),
]


def _wrong_type(value):
    if isinstance(value, dict):
        return list(value)
    if isinstance(value, list):
        return {"was": "a list"}
    return [value]


def _section(document, path):
    for step in path:
        document = document[step]
    return document


@pytest.mark.parametrize("kind", ["remove", "add", "swap-type"])
@pytest.mark.parametrize(
    "path", SECTION_PATHS, ids=lambda p: ".".join(map(str, p)) or "document"
)
def test_every_section_rejects_a_mutated_shape(rich_report, path, kind):
    """Remove a key, add a key or swap a value's type anywhere a section
    defines a shape: the loader raises SchemaError — never KeyError or
    TypeError (any other exception fails the test as an error)."""
    pristine = rich_report.to_json()
    keys = ["bogus"] if kind == "add" else list(_section(json.loads(pristine), path))
    assert keys
    for key in keys:
        document = json.loads(pristine)
        section = _section(document, path)
        if kind == "remove":
            del section[key]
        elif kind == "add":
            section[key] = 1
        else:
            section[key] = _wrong_type(section[key])
        try:
            ExperimentReport.from_dict(document)
        except SchemaError:
            continue
        pytest.fail(f"{kind} {'.'.join(map(str, path))}.{key}: document loaded")
