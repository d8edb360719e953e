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

import functools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Calibration, DEFAULT_CALIBRATION, SchemaError
from repro.errors import WorkloadError
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
    TopologySpec,
    WorkloadSpec,
    run_experiment,
)
from repro.sim.network import LinkSpec

FAULTS = FaultSchedule(
    (
        NodeCrash("machine-1", at=6.0, duration=12.0),
        RpcBrownout("machine-0", at=4.0, duration=10.0, drop_probability=0.3),
        WsDisconnect("machine-0", at=18.0),
        LinkDegradation(
            "machine-0", "machine-1",
            at=2.0, duration=15.0, latency=0.3, jitter=0.05,
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


def test_link_degradation_loss_is_not_a_field():
    """A link drops nothing, so a schedule that asks for loss is refused at
    the boundary rather than run as if it had been applied."""
    wire = FAULTS.to_dict()
    link = next(f for f in wire["faults"] if f["kind"] == "link_degradation")
    link["loss"] = 0.05
    with pytest.raises(SchemaError, match="loss"):
        FaultSchedule.from_dict(wire)
    with pytest.raises(TypeError):
        LinkSpec(latency=0.1, loss=0.05)


# -- calibration ------------------------------------------------------------


def test_calibration_round_trip():
    calibration = DEFAULT_CALIBRATION.with_overrides(rpc_workers=4)
    assert Calibration.from_dict(calibration.to_dict()) == calibration


def test_calibration_rejects_unknown_keys():
    wire = DEFAULT_CALIBRATION.to_dict()
    wire["rcp_workers"] = 4
    with pytest.raises(SchemaError, match="rcp_workers"):
        Calibration.from_dict(wire)


@pytest.mark.parametrize(
    "key, value, parameter",
    [
        ("min_block_interval", 2.0, "block_interval"),
        ("max_msgs_per_tx", 50, "msgs_per_tx"),
    ],
)
def test_calibration_never_takes_a_paper_parameter(key, value, parameter):
    """The run's block interval and message limit are the tool's
    ``block_interval``/``msgs_per_tx`` parameters.  Setting them under
    ``calibration`` instead — in a document or in code — is refused, not
    silently overwritten by the parameter's value."""
    with pytest.raises(SchemaError, match=key):
        ExperimentConfig.from_dict({"calibration": {key: value}})
    with pytest.raises(WorkloadError, match=parameter):
        ExperimentConfig(
            calibration=DEFAULT_CALIBRATION.with_overrides(**{key: value})
        )
    config = ExperimentConfig(**{parameter: value})
    assert getattr(config.resolved_calibration, key) == value


# -- ExperimentReport -------------------------------------------------------


@pytest.fixture(scope="module")
def fault_report() -> ExperimentReport:
    """One real run covering timelines, faults and completion curves."""
    return run_experiment(full_config())


def test_report_schema_version_in_document(fault_report):
    document = fault_report.to_dict()
    assert document["schema_version"] == ExperimentReport.SCHEMA_VERSION == 7
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


@pytest.mark.parametrize("version", [2, 3, 4, 5, 6])
def test_report_rejects_older_schema_versions(fault_report, version):
    """Only the current schema loads; documents from the pre-trace (2),
    pre-topology (3), pre-fleet (4), pre-workload-engine (5) and
    pre-channel-policy (6) eras are refused with an error naming what
    this library reads."""
    document = fault_report.to_dict()
    document["schema_version"] = version
    with pytest.raises(SchemaError, match="reads version 7"):
        ExperimentReport.from_dict(document)


# -- the nested relayer config section ---------------------------------------


def test_nested_relayer_section_round_trips():
    config = ExperimentConfig(
        num_relayers=2,
        relayer=FleetConfig(policy="leader", rpc_retry_attempts=2),
    )
    wire = config.to_dict()
    assert wire["relayer"] == {
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


@pytest.mark.parametrize(
    "document, key",
    [
        ({"num_relayers": 2, "num_channels": 2}, "num_channels"),
        ({"proof_mode": "stub"}, "proof_mode"),
        ({"AUTO_STUB_THRESHOLD": 0}, "AUTO_STUB_THRESHOLD"),
        ({"num_relayers": 2, "relayer": {"count": 2}}, "count"),
    ],
    ids=["num_channels", "proof_mode", "AUTO_STUB_THRESHOLD", "relayer.count"],
)
def test_removed_config_knobs_rejected(document, key):
    """Knobs the config no longer has are unknown keys: the fleet size is
    ``num_relayers``, per-relayer channels are the ``channel`` policy and
    the proof mode follows from the input size alone."""
    with pytest.raises(SchemaError, match=key):
        ExperimentConfig.from_dict(document)


def test_config_surface_size():
    wire = ExperimentConfig().to_dict()
    assert len(wire) == 26
    assert list(wire["relayer"]) == [
        "policy", "rpc_retry_attempts", "resubscribe_on_disconnect"
    ]


def test_relayer_section_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="polciy"):
        ExperimentConfig.from_dict({"relayer": {"polciy": "shard"}})


# -- the workload engine's population/frames sections -----------------------


def test_population_and_frames_sections_round_trip():
    """An engine-mode run carries the population/frames sections and they
    survive the round trip exactly."""
    report = run_experiment(
        ExperimentConfig(
            input_rate=20,
            measurement_blocks=2,
            seed=11,
            workload=WorkloadSpec(population=40),
        )
    )
    assert report.population is not None
    assert report.population.population == 40
    assert report.frames is not None
    assert report.frames.limit_bytes > 0
    clone = ExperimentReport.from_json(report.to_json())
    assert clone.population == report.population
    assert clone.frames == report.frames


def test_fleet_section_round_trips(fault_report):
    """The default single-relayer run carries a K=1 fleet row that
    survives the round trip exactly."""
    assert fault_report.fleet is not None
    (row,) = fault_report.fleet
    assert row.count == 1
    assert row.policy == "none"
    clone = ExperimentReport.from_json(fault_report.to_json())
    assert clone.fleet == fault_report.fleet


# -- every section validates its own shape -----------------------------------


@functools.cache
def rich_documents() -> tuple[str, str]:
    """Two report documents that between them carry every optional section
    and every nested config structure (two, because the workload engine and
    an explicit topology exclude each other): an engine-mode run with a
    fault schedule, an uncoordinated two-relayer fleet and lifecycle
    tracing (population/frames), and a leader fleet on an explicit topology
    whose leader's host crashes (one handoff) under a calibration override."""
    engine = run_experiment(
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
    assert engine.faults.recovery_latency is not None
    assert engine.fleet and engine.trace.completed and engine.population
    failover = run_experiment(
        ExperimentConfig(
            total_transfers=40,
            measurement_blocks=3,
            seed=9,
            run_to_completion=True,
            num_relayers=2,
            relayer=FleetConfig(policy="leader", rpc_retry_attempts=3),
            clear_interval=2,
            faults=FaultSchedule((NodeCrash("machine-0", at=8.0, duration=30.0),)),
            topology=TopologySpec.pair(),
            calibration=DEFAULT_CALIBRATION.with_overrides(rpc_workers=2),
        )
    )
    assert failover.fleet[0].leader.handoff_count == 1
    return engine.to_json(), failover.to_json()


#: Where the document keeps a keyed shape of its own: the top level, each
#: section class (with the dataclasses nested inside them), the sections
#: restated from the window and the config tree.
SECTION_PATHS = [
    (),
    ("submission",),
    ("window",),
    ("gas",),
    ("rpc",),
    ("timeline",),
    ("timeline", "steps", 0),
    ("faults",),
    ("faults", "windows", 0),
    ("faults", "recovery_latency"),
    ("trace",),
    ("throughput",),
    ("completion",),
    ("counts",),
    ("config",),
    ("config", "relayer"),
    ("config", "workload"),
    ("config", "topology"),
    ("config", "calibration"),
    ("config", "faults", "faults", 0),
    ("fleet", 0),
    ("fleet", 0, "members", 0),
    ("fleet", 0, "leader"),
    ("population",),
    ("population", "mempool"),
    ("frames",),
]

#: The config tree is the one partial document: a key whose field has a
#: default may be absent and then reads as that default (every other key,
#: and every key of a report section, is required).
CONFIG_DEFAULTS = {
    ("config",): ExperimentConfig().to_dict(),
    ("config", "relayer"): FleetConfig().to_dict(),
    ("config", "workload"): WorkloadSpec().to_dict(),
    ("config", "topology"): {"name": "custom"},
    ("config", "calibration"): DEFAULT_CALIBRATION.to_dict(),
    ("config", "faults", "faults", 0): {"drop_probability": 0.5},
}


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


def _document_with(path) -> str:
    """The first rich document in which ``path`` leads to a keyed section."""
    for text in rich_documents():
        try:
            if isinstance(_section(json.loads(text), path), dict):
                return text
        except (KeyError, IndexError, TypeError):
            continue
    raise AssertionError(f"no rich document has a section at {path}")


@pytest.mark.parametrize("kind", ["remove", "add", "swap-type"])
@pytest.mark.parametrize(
    "path", SECTION_PATHS, ids=lambda p: ".".join(map(str, p)) or "document"
)
def test_every_section_rejects_a_mutated_shape(path, kind):
    """Remove a key, add a key or swap a value's type anywhere a section
    defines a shape: the loader raises SchemaError — never KeyError or
    TypeError (any other exception fails the test as an error).  The one
    legal mutation is removing a defaulted key of the config tree."""
    pristine = _document_with(path)
    keys = ["bogus"] if kind == "add" else list(_section(json.loads(pristine), path))
    assert keys
    defaults = CONFIG_DEFAULTS.get(path, {}) if kind == "remove" else {}
    for key in keys:
        document = json.loads(pristine)
        section = _section(document, path)
        if kind == "remove":
            del section[key]
        elif kind == "add":
            section[key] = 1
        else:
            section[key] = _wrong_type(section[key])
        where = f"{kind} {'.'.join(map(str, path))}.{key}"
        try:
            loaded = ExperimentReport.from_dict(document)
        except SchemaError:
            assert key not in defaults, f"{where}: default not taken"
            continue
        assert key in defaults, f"{where}: document loaded"
        assert _section(loaded.to_dict(), path)[key] == defaults[key], where


# -- no loader raises anything but SchemaError --------------------------------

LOADERS = {
    "config": ExperimentConfig.from_dict,
    "faults": FaultSchedule.from_dict,
    "workload": WorkloadSpec.from_dict,
    "calibration": Calibration.from_dict,
    "topology": TopologySpec.from_dict,
    "report": ExperimentReport.from_dict,
}


def _pristine(loader: str):
    """A valid document for ``loader``, cut from the rich documents."""
    engine, failover = (json.loads(text) for text in rich_documents())
    return {
        "config": failover["config"],
        "faults": engine["config"]["faults"],
        "workload": engine["config"]["workload"],
        "calibration": failover["config"]["calibration"],
        "topology": failover["config"]["topology"],
        "report": failover,
    }[loader]


def _load_mutated(loader, path, junk):
    """Load ``loader``'s pristine document with ``junk`` put at ``path``
    (``()`` = junk is the whole document); returns the SchemaError, or
    None when the document loaded.  Any other exception propagates."""
    document = junk
    if path:
        document = _pristine(loader)
        _section(document, path[:-1])[path[-1]] = junk
    try:
        LOADERS[loader](document)
    except SchemaError as error:
        return error
    return None


#: Documents the hand-written loaders mishandled (TypeError, KeyError, a
#: silent load, or a report that loaded and then broke ``summary()``), with
#: the path their SchemaError must name.
BAD_DOCUMENTS = [
    ("config", (), {"input_rate": "fast"}, "config.input_rate"),
    (
        "config",
        (),
        {"relayer": {"rpc_retry_attempts": "2"}},
        "config.relayer.rpc_retry_attempts",
    ),
    ("config", (), {"workload": {"payload_mix": 5}}, "config.workload.payload_mix"),
    (
        "config",
        (),
        {"faults": {"faults": [{"kind": "node_crash"}]}},
        "config.faults.faults[0]",
    ),
    ("config", (), {"topology": {}}, "config.topology"),
    ("config", (), {"seed": 1.5}, "config.seed"),
    ("config", (), {"tracing": "yes"}, "config.tracing"),
    (
        "config",
        (),
        {"calibration": {"rpc_workers": "many"}},
        "config.calibration.rpc_workers",
    ),
    ("config", ("topology", "nmae"), "line", "nmae in config.topology"),
    # Calibration ranges: each once crashed mid-run or ran nonsense.
    (
        "config",
        (),
        {"calibration": {"rpc_overload_client_threshold": 0}},
        "config.calibration: rpc_overload_client_threshold must be >= 1",
    ),
    (
        "calibration",
        (),
        {"rpc_overload_scale": 0},
        "calibration: rpc_overload_scale must be > 0",
    ),
    ("calibration", (), {"rpc_workers": 0}, "calibration: rpc_workers must be >= 1"),
    (
        "calibration",
        (),
        {"mempool_max_txs": 0},
        "calibration: mempool_max_txs must be >= 1",
    ),
    (
        "calibration",
        (),
        {"rpc_overload_max_shed": 1.5},
        "calibration: rpc_overload_max_shed must be <= 1",
    ),
    (
        "calibration",
        (),
        {"rpc_overload_max_shed": -0.5},
        "calibration: rpc_overload_max_shed must be >= 0",
    ),
    (
        "calibration",
        (),
        {"relayer_build_seconds_per_msg": -1.0},
        "calibration: relayer_build_seconds_per_msg must be >= 0",
    ),
    (
        "calibration",
        (),
        {"event_bytes": {"send_packet": 400}},
        "calibration: event_bytes lacks recv_packet",
    ),
    ("report", ("config", "seed"), "7", "config.seed"),
    ("report", ("fleet",), [{"junk": 1}], "fleet section[0]"),
]


@pytest.mark.parametrize(
    "loader, path, junk, names",
    BAD_DOCUMENTS,
    ids=[f"{case[0]}:{case[3]}" for case in BAD_DOCUMENTS],
)
def test_bad_document_raises_schema_error_naming_the_path(loader, path, junk, names):
    error = _load_mutated(loader, path, junk)
    assert error is not None and names in str(error)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@st.composite
def mutations(draw):
    """A loader, a path to an existing value of its pristine document
    (or ``()``), and an arbitrary JSON value to put there."""
    loader = draw(st.sampled_from(sorted(LOADERS)))
    node, path = _pristine(loader), []
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        path.append(draw(st.sampled_from(keys)))
        node = node[path[-1]]
    return loader, tuple(path), draw(JSON_VALUES)


def _with_bad_documents(test):
    for loader, path, junk, _names in BAD_DOCUMENTS:
        test = example((loader, path, junk))(test)
    return test


@_with_bad_documents
@settings(max_examples=400, deadline=None)
@given(mutations())
def test_loaders_raise_only_schema_error(mutation):
    """Arbitrary JSON — as the whole document or in place of any value of
    a valid one — either loads or raises SchemaError, nothing else."""
    _load_mutated(*mutation)
