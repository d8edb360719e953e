"""Every calibration field is live: perturbing it moves the golden run.

A field that no component reads looks like a tunable but is not one — a
sensitivity sweep over it would report a flat band that is an artefact of
the code.  :data:`PERTURBATIONS` holds one row per field of
:class:`~repro.calibration.Calibration`, and the test iterates the
dataclass's fields, so a field added without a row fails here.  A field
no row can move is deleted, not exempted.
"""

import dataclasses
import json

import pytest

from repro.calibration import DEFAULT_CALIBRATION, Calibration
from repro.framework.connectors import CrossChainDataConnector
from repro.framework.runner import _ExperimentEngine, _reset_run_caches
from repro.lint.scenarios import lookup

#: The two fields an experiment fills from its own parameters.
PAPER_PARAMETERS = {
    "max_msgs_per_tx": "msgs_per_tx",
    "min_block_interval": "block_interval",
}

#: Puts the golden run's clients over the connection-pressure threshold,
#: so the other overload fields bind.
OVERLOADED = {"rpc_overload_client_threshold": 1}

#: field -> (companions, perturbed value).  Companions are set on both
#: sides of the comparison: they make the field bind without the row
#: crediting their own effect to it.
PERTURBATIONS = {
    "max_msgs_per_tx": ({}, 5),
    "min_block_interval": ({}, 3.0),
    "consensus_base_latency": ({}, 1.0),
    "deliver_tx_seconds_per_msg": ({}, 0.05),
    "indexing_seconds_per_msg_sq": ({}, 1e-3),
    "block_overhead_seconds": ({}, 1.0),
    "proposal_cutoff_seconds": ({}, 30.0),
    "mempool_max_txs": ({}, 1),
    "block_max_gas": ({}, 1),
    "block_max_bytes": ({}, 1),
    "rpc_workers": ({}, 4),
    "rpc_base_seconds": ({}, 0.1),
    "rpc_scan_seconds_per_transfer_event": ({}, 0.05),
    "rpc_scan_seconds_per_recv_event": ({}, 0.05),
    # Only the analysis tooling's bulk query pays it: seen through the
    # data connector's block_info times.
    "rpc_seconds_per_response_byte": ({}, 1e-5),
    "rpc_broadcast_base_seconds": ({}, 0.5),
    "rpc_broadcast_seconds_per_msg": ({}, 0.01),
    "rpc_tx_lookup_seconds": ({}, 0.2),
    "rpc_client_timeout_seconds": ({}, 0.01),
    "rpc_max_queue": ({}, 1),
    "rpc_overload_client_threshold": ({}, 1),
    "rpc_overload_scale": (OVERLOADED, 100.0),
    "rpc_overload_max_shed": (OVERLOADED, 0.2),
    "rpc_client_activity_window": (OVERLOADED, 0.001),
    "websocket_max_frame_bytes": ({}, 1_000),
    "relayer_build_seconds_per_msg": ({}, 0.5),
    "relayer_sign_seconds_per_tx": ({}, 1.0),
    "relayer_event_parse_seconds": ({}, 0.05),
    "relayer_confirm_poll_seconds": ({}, 5.0),
    "cli_prepare_seconds_per_tx": ({}, 1.0),
    "cli_confirm_poll_seconds": ({}, 0.5),
    "gas_per_transfer_msg": ({}, 50_000),
    "gas_per_recv_msg": ({}, 100_000),
    "gas_per_ack_msg": ({}, 50_000),
    "gas_tx_overhead": ({}, 100_000),
    # Relayers still afford the handshake, but a 100-transfer tx costs
    # more than any genesis balance: CheckTx refuses every transfer.
    "gas_price": ({}, 3e9),
    "event_bytes": (
        {}, dict.fromkeys(DEFAULT_CALIBRATION.event_bytes, 1_000)
    ),
}

_observed: dict[str, str] = {}


def observe(overrides: dict) -> str:
    """The golden run under ``overrides``: its report without the config
    echo, plus the data connector's block_info query times on the source
    chain afterwards."""
    key = json.dumps(overrides, sort_keys=True)
    if key not in _observed:
        settings = dict(overrides)
        parameters = {
            parameter: settings.pop(name)
            for name, parameter in PAPER_PARAMETERS.items()
            if name in settings
        }
        config = dataclasses.replace(
            lookup("golden").build(11),
            calibration=DEFAULT_CALIBRATION.with_overrides(**settings),
            **parameters,
        )
        _reset_run_caches()
        engine = _ExperimentEngine(config)
        document = engine.run().to_dict()
        del document["config"]
        testbed = engine.testbed
        chain = testbed.chain_a
        connector = CrossChainDataConnector(
            testbed.env, {chain.chain_id: testbed.cli_node}, testbed.cli_host
        )
        heights = list(range(1, chain.height))
        collect = testbed.env.process(
            connector.collect_blocks(chain.chain_id, heights)
        )
        blocks = testbed.env.run_until_complete(collect)
        document["block_info_seconds"] = [b.query_seconds for b in blocks]
        _observed[key] = json.dumps(document, sort_keys=True)
    return _observed[key]


def test_the_table_has_one_row_per_field():
    assert sorted(PERTURBATIONS) == sorted(
        spec.name for spec in dataclasses.fields(Calibration)
    )


@pytest.mark.parametrize(
    "name", [spec.name for spec in dataclasses.fields(Calibration)]
)
def test_every_field_moves_the_golden_run(name):
    companions, value = PERTURBATIONS[name]
    assert value != getattr(DEFAULT_CALIBRATION, name)
    assert observe(companions) != observe({**companions, name: value}), (
        f"calibration.{name}={value!r} changes nothing the golden run reports"
    )
