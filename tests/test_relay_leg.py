"""Every relayer packet transaction takes one path: the relay leg.

``DirectionWorker._relay_leg`` builds a batch's messages, proves each
transaction's packets with one ``prove_packets`` query, prepends one
``MsgUpdateClient`` to the proof height, submits and confirms.  The event
recv path, the ack path, the timeout stage and packet clearing all end in
it.  These tests check the transactions each of them produces and guard
that no second submission path grows back.
"""

from __future__ import annotations

import ast
import dataclasses
import math

import pytest

from repro.calibration import DEFAULT_TIMEOUT_BLOCKS
from repro.ibc.msgs import MsgAcknowledgement, MsgRecvPacket, MsgTimeout, MsgUpdateClient

from tests.test_tx_overlay import SRC, _calls_in_functions

WORKER = SRC / "repro" / "relayer" / "worker.py"
ENDPOINT = SRC / "repro" / "relayer" / "endpoint.py"

#: Small enough that a five-packet batch spans three transactions.
MAX_MSGS = 2
PACKET_MSGS = (MsgRecvPacket, MsgAcknowledgement, MsgTimeout)


# -- the shared contract, per leg ---------------------------------------------


def _narrow(h) -> None:
    """Cap both relayer endpoints at ``MAX_MSGS`` packet messages per tx."""
    for endpoint in (h.relayer.endpoint_a, h.relayer.endpoint_b):
        endpoint.cal = dataclasses.replace(endpoint.cal, max_msgs_per_tx=MAX_MSGS)


def _settle(h, path):
    deadline = h.env.now + 300.0
    while h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id):
        assert h.env.now < deadline, "packets never settled"
        yield h.env.timeout(2.0)


def _flow(h, late_start: bool, timeout_blocks: int = DEFAULT_TIMEOUT_BLOCKS):
    """Five transfers; with ``late_start`` the relayer starts only after
    their events are gone, so clearing (and, for expired packets, the
    timeout stage) has to find them."""
    path = yield from h.relayer.establish_path()
    h.path = path
    _narrow(h)
    if not late_start:
        h.relayer.start()
    cli = h.cli()
    submission = yield from cli.ft_transfer(
        count=5, amount=1, timeout_blocks=timeout_blocks
    )
    assert (yield from cli.wait_confirmation(submission))
    if late_start:
        yield h.env.timeout(30.0)
        h.relayer.start()
    yield from _settle(h, path)


#: (leg, message type, flow arguments) per entry point into the leg.
CASES = {
    "event-recv": ("recv", MsgRecvPacket, dict(late_start=False)),
    "ack": ("ack", MsgAcknowledgement, dict(late_start=False)),
    "timeout": ("timeout", MsgTimeout, dict(late_start=True, timeout_blocks=2)),
    "clear": ("recv", MsgRecvPacket, dict(late_start=True)),
}


def _packet_txs(h):
    for chain in (h.chain_a, h.chain_b):
        for height in range(1, chain.height + 1):
            block = chain.block_store.block(height)
            for tx in block.data.txs if block is not None else ():
                if any(isinstance(m, PACKET_MSGS) for m in tx.msgs):
                    yield tx


def _batches(log, leg: str) -> list[list[int]]:
    """``[built, broadcasts, broadcast messages]`` per ``<leg>_build``."""
    records = [
        r for r in log.records if r.event in (f"{leg}_build", f"{leg}_broadcast")
    ]
    assert records and records[0].event == f"{leg}_build"
    batches: list[list[int]] = []
    for record in records:
        if record.event == f"{leg}_build":
            batches.append([record.field("count"), 0, 0])
        else:
            batches[-1][1] += 1
            batches[-1][2] += record.field("count")
    return batches


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_packet_tx_is_one_client_update_and_proofs_at_its_height(
    make_harness, case
):
    leg, msg_type, flow_args = CASES[case]
    # A late-started relayer finds the missed packets by clearing.
    harness = make_harness(clear_interval=2 if flow_args["late_start"] else 0)
    harness.run_process(_flow(harness, **flow_args), limit=3000.0)
    if case == "clear":
        assert harness.relayer.log.count("packet_clear") >= 1

    txs = list(_packet_txs(harness))
    for tx in txs:
        update, *msgs = tx.msgs
        assert isinstance(update, MsgUpdateClient)
        assert 1 <= len(msgs) <= MAX_MSGS
        assert all(isinstance(m, PACKET_MSGS) for m in msgs)
        assert {m.proof_height for m in msgs} == {update.header.height}
    leg_msgs = sum(isinstance(m, msg_type) for tx in txs for m in tx.msgs)
    assert leg_msgs == 5

    # One build per batch, logged before the batch's first broadcast,
    # covering every message the batch then broadcasts.
    batches = _batches(harness.relayer.log, leg)
    for built, broadcasts, broadcast_msgs in batches:
        assert broadcast_msgs == built
        assert broadcasts == math.ceil(built / MAX_MSGS)
    assert sum(built for built, _, _ in batches) == 5
    assert harness.relayer.log.count("tx_execution_failed") == 0


# -- guard: one function builds client updates and submits --------------------


def _submitting_functions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Functions of ``tree`` that construct a ``MsgUpdateClient`` and
    functions that call ``submit_msgs``, under any spelling."""

    def callee(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        return func.id if isinstance(func, ast.Name) else ""

    updates, submits = set(), set()
    for function, call in _calls_in_functions(tree):
        if callee(call) == "MsgUpdateClient":
            updates.add(function)
        elif callee(call) == "submit_msgs":
            submits.add(function)
    return updates, submits


def _submit_params(tree: ast.Module) -> list[str]:
    """Parameter names of ``ChainEndpoint.submit_msgs`` in ``tree``."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "ChainEndpoint":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "submit_msgs":
                    args = fn.args
                    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    raise AssertionError("no ChainEndpoint.submit_msgs")


def test_one_worker_function_builds_client_updates_and_submits():
    updates, submits = _submitting_functions(ast.parse(WORKER.read_text()))
    assert updates == submits == {"DirectionWorker._relay_leg"}


def test_submit_msgs_charges_no_build_time():
    params = _submit_params(ast.parse(ENDPOINT.read_text()))
    assert "msgs" in params
    assert "build_seconds_per_msg" not in params


def test_guards_recognise_the_forbidden_spellings():
    worker = ast.parse(
        "class DirectionWorker:\n"
        "    def _relay_leg(self):\n"
        "        update = MsgUpdateClient(client_id=c, header=h)\n"
        "        yield from target.submit_msgs(msgs, label='recv')\n"
        "    def clear_once(self):\n"
        "        update = msgs.MsgUpdateClient(client_id=c, header=h)\n"
        "        yield from self.dst.submit_msgs(msgs, label='recv')\n"
    )
    updates, submits = _submitting_functions(worker)
    assert updates == submits == {
        "DirectionWorker._relay_leg",
        "DirectionWorker.clear_once",
    }
    endpoint = ast.parse(
        "class ChainEndpoint:\n"
        "    def submit_msgs(self, msgs, label, build_seconds_per_msg=0.0):\n"
        "        pass\n"
    )
    assert "build_seconds_per_msg" in _submit_params(endpoint)
