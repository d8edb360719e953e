"""Each transaction's writes reach the provable store once, through one path.

``GaiaApp.deliver_tx`` cache-wraps the store for each transaction: writes
go to an overlay that is merged on success and dropped on failure, and the
bank mirrors each balance it touched once, at its final value.  These tests
pin the write counts of a Hermes ``ft-transfer --number-msgs`` transaction
and guard that the overlay stays the store's only transaction mechanism.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.ibc import packet as packet_module
from repro.ibc.msgs import MsgTransfer
from repro.ibc.packet import Height
from repro.ibc.transfer import escrow_address
from repro.tendermint.merkle import ProvableStore

from tests.ibc_harness import IbcPair

SRC = Path(__file__).resolve().parents[1] / "src"

_OVERLAY_METHODS = {"open_overlay", "merge_overlay", "drop_overlay"}


def test_number_msgs_transfer_writes_each_key_once(monkeypatch):
    """100 references to one ``MsgTransfer`` (how the CLI repeats one)
    write the sender's and the escrow's balance once each (and the fee's,
    charged before the messages run, once), each packet
    commitment once, and hash one commitment for all 100 packets."""
    pair = IbcPair()
    app, user = pair.a.app, pair.user
    sender = user.wallet.address
    msg = MsgTransfer(
        source_port="transfer",
        source_channel=pair.chan_a,
        denom=TRANSFER_DENOM,
        amount=3,
        sender=sender,
        receiver=pair.receiver.address,
        timeout_height=Height(0, pair.b.height + 100),
        signer=sender,
    )
    tx = user.build([msg] * 100, gas_limit=10**9)
    escrow = escrow_address("transfer", pair.chan_a)
    before = app.bank.balance(sender, TRANSFER_DENOM)

    writes: Counter = Counter()
    store_set = app.store.set

    def counting_set(key, value):
        writes[key] += 1
        store_set(key, value)

    monkeypatch.setattr(app.store, "set", counting_set)
    hashes = []
    real_sha256 = packet_module.sha256

    def counting_sha256(data):
        hashes.append(data)
        return real_sha256(data)

    monkeypatch.setattr(packet_module, "sha256", counting_sha256)
    packet_module.reset_caches()
    result = app.deliver_tx(tx)
    monkeypatch.undo()

    assert result.ok, result.log
    sent = [e.packet for e in result.events if e.type == "send_packet"]
    assert len({p.sequence for p in sent}) == 100
    balance_keys = {k for k in writes if k.startswith(b"balances/")}
    assert balance_keys == {
        f"balances/{sender}/{FEE_DENOM}".encode(),  # the fee, before the tx
        f"balances/{sender}/{TRANSFER_DENOM}".encode(),
        f"balances/{escrow}/{TRANSFER_DENOM}".encode(),
    }
    assert set(writes.values()) == {1}
    assert len(writes) == 3 + 100  # the balances and one commitment per packet
    assert len(hashes) == 2  # the data hash and the commitment, once
    assert len({p.commitment() for p in sent}) == 1
    # The one write per key carries the final value.
    assert app.store.get(
        f"balances/{sender}/{TRANSFER_DENOM}".encode()
    ) == str(before - 300).encode()
    assert app.bank.balance(escrow, TRANSFER_DENOM) == 300


# -- guards: the overlay is the store's only transaction mechanism --------------


def test_provable_store_has_no_journal():
    assert not hasattr(ProvableStore(), "journal")
    assert "journal" not in ProvableStore.__dict__


def _calls_in_functions(tree: ast.Module):
    """``(qualified function name, Call)`` for every call in a function."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, [*scope, child.name])
            else:
                if isinstance(child, ast.Call):
                    yield ".".join(scope), child
                yield from visit(child, scope)

    yield from visit(tree, [])


def _source_calls():
    """``(module, function, Call)`` for every call under ``src/repro``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))
        for function, call in _calls_in_functions(tree):
            yield module, function, call


def _method_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else ""


def _journals_a_store(call: ast.Call) -> bool:
    """A ``record_kv`` whose mapping is a store or a store's data dict."""
    if _method_name(call) != "record_kv" or not call.args:
        return False
    mapping = ast.unparse(call.args[0])
    return "store" in mapping or "_data" in mapping


def _overlay_offenders(calls) -> list[str]:
    return [
        f"{module}:{function}.{_method_name(call)}"
        for module, function, call in calls
        if _method_name(call) in _OVERLAY_METHODS
        and (module, function) != ("repro.cosmos.app", "GaiaApp.deliver_tx")
    ]


def test_no_store_mapping_is_journaled():
    offenders = [
        f"{module}:{function}: {ast.unparse(call)}"
        for module, function, call in _source_calls()
        if _journals_a_store(call)
    ]
    assert offenders == []


def test_only_deliver_tx_opens_merges_or_drops_the_overlay():
    calls = list(_source_calls())
    assert _overlay_offenders(calls) == []
    used = {
        _method_name(call)
        for module, function, call in calls
        if (module, function) == ("repro.cosmos.app", "GaiaApp.deliver_tx")
    }
    assert _OVERLAY_METHODS <= used


def test_guards_recognise_the_forbidden_spellings():
    tree = ast.parse(
        "class Keeper:\n"
        "    def write(self):\n"
        "        self.journal.record_kv(self.store._data, k, None)\n"
        "        journal.record_kv(self._data, k, None)\n"
        "        journal.record_kv(self._commitments, k, None)\n"
        "        self.store.open_overlay()\n"
        "def helper(store):\n"
        "    store.merge_overlay()\n"
        "    store.drop_overlay()\n"
    )
    calls = [("repro.x", f, c) for f, c in _calls_in_functions(tree)]
    journaled = [ast.unparse(c.args[0]) for _, _, c in calls if _journals_a_store(c)]
    assert journaled == ["self.store._data", "self._data"]
    assert _overlay_offenders(calls) == [
        "repro.x:Keeper.write.open_overlay",
        "repro.x:helper.merge_overlay",
        "repro.x:helper.drop_overlay",
    ]
